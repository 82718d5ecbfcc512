"""End-to-end runs of the command line tool, in process."""

import json
import shutil
from pathlib import Path

import pytest

from tiltlab import cli
from tiltlab.cli import default_corpus_dir, main

A2_SIMPLES = {
    "field": "rational",
    "quiver": {"vertices": 2,
               "arrows": [{"from": 1, "to": 2, "label": "a"}]},
    "relations": [],
    "objects": "simples",
    "window": 2,
}

A2_NEGATIVE = {
    **A2_SIMPLES,
    "objects": [{"module": "S", "vertex": 2, "shift": 0},
                {"module": "S", "vertex": 1, "shift": -1}],
}


def write_job(tmp_path, data, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---- happy paths ----

def test_tilt_passes_on_the_ordinary_pair(tmp_path, capsys):
    code, out, _ = run(capsys, ["tilt", write_job(tmp_path, A2_SIMPLES)])
    assert code == 0
    assert "tilting: TILTING" in out
    assert "== GAMMA ==" not in out


def test_validate_stage_stops_before_construction(tmp_path, capsys):
    code, out, _ = run(capsys, ["validate", write_job(tmp_path, A2_SIMPLES)])
    assert code == 0
    assert "== COLLECTION ==" in out
    assert "== CONSTRUCTION ==" not in out


def test_rickard_stage_stops_before_the_verdict(tmp_path, capsys):
    code, out, _ = run(capsys, ["rickard", write_job(tmp_path, A2_SIMPLES)])
    assert code == 0
    assert "== CONSTRUCTION ==" in out
    assert "== VERDICT ==" not in out


def test_gamma_stage_presents_the_heart(tmp_path, capsys):
    code, out, _ = run(capsys, ["gamma", write_job(tmp_path, A2_SIMPLES)])
    assert code == 0
    assert "cartan: [[1, 1], [0, 1]]" in out
    assert "quiver: vertices=2 arrows=[a: 1->2]" in out
    assert "relations: none" in out


def test_ainf_stage_cross_checks_the_heart(tmp_path, capsys):
    code, out, _ = run(capsys, ["ainf-check", write_job(tmp_path,
                                                        A2_SIMPLES)])
    assert code == 0
    assert "crosscheck: PASS (4 degrees)" in out
    assert "dual_bar_h: {-3: 0, -2: 0, -1: 0, 0: 3}" in out


def test_dg_reduce_summarizes_minimal_forms(tmp_path, capsys):
    code, out, _ = run(capsys, ["dg-reduce", write_job(tmp_path,
                                                       A2_SIMPLES)])
    assert code == 0
    assert "X1: pieces [(1,2) (0,1)]" in out
    assert "truncated_dims:" in out


@pytest.mark.parametrize("name, want_code", [
    ("a2_simples", 0), ("a2_apr", 0), ("a2_negative", 0),
    ("dual_numbers", 3), ("nakayama2", 3), ("a4_cubic", 0)])
def test_dg_reduce_matches_the_pinned_text(capsys, name, want_code):
    expected = Path(__file__).parent / "expected_dg_reduce" / f"{name}.txt"
    code, out, _ = run(capsys, ["dg-reduce",
                                str(default_corpus_dir() / f"{name}.json")])
    assert code == want_code
    assert out == expected.read_text()


def test_out_flag_writes_the_report_as_json(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, ["tilt", write_job(tmp_path, A2_SIMPLES),
                                "--out", str(dest)])
    assert code == 0
    data = json.loads(dest.read_text())
    assert data["exit_code"] == 0
    assert data["verdict"]["tilting"] == "TILTING"
    assert "timings" in data and "timings" not in out


# ---- mathematical failures and inconclusive runs ----

def test_negative_collection_fails_with_a_witness(tmp_path, capsys):
    code, out, _ = run(capsys, ["gamma", write_job(tmp_path, A2_NEGATIVE)])
    assert code == 2
    assert "tilting: NOT_TILTING" in out
    assert "witness: degree -1 dim 1" in out
    # the heart degenerates to a product of two copies of the field
    assert "cartan: [[1, 0], [0, 1]]" in out
    assert "arrows=[]" in out


def test_validate_rejects_the_mirrored_pair(tmp_path, capsys):
    mirror = {**A2_SIMPLES,
              "objects": [{"module": "S", "vertex": 1, "shift": 0},
                          {"module": "S", "vertex": 2, "shift": -1}]}
    code, out, _ = run(capsys, ["validate", write_job(tmp_path, mirror)])
    assert code == 2
    assert "orthonormal_endomorphisms: FAIL [X1->X2 dim 1 expected 0]" in out
    assert "stopped: the collection axioms failed" in out


def test_zero_budget_is_inconclusive(tmp_path, capsys):
    code, out, _ = run(capsys, ["tilt", write_job(tmp_path, A2_SIMPLES),
                                "--budget", "0"])
    assert code == 3
    assert "tilting: INCONCLUSIVE" in out
    assert "stopped early" in out


def test_window_override_changes_the_verdict(tmp_path, capsys):
    path = write_job(tmp_path, A2_NEGATIVE)
    code, out, _ = run(capsys, ["tilt", path, "--window", "1"])
    assert code == 3
    assert "larger window" in out
    code, out, _ = run(capsys, ["tilt", path])
    assert code == 2


def test_strict_policy_stops_on_necessary_only_generation(tmp_path, capsys):
    job = {**A2_SIMPLES,
           "objects": [{"module": "P", "vertex": 1, "shift": 0},
                       {"module": "S", "vertex": 2, "shift": -1}],
           "generation_budget": 0}
    path = write_job(tmp_path, job)
    code, out, _ = run(capsys, ["tilt", path, "--policy", "strict"])
    assert code == 3
    assert "generation: PASS_NECESSARY" in out
    assert "stopped: generation is only necessary-verified" in out
    code, out, _ = run(capsys, ["tilt", path])
    assert code == 0
    assert "tilting: TILTING" in out


# ---- input errors ----

def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, ["tilt", str(p)])
    assert code == 4
    assert "tiltlab:" in err


def test_unknown_field_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["tilt", write_job(
        tmp_path, {**A2_SIMPLES, "field": "real"})])
    assert code == 4
    assert "field" in err


def test_bad_vertex_is_a_usage_error(tmp_path, capsys):
    job = {**A2_SIMPLES,
           "objects": [{"module": "S", "vertex": 5, "shift": 0}]}
    code, _, err = run(capsys, ["tilt", write_job(tmp_path, job)])
    assert code == 4
    assert "vertex 5" in err


def test_inexact_coefficient_is_a_usage_error(tmp_path, capsys):
    job = {**A2_SIMPLES,
           "field": {"prime": 7},
           "quiver": {"vertices": 3,
                      "arrows": [{"from": 1, "to": 2, "label": "a"},
                                 {"from": 2, "to": 3, "label": "b"}]},
           "relations": [{"terms": [{"coeff": 0.5, "path": ["a", "b"]}]}]}
    code, _, err = run(capsys, ["validate", write_job(tmp_path, job)])
    assert code == 4
    assert "coefficient 0.5" in err


def test_non_utf8_job_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 4
    assert "internal error" not in err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["tilt", str(tmp_path / "absent.json")])
    assert code == 4
    assert "tiltlab:" in err


def test_unbounded_cycle_is_a_usage_error(tmp_path, capsys):
    job = {**A2_SIMPLES,
           "quiver": {"vertices": 1,
                      "arrows": [{"from": 1, "to": 1, "label": "x"}]},
           "objects": "simples"}
    code, _, err = run(capsys, ["tilt", write_job(tmp_path, job)])
    assert code == 4
    assert "nilpotency_bound" in err


def test_a_long_chain_hits_the_path_cap_not_the_recursion_limit(
        tmp_path, capsys):
    n = 1200
    job = {"field": "rational",
           "quiver": {"vertices": n, "arrows": [
               {"from": v, "to": v + 1, "label": f"x{v}"} for v in range(1, n)]},
           "relations": [{"terms": [{"coeff": 1, "path": [f"x{v}", f"x{v + 1}"]}]}
                         for v in range(1, n - 1)],
           "objects": "simples"}
    code, _, err = run(capsys, ["validate", write_job(tmp_path, job)])
    assert code == 4
    assert "path count exceeds cap" in err


def test_bad_flag_is_a_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, ["tilt", write_job(tmp_path, A2_SIMPLES),
                              "--no-such-flag"])
    assert code == 4


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys,
                                                   monkeypatch):
    def broken(job, upto):
        raise RuntimeError("invariant broke")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    code, out, err = run(capsys, ["tilt", write_job(tmp_path, A2_SIMPLES)])
    assert code == 5
    assert out == ""
    assert err == "tiltlab: internal error: RuntimeError: invariant broke\n"


# ---- the corpus ----

def test_corpus_runs_clean_on_the_bundled_examples(capsys):
    code, out, _ = run(capsys, ["corpus"])
    assert code == 0
    assert "result: OK" in out
    for name in ("a2_simples", "a2_apr", "a2_negative",
                 "dual_numbers", "nakayama2", "a4_cubic"):
        assert f"{name}: OK" in out


def test_corpus_detects_tampering(tmp_path, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(default_corpus_dir(), work)
    victim = work / "expected" / "a2_simples.txt"
    victim.write_text(victim.read_text().replace("TILTING", "BROKEN", 1))
    code, out, _ = run(capsys, ["corpus", str(work)])
    assert code == 2
    assert "a2_simples: MISMATCH at line" in out
    assert "result: MISMATCH" in out


def test_corpus_reports_a_non_utf8_job_and_runs_the_rest(tmp_path, capsys):
    work = tmp_path / "corpus"
    shutil.copytree(default_corpus_dir(), work)
    (work / "bin.json").write_bytes(b"\xff\xfe\x00bad")
    code, out, _ = run(capsys, ["corpus", str(work)])
    assert code == 2
    assert "bin: ERROR (" in out
    for name in ("a2_simples", "a2_apr", "a2_negative",
                 "dual_numbers", "nakayama2", "a4_cubic"):
        assert f"{name}: OK" in out
    assert "result: MISMATCH" in out


def test_corpus_of_an_empty_directory_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["corpus", str(tmp_path)])
    assert code == 4
    assert "no job files" in err


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = write_job(tmp_path, A2_SIMPLES)
    _, first, _ = run(capsys, ["ainf-check", path])
    _, second, _ = run(capsys, ["ainf-check", path])
    assert first == second


def test_bundled_expectations_match_a_fresh_run(capsys):
    # the stored reports are regenerated, not just compared,
    # by a second in-process pipeline run
    job_path = default_corpus_dir() / "a4_cubic.json"
    expected = (default_corpus_dir() / "expected" / "a4_cubic.txt").read_text()
    code, out, _ = run(capsys, ["ainf-check", str(job_path)])
    assert code == 0
    assert out == expected

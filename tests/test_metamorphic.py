"""Metamorphic checks: results that a change of input cannot move.

The corpus relations have integer coefficients, so over GF(p) every
rank, and with it every dimension and verdict, is the one over QQ for
all but finitely many primes p.  The Mersenne prime 2^31 - 1 is not one
of the exceptions for any bundled job.

The hereditary A5 family (all 32 collections of simples shifted by 0 or
-1 on 1 -> 2 -> 3 <- 4 <- 5) checks the rest: renaming vertices and
arrows and shifting every member by one amount keep what they must, and
jobs that share an algebra report what each reports alone, in any order.

The cyclic Nakayama jobs check the memos of a self-injective algebra,
which keep the periods of the cone iteration: a job reports the same on
an algebra whose memos earlier jobs filled, and running the jobs again
adds nothing to any memo.
"""

import gc
import itertools
import json
import weakref

import pytest

from tiltlab.cli import default_corpus_dir
from tiltlab.reporting import parse_job, render_report, run_pipeline

LARGE_PRIME = 2**31 - 1
RATIONAL_JOBS = [path for path in sorted(default_corpus_dir().glob("*.json"))
                 if json.loads(path.read_text())["field"] == "rational"]


def _invariants(report):
    """The report fields that do not depend on the field's characteristic."""
    return {
        "exit_code": report["exit_code"],
        "verdict": report.get("verdict", {}).get("tilting"),
        "is_smc": report["smc"]["is_smc"],
        "gamma_dim": report.get("gamma", {}).get("dim"),
        "cartan": report.get("gamma", {}).get("cartan"),
        "ainf": report.get("ainf", {}).get("status"),
        "certified": [r["certified"] for r in
                      report.get("construction", {}).get("runs", [])],
    }


@pytest.mark.parametrize("path", RATIONAL_JOBS, ids=lambda p: p.stem)
def test_a_large_prime_gives_the_rational_results(path):
    data = json.loads(path.read_text())
    over_q = run_pipeline(parse_job(data, name=path.stem))
    over_p = run_pipeline(parse_job(dict(data, field={"prime": LARGE_PRIME}),
                                    name=path.stem))
    assert over_p["field"] != over_q["field"]
    assert _invariants(over_p) == _invariants(over_q)


# 1 -> 2 -> 3 <- 4 <- 5: a source at each end, the sink in the middle
A5_EDGES = ((1, 2), (2, 3), (4, 3), (5, 4))
A5_SHIFTS = list(itertools.product((0, -1), repeat=5))


def a5_job(shifts, sigma=(1, 2, 3, 4, 5), order=(0, 1, 2, 3),
           labels="abcd"):
    """The collection S_v shifted by shifts[v - 1] on the A5 above, with
    vertex v written sigma[v - 1] and edge k listed at place order[k]
    under the label labels[k]."""
    arrows = [None] * 4
    for k, (s, t) in enumerate(A5_EDGES):
        arrows[order[k]] = {"from": sigma[s - 1], "to": sigma[t - 1],
                            "label": labels[k]}
    relabelled = [0] * 5
    for v, shift in enumerate(shifts):
        relabelled[sigma[v] - 1] = shift
    return {"field": "rational",
            "quiver": {"vertices": 5, "arrows": arrows},
            "objects": {"preset": "shifted", "shifts": relabelled}}


def _gamma_run(data):
    return run_pipeline(parse_job(data), upto="gamma")


RELABELLINGS = [((5, 4, 3, 2, 1), (3, 2, 1, 0), "wxyz"),
                ((3, 1, 5, 2, 4), (1, 3, 0, 2), "dcba")]


@pytest.mark.parametrize("sigma, order, labels", RELABELLINGS,
                         ids=["reversed", "shuffled"])
def test_relabelling_keeps_verdict_dim_and_cartan(sigma, order, labels):
    for shifts in A5_SHIFTS:
        want = _gamma_run(a5_job(shifts))
        got = _gamma_run(a5_job(shifts, sigma, order, labels))
        assert got["exit_code"] == want["exit_code"]
        assert got.get("verdict", {}).get("tilting") == \
            want.get("verdict", {}).get("tilting")
        g, w = got.get("gamma", {}), want.get("gamma", {})
        assert g.get("status") == w.get("status")
        assert g.get("dim") == w.get("dim")
        if "cartan" in w:
            # member i here is member sigma[i] of the relabelled job
            n = len(sigma)
            assert [[g["cartan"][sigma[i] - 1][sigma[j] - 1]
                     for j in range(n)] for i in range(n)] == w["cartan"]


PRESENTATION = ("status", "dim", "cartan", "vertices", "arrows",
                "relations", "radical_layers")


@pytest.mark.parametrize("common", [-1, 2])
def test_a_common_shift_keeps_the_presentation_of_gamma(common):
    computed = 0
    for shifts in A5_SHIFTS:
        want = _gamma_run(a5_job(shifts))
        got = _gamma_run(a5_job([s + common for s in shifts]))
        assert got.get("verdict", {}).get("tilting") == \
            want.get("verdict", {}).get("tilting")
        assert {k: got.get("gamma", {}).get(k) for k in PRESENTATION} == \
            {k: want.get("gamma", {}).get(k) for k in PRESENTATION}
        computed += want.get("gamma", {}).get("status") == "computed"
    assert computed  # the family does reach Gamma


def _parse(name, data):
    job = parse_job(data, name=name)
    # the job runs on the algebra of its own spec, arrows in file order
    assert job["algebra"].quiver.arrows == [
        (a["label"], a["from"] - 1, a["to"] - 1)
        for a in data["quiver"]["arrows"]]
    return job


def _text(job):
    return render_report(run_pipeline(job, upto="gamma"))


def test_jobs_sharing_an_algebra_report_what_each_reports_alone():
    # the family twice, under two arrow orders: two specs, two algebras
    jobs = [(f"{tag}{''.join(str(-s) for s in shifts)}",
             a5_job(shifts, order=order))
            for shifts in A5_SHIFTS
            for tag, order in (("o", (0, 1, 2, 3)), ("r", (2, 0, 3, 1)))]
    alone, last = {}, None
    for name, data in jobs:
        gc.collect()
        assert last is None or last() is None  # each on a fresh algebra
        job = _parse(name, data)
        last = weakref.ref(job["algebra"])
        alone[name] = _text(job)
        del job
    for ordered in (jobs, jobs[::-1]):
        gc.collect()
        parsed = [(name, _parse(name, data)) for name, data in ordered]
        assert len({id(job["algebra"]) for _, job in parsed}) == 2
        for name, job in parsed:
            assert _text(job) == alone[name], name
        del parsed, job


# the (n, r) of the self-injective benchmark jobs kZ_n/rad^r
NAKAYAMA = ((2, 3), (3, 3), (4, 2), (4, 3), (5, 2), (3, 4))


def nakayama_job(n, r, shift):
    """The simples of kZ_n/rad^r over GF(31847), each shifted by shift:
    with shift 0, a job of the self-injective benchmark workload."""
    arrows = [{"from": i + 1, "to": (i + 1) % n + 1, "label": f"x{i + 1}"}
              for i in range(n)]
    relations = [{"terms": [{"coeff": 1, "path": [
        f"x{(i + k) % n + 1}" for k in range(r)]}]} for i in range(n)]
    return {"field": {"prime": 31847},
            "quiver": {"vertices": n, "arrows": arrows},
            "relations": relations,
            "objects": "simples" if shift == 0 else {
                "preset": "shifted", "shifts": [shift] * n}}


def _memo_sizes(algebras):
    """The size of every memo of the algebras and their opposites."""
    return {(id(B), name): len(memo) for A in algebras for B in (A, A.op())
            for name, memo in vars(B).items() if name.endswith("_memo")}


def test_warm_memos_change_no_report_and_a_second_pass_adds_nothing():
    # two jobs per algebra: the simples, and the simples shifted by -1
    jobs = [(f"nakayama_{n}_{r}{shift}", nakayama_job(n, r, shift))
            for n, r in NAKAYAMA for shift in (0, -1)]
    alone, last = {}, None
    for name, data in jobs:
        gc.collect()
        assert last is None or last() is None  # each on a fresh algebra
        job = parse_job(data, name=name)
        last = weakref.ref(job["algebra"])
        alone[name] = render_report(run_pipeline(job, upto="ainf"))
        del job
    for ordered in (jobs, jobs[::-1]):
        gc.collect()
        parsed = [(name, parse_job(data, name=name)) for name, data in ordered]
        algebras = {id(job["algebra"]): job["algebra"] for _, job in parsed}
        assert len(algebras) == len(NAKAYAMA)
        for name, job in parsed:
            assert render_report(run_pipeline(job, upto="ainf")) == \
                alone[name], name
        filled = _memo_sizes(algebras.values())
        # the collection check's memo is among them, and the jobs fill it
        assert all(filled[id(A), "validation_memo"]
                   for A in algebras.values())
        for name, job in parsed:
            assert render_report(run_pipeline(job, upto="ainf")) == \
                alone[name], name
        assert _memo_sizes(algebras.values()) == filled
        del parsed, job, algebras

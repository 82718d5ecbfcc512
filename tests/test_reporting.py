"""Job parsing and report assembly."""

import gc
import json
import weakref

import pytest

from tiltlab import complexes, derived, reporting
from tiltlab.cli import default_corpus_dir
from tiltlab.reporting import (JobError, parse_job, render_report,
                               run_pipeline)

A2_DATA = {
    "field": "rational",
    "quiver": {"vertices": 2,
               "arrows": [{"from": 1, "to": 2, "label": "a"}]},
    "relations": [],
    "objects": "simples",
    "window": 2,
}


def test_parse_fills_defaults_and_builds_stalks():
    job = parse_job(dict(A2_DATA))
    assert job["window"] == 2 and job["budget"] == 64
    assert job["arity_cap"] == 4 and job["policy"] == "proceed"
    assert [X.describe() for X in job["objects"]] == ["[0: S1]", "[0: S2]"]
    assert job["algebra"].dim == 3
    assert job["field_text"] == "rational"


def test_parse_accepts_prime_fields():
    job = parse_job({**A2_DATA, "field": {"prime": 5}})
    assert job["field_text"] == "GF(5)"
    assert repr(job["field"]) == "GF(5)"


def test_parse_accepts_the_shifted_preset():
    job = parse_job({**A2_DATA,
                     "objects": {"preset": "shifted", "shifts": [0, -1]}})
    assert [X.describe() for X in job["objects"]] == ["[0: S1]", "[-1: S2]"]


def test_parse_accepts_fractional_coefficients():
    data = {**A2_DATA,
            "quiver": {"vertices": 3,
                       "arrows": [{"from": 1, "to": 2, "label": "a"},
                                  {"from": 2, "to": 3, "label": "b"}]},
            "relations": [{"terms": [{"coeff": "1/2",
                                      "path": ["a", "b"]}]}]}
    job = parse_job(data)
    assert job["algebra"].dim == 5  # the length-two path is killed


def test_parse_finds_a_nilpotency_bound_for_bounded_cycles():
    data = {**A2_DATA,
            "quiver": {"vertices": 1,
                       "arrows": [{"from": 1, "to": 1, "label": "x"}]},
            "relations": [{"terms": [{"coeff": 1, "path": ["x", "x", "x"]}]}]}
    job = parse_job(data)
    assert job["algebra"].dim == 3
    assert job["algebra"].bound_certified


def test_parse_honors_an_explicit_bound():
    data = {**A2_DATA,
            "quiver": {"vertices": 1,
                       "arrows": [{"from": 1, "to": 1, "label": "x"}]},
            "relations": [{"terms": [{"coeff": 1, "path": ["x", "x"]}]}],
            "nilpotency_bound": 2}
    assert parse_job(data)["algebra"].dim == 2


def test_parse_overrides_beat_the_file():
    job = parse_job(dict(A2_DATA), overrides={"window": 5, "budget": None})
    assert job["window"] == 5
    assert job["budget"] == 64


def with_coeff(c, field="rational"):
    """Mutation: the path algebra 1 -a-> 2 -b-> 3 with relation c*ab."""
    def mutate(d):
        d.update(field=field,
                 quiver={"vertices": 3,
                         "arrows": [{"from": 1, "to": 2, "label": "a"},
                                    {"from": 2, "to": 3, "label": "b"}]},
                 relations=[{"terms": [{"coeff": c, "path": ["a", "b"]}]}])
    return mutate


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.pop("field"), "field"),
    (lambda d: d.update(extra=1), "unknown job field"),
    (lambda d: d.update(policy="maybe"), "policy"),
    (lambda d: d.update(window=0), "window"),
    (lambda d: d.update(objects=[]), "objects"),
    (lambda d: d.update(objects=[{"module": "Q", "vertex": 1}]), "kind"),
    (lambda d: d.update(relations=[{"terms": [{"coeff": 1,
                                               "path": ["z", "z"]}]}]),
     "unknown arrow label"),
    (lambda d: d.update(relations=[{"terms": [{"coeff": 1,
                                               "path": ["a"]}]}]),
     "length >= 2"),
    (lambda d: d.update(quiver={"vertices": 2,
                                "arrows": [{"from": 1, "to": 9,
                                            "label": "a"}]}),
     "outside"),
    (with_coeff(0.5, {"prime": 7}), "coefficient 0.5"),
    (with_coeff(0.1), "coefficient 0.1"),
    (with_coeff("abc"), "coefficient 'abc'"),
    (with_coeff("1/0"), "coefficient '1/0'"),
    (with_coeff("1/7", {"prime": 7}), "coefficient '1/7'"),
    (with_coeff(None), "coefficient None"),
    (with_coeff([1]), "coefficient \\[1\\]"),
    (with_coeff(True), "coefficient True"),
    (lambda d: d.update(field={"prime": 7.9}), "integer, got 7.9"),
    (lambda d: d.update(field={"prime": "7"}), "integer, got '7'"),
    (lambda d: d.update(field={"prime": True}), "integer, got True"),
    # JSON booleans are not integers, although isinstance(True, int) holds
    (lambda d: d.update(window=True),
     "window must be a positive integer"),
    (lambda d: d.update(quiver={"vertices": True, "arrows": []}),
     "vertices must be an integer"),
    (lambda d: d.update(quiver={"vertices": 2,
                                "arrows": [{"from": True, "to": 2,
                                            "label": "a"}]}),
     "endpoint True"),
    (lambda d: d.update(objects=[{"module": "S", "vertex": True}]),
     "vertex True"),
    (lambda d: d.update(objects=[{"module": "S", "vertex": 1,
                                  "shift": False}]), "shift"),
    (lambda d: d.update(nilpotency_bound=True), "nilpotency_bound"),
    (lambda d: d.update(length=True), "length"),
    (lambda d: d.update(arity_cap=True), "arity_cap must be an integer"),
    (lambda d: d.update(budget=False), "budget"),
    (lambda d: d.update(generation_budget=True), "generation_budget"),
])
def test_parse_rejects_malformed_jobs(mutate, needle):
    data = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in A2_DATA.items()}
    mutate(data)
    with pytest.raises(JobError, match=needle):
        parse_job(data)


def test_unbounded_cycle_is_rejected_with_advice():
    data = {**A2_DATA,
            "quiver": {"vertices": 1,
                       "arrows": [{"from": 1, "to": 1, "label": "x"}]},
            "relations": []}
    with pytest.raises(JobError, match="nilpotency_bound"):
        parse_job(data)


def test_presentation_recovers_quiver_and_relations():
    job = parse_job(dict(A2_DATA))
    rep = run_pipeline(job, upto="gamma")
    g = rep["gamma"]
    assert g["status"] == "computed"
    assert g["arrows"] == [("a", 1, 2)]
    assert g["relations"] == []
    assert g["radical_layers"] == [1]


def test_presentation_of_the_heart_over_a_prime_field():
    data = {**A2_DATA,
            "field": {"prime": 5},
            "quiver": {"vertices": 2,
                       "arrows": [{"from": 1, "to": 2, "label": "a"},
                                  {"from": 2, "to": 1, "label": "b"}]},
            "relations": [{"terms": [{"coeff": 1, "path": ["a", "b"]}]},
                          {"terms": [{"coeff": 1, "path": ["b", "a"]}]}]}
    rep = run_pipeline(parse_job(data), upto="gamma")
    g = rep["gamma"]
    assert g["dim"] == 4
    assert sorted(g["relations"]) == ["a*b", "b*a"]


def test_presentation_raw_algebra_roundtrip():
    # feed the heart back in as a fresh job: same dimensions both times
    job = parse_job(dict(A2_DATA))
    rep = run_pipeline(job, upto="gamma")
    g = rep["gamma"]
    data2 = {
        "field": "rational",
        "quiver": {"vertices": g["vertices"],
                   "arrows": [{"from": i, "to": j, "label": lab}
                              for lab, i, j in g["arrows"]]},
        "relations": [],
        "objects": "simples",
        "window": 2,
    }
    rep2 = run_pipeline(parse_job(data2), upto="gamma")
    assert rep2["gamma"]["dim"] == g["dim"]
    assert rep2["gamma"]["cartan"] == g["cartan"]


def test_render_is_pure_text_with_stable_sections():
    job = parse_job(dict(A2_DATA))
    rep = run_pipeline(job, upto="ainf")
    text = render_report(rep)
    order = [text.index(s) for s in
             ("== COLLECTION ==", "== CONSTRUCTION ==", "== VERDICT ==",
              "== GAMMA ==", "== AINF ==")]
    assert order == sorted(order)
    assert render_report(rep) == text



def test_a_construction_not_certified_end_to_end_closes_the_gate():
    """a2_apr with no cone budget: T1 stops at budget_exceeded, so its
    run line does not read certified, check_tilting's certified flag is
    off, Gamma is not presented and the cross-check is skipped."""
    path = default_corpus_dir() / "a2_apr.json"
    job = parse_job(json.loads(path.read_text()), name="a2_apr",
                    overrides={"budget": 0})
    rep = run_pipeline(job, upto="ainf")
    assert [r["status"] for r in rep["construction"]["runs"]] == [
        "budget_exceeded", "terminated"]
    assert [r["certified"] for r in rep["construction"]["runs"]] == [
        False, True]
    assert "T1: [0: I2]  status=budget_exceeded cones=0 certified=no\n" \
        in render_report(rep)
    assert rep["exit_code"] == reporting.EXIT_INCONCLUSIVE == 3
    assert rep["gamma"] == {"status": "skipped: the construction is not "
                                      "certified end to end"}
    assert rep["ainf"]["status"] == "computed"
    assert rep["ainf"]["crosscheck"] == "SKIPPED"
    assert rep["ainf"]["crosscheck_note"] == \
        "the construction is not certified"


SQUARE_DATA = {
    "field": {"prime": 5},
    "quiver": {"vertices": 4,
               "arrows": [{"from": 1, "to": 2, "label": "a"},
                          {"from": 2, "to": 4, "label": "b"},
                          {"from": 1, "to": 3, "label": "c"},
                          {"from": 3, "to": 4, "label": "d"}]},
    "relations": [{"terms": [{"coeff": 1, "path": ["a", "b"]},
                             {"coeff": -1, "path": ["c", "d"]}]}],
}


def _square(field=None, arrows=None, coeff=-1, **extra):
    """The commutative square over GF(5), with one part of it changed."""
    quiver = dict(SQUARE_DATA["quiver"])
    if arrows is not None:
        quiver["arrows"] = arrows
    relation = {"terms": [{"coeff": 1, "path": ["a", "b"]},
                          {"coeff": coeff, "path": ["c", "d"]}]}
    return {**SQUARE_DATA, "field": field or SQUARE_DATA["field"],
            "quiver": quiver, "relations": [relation], **extra}


def test_the_spec_keys_the_shared_algebra():
    base = parse_job(_square())["algebra"]
    # the same spec, with coefficients that the field reads as the same
    for same in (_square(), _square(coeff="-1"), _square(coeff=4),
                 _square(coeff="-3/3")):
        assert parse_job(same)["algebra"] is base
    arrows = SQUARE_DATA["quiver"]["arrows"]
    for other in (_square(field={"prime": 7}),
                  _square(arrows=arrows[2:] + arrows[:2]),
                  _square(coeff=2),
                  _square(nilpotency_bound=3)):
        A = parse_job(other)["algebra"]
        assert A is not base
        assert parse_job(other)["algebra"] is A
    # the explicit bound is the one the acyclic quiver implies, so only
    # the key tells the two algebras apart
    assert parse_job(_square(nilpotency_bound=3))["algebra"].dim == base.dim


def _counting(monkeypatch, module, name, counts, watched):
    """Count the calls of module.name whose first argument is watched
    (any call when watched is None)."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        if watched is None or id(args[0]) in watched:
            counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("case", ["full", "axioms fail", "exception"])
def test_jobs_on_one_spec_share_its_algebra_and_memo(monkeypatch, case):
    objects = "simples" if case != "axioms fail" else \
        [{"module": "S", "vertex": 1}, {"module": "S", "vertex": 1}]
    data = {**A2_DATA, "objects": objects}
    gc.collect()  # frees the algebras of earlier tests' jobs
    jobs = [parse_job(data), parse_job(data)]
    A = jobs[0]["algebra"]
    assert jobs[1]["algebra"] is A
    assert jobs[0]["objects"][0] is not jobs[1]["objects"][0]

    counts, watched = {}, set()
    _counting(monkeypatch, complexes, "hom_basis", counts, None)
    for name in ("resolve_complex", "coresolve_complex"):
        _counting(monkeypatch, derived, name, counts, watched)
    if case == "exception":
        def failing_check(*args, **kwargs):
            raise RuntimeError("stage failed")
        monkeypatch.setattr(reporting, "check_tilting", failing_check)

    texts, made = [], []
    for job in jobs:
        watched.clear()
        watched.update(id(X) for X in job["objects"])
        counts.clear()
        if case == "exception":
            with pytest.raises(RuntimeError, match="stage failed"):
                run_pipeline(job)
        else:
            texts.append(render_report(run_pipeline(job)))
        made.append(dict(counts))
    # the first job filled the memo; the second builds no hom basis and
    # resolves no member, and reports the same
    assert made[0]["hom_basis"] and made[0]["resolve_complex"]
    if case == "full":
        assert made[0]["coresolve_complex"]
    assert made[1] == {}
    if case != "exception":
        assert texts[0] == texts[1]
        assert ("stopped: the collection axioms failed" in texts[0]) == \
            (case == "axioms fail")
    # the algebra goes with the last job that holds it; its memo's
    # entries (and its opposite, once built) point back at it, so only
    # the cyclic collector frees it
    gone = weakref.ref(A)
    del A, jobs, job
    gc.collect()
    assert gone() is None
    assert not reporting._ALGEBRAS

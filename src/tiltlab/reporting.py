"""Job files, pipeline orchestration, and deterministic text reports.

A job is a JSON document:

    {
      "field": "rational" | {"prime": p},
      "quiver": {"vertices": r,
                 "arrows": [{"from": 1, "to": 2, "label": "a"}, ...]},
      "relations": [{"terms": [{"coeff": 1, "path": ["a", "b"]}]}, ...],
      "objects": "simples"
                 | {"preset": "simples"|"shifted", "shifts": [..]}
                 | [{"module": "P"|"I"|"S", "vertex": v, "shift": k}, ..],
      "window": 2, "budget": 64, "length": null,
      "arity_cap": 4, "generation_budget": 48, "policy": "proceed"
    }

Vertices are 1-based in files, 0-based internally.  A stalk's "shift"
is the cohomological degree it sits in, so shift -1 is one step of the
suspension.  Coefficients are JSON integers or exact strings ("-2/3")
that the field reads; anything else is refused as malformed.
Cyclic quivers need a nilpotency bound; when the relations force one,
it is found by growing the truncation level until the dimension
stabilizes and certifies.

Jobs on one algebra share it: parse_job builds one Algebra per parsed
spec (field, vertex count, arrows in file order with their labels,
relations with their coefficients as field elements, and any explicit
nilpotency bound), and hands it to every job with that spec for as long
as some job holds it.  Its memo (summand sums, hom bases, the members'
resolutions) lives as long as the algebra and serves every job on it.

Reports are plain text with a fixed field order and exact numbers, so
a report is byte-reproducible and can be stored as an expectation
file.  Wall-clock timings are kept out of the text (they live in the
JSON dump) for that reason.
"""

import json
import weakref
from pathlib import Path
from time import perf_counter

from . import __version__
from .algebra import Algebra, AlgebraError, Quiver, sparse_rows
from .ainfinity import (AInfError, collection_ext_model, dual_bar_dg)
from .complexes import Summand, minimize, stalk_complex
from .derived import resolve_complex, validate_simple_minded
from .dg import (DgError, endomorphism_dg_algebra, gamma_tilde,
                 truncate_algebra)
from .linalg import Mat, field_from_spec, independent_rows
from .tilting import check_tilting, nu_inverse_complex

STAGES = ("validate", "rickard", "tilt", "gamma", "ainf")

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_BADINPUT = 4
EXIT_INTERNAL = 5


class JobError(Exception):
    """Malformed job data; maps to the input-error exit status."""


class EmptyCorpus(Exception):
    """The corpus directory holds no job files."""


# ---- job parsing ----

def _require(cond, msg):
    if not cond:
        raise JobError(msg)


def _is_int(x):
    """A JSON integer; JSON booleans are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_quiver(data):
    _require(isinstance(data, dict), "quiver must be an object")
    _require("vertices" in data, "quiver.vertices is missing")
    r = data["vertices"]
    _require(_is_int(r) and r >= 1,
             "quiver.vertices must be an integer >= 1")
    arrows = []
    for k, a in enumerate(data.get("arrows", [])):
        _require(isinstance(a, dict) and {"from", "to", "label"} <= set(a),
                 f"arrow {k} needs from/to/label")
        s, t = a["from"], a["to"]
        for v in (s, t):
            _require(_is_int(v) and 1 <= v <= r,
                     f"arrow {k} endpoint {v!r} outside 1..{r}")
        _require(isinstance(a["label"], str) and a["label"],
                 f"arrow {k} label must be a nonempty string")
        arrows.append((a["label"], s - 1, t - 1))
    labels = [a[0] for a in arrows]
    _require(len(set(labels)) == len(labels), "arrow labels must be unique")
    return Quiver(r, arrows)


def _exact_scalar(field, c):
    """True for a JSON integer or a string that field.parse reads."""
    if _is_int(c):
        return True
    if not isinstance(c, str):
        return False
    try:
        field.parse(c)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _parse_relations(data, field, labels):
    rels = []
    for k, rel in enumerate(data or []):
        _require(isinstance(rel, dict) and "terms" in rel,
                 f"relation {k} needs a terms list")
        terms = []
        for term in rel["terms"]:
            _require(isinstance(term, dict) and "path" in term,
                     f"relation {k}: each term needs a path")
            path = term["path"]
            _require(isinstance(path, list) and len(path) >= 2,
                     f"relation {k}: paths must have length >= 2")
            for lab in path:
                _require(lab in labels,
                         f"relation {k}: unknown arrow label {lab!r}")
            coeff = term.get("coeff", 1)
            _require(_exact_scalar(field, coeff),
                     f"relation {k}: coefficient {coeff!r} is not an "
                     "integer or an exact fraction string")
            terms.append((coeff, list(path)))
        rels.append(terms)
    return rels


# parsed spec -> its Algebra, while some job holds it
_ALGEBRAS = weakref.WeakValueDictionary()


def _build_algebra(field, quiver, relations, bound):
    """The one Algebra of this spec, built (and for a cyclic quiver
    without a bound, its bound searched) only when no live job holds it."""
    key = (field, quiver.n, tuple(quiver.arrows),
           tuple(tuple((field.parse(c), tuple(path)) for c, path in rel)
                 for rel in relations),
           bound)
    A = _ALGEBRAS.get(key)
    if A is None:
        A = _ALGEBRAS[key] = _new_algebra(field, quiver, relations, bound)
    return A


def _new_algebra(field, quiver, relations, bound):
    if bound is not None:
        return Algebra(field, quiver, relations, nilpotency_bound=bound)
    if quiver.is_acyclic():
        return Algebra(field, quiver, relations)
    # cyclic: grow the truncation level until the dimension certifies
    for b in range(2, 65):
        A = Algebra(field, quiver, relations, nilpotency_bound=b)
        if A.bound_certified:
            return A
    raise JobError("the relations do not bound the cyclic quiver; "
                   "add a nilpotency_bound field")


def _parse_objects(data, A):
    r = A.quiver.n

    def stalk(kind, v, shift):
        _require(kind in ("P", "I", "S"), f"unknown module kind {kind!r}")
        _require(_is_int(v) and 1 <= v <= r,
                 f"vertex {v!r} outside 1..{r}")
        _require(_is_int(shift), "shift must be an integer")
        return stalk_complex(A, Summand(kind, v - 1), shift)

    if data is None or data == "simples":
        return [stalk("S", v, 0) for v in range(1, r + 1)]
    if isinstance(data, dict) and "preset" in data:
        _require(data["preset"] in ("simples", "shifted"),
                 f"unknown preset {data['preset']!r}")
        shifts = data.get("shifts", [0] * r)
        _require(isinstance(shifts, list) and len(shifts) == r,
                 f"preset shifts must list one integer per vertex ({r})")
        return [stalk("S", v + 1, shifts[v]) for v in range(r)]
    _require(isinstance(data, list) and data,
             "objects must be \"simples\", a preset, or a nonempty list")
    out = []
    for entry in data:
        _require(isinstance(entry, dict) and "module" in entry
                 and "vertex" in entry, "each object needs module and vertex")
        out.append(stalk(entry["module"], entry["vertex"],
                         entry.get("shift", 0)))
    return out


def parse_job(data, name="job", overrides=None):
    """Validate raw job data and build the live objects.

    The algebra is the one every live job with the same spec holds (see
    _build_algebra); the objects and parameters are the job's own.
    """
    _require(isinstance(data, dict), "job must be a JSON object")
    known = {"name", "field", "quiver", "relations", "nilpotency_bound",
             "objects", "window", "budget", "length", "arity_cap",
             "generation_budget", "policy"}
    for key in data:
        _require(key in known, f"unknown job field {key!r}")
    _require("field" in data, "job.field is missing")
    _require("quiver" in data, "job.quiver is missing")
    try:
        field = field_from_spec(data["field"])
    except ValueError as e:
        raise JobError(str(e))
    quiver = _parse_quiver(data["quiver"])
    labels = {a[0] for a in quiver.arrows}
    relations = _parse_relations(data.get("relations"), field, labels)
    bound = data.get("nilpotency_bound")
    if bound is not None:
        _require(_is_int(bound) and bound >= 1,
                 "nilpotency_bound must be a positive integer")
    try:
        A = _build_algebra(field, quiver, relations, bound)
    except AlgebraError as e:
        raise JobError(f"algebra construction failed: {e}")
    objects = _parse_objects(data.get("objects"), A)

    params = {"window": 4, "budget": 64, "length": None,
              "arity_cap": 4, "generation_budget": 48, "policy": "proceed"}
    for key in params:
        if data.get(key) is not None:
            params[key] = data[key]
        if overrides and overrides.get(key) is not None:
            params[key] = overrides[key]
    _require(_is_int(params["window"]) and params["window"] >= 1,
             "window must be a positive integer")
    _require(_is_int(params["budget"]) and params["budget"] >= 0,
             "budget must be a nonnegative integer")
    _require(params["length"] is None or
             (_is_int(params["length"]) and params["length"] >= 1),
             "length must be a positive integer")
    _require(_is_int(params["arity_cap"]) and params["arity_cap"] >= 2,
             "arity_cap must be an integer >= 2")
    _require(_is_int(params["generation_budget"])
             and params["generation_budget"] >= 0,
             "generation_budget must be a nonnegative integer")
    _require(params["policy"] in ("proceed", "strict"),
             "policy must be \"proceed\" or \"strict\"")

    return {
        "name": data.get("name", name),
        "field": field,
        "field_text": "rational" if data["field"] == "rational"
        else f"GF({data['field']['prime']})",
        "algebra": A,
        "objects": objects,
        **params,
    }


# ---- presentation of a finite algebra by quiver and relations ----

def _arrow_label(k):
    letters = "abcdefghijklmnopqrstuvwxyz"
    return letters[k] if k < 26 else f"a{k}"


def _poly_text(field, vec, names):
    parts = []
    for c, name in zip(vec, names):
        if not c:
            continue
        txt = field.to_str(c)
        if txt == "1":
            parts.append(("+", name))
        elif txt == "-1":
            parts.append(("-", name))
        elif txt.startswith("-"):
            parts.append(("-", f"({txt[1:]}){name}"))
        else:
            parts.append(("+", f"({txt}){name}"))
    first_sign, first = parts[0]
    out = first if first_sign == "+" else "-" + first
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def algebra_presentation(G):
    """Quiver and admissible relations presenting a basic algebra.

    Arrows lift a basis of rad/rad^2 corner by corner.  Path evaluation
    is truncated at the radical's nilpotency index (every path of that
    length already evaluates to zero, so nothing beyond it carries
    information), and the relations are the kernel vectors, corner by
    corner, that lie outside the kernel's arrow multiples on both sides
    and the relations kept before them: a minimal generating set of the
    ideal.
    """
    f = G.field
    r = len(G.idempotents)
    powers = G.radical_powers()
    layers = [p.nrows for p in powers if p.nrows]
    L = len(layers) + 1  # rad^L = 0

    arrows = []  # (label, i, j, element)
    rad = G.corners(sparse_rows(powers[0]))
    # J^2, which is J itself when J = 0
    rad2 = G.corners(sparse_rows(powers[1])) if len(powers) > 1 else rad
    for i in range(r):
        for j in range(r):
            for row in independent_rows(rad2[i][j], rad[i][j].data):
                arrows.append((_arrow_label(len(arrows)), i, j, row))

    # composable paths of length 2..L, in (length, discovery) order
    paths = []
    frontier = [(k,) for k in range(len(arrows))]
    for _ in range(2, L + 1):
        nxt = []
        for p in frontier:
            for k in range(len(arrows)):
                if arrows[p[-1]][2] == arrows[k][1]:
                    nxt.append(p + (k,))
        paths.extend(nxt)
        frontier = nxt
    pos = {p: n for n, p in enumerate(paths)}

    def evaluate(p):
        acc = arrows[p[0]][3]
        for k in p[1:]:
            acc = G.mult(acc, arrows[k][3])
        return acc

    values = [evaluate(p) for p in paths]

    # the evaluation kernel, corner by corner
    kernel = []
    for i in range(r):
        for j in range(r):
            idxs = [n for n, p in enumerate(paths)
                    if arrows[p[0]][1] == i and arrows[p[-1]][2] == j]
            if not idxs:
                continue
            ev = Mat(f, [list(values[n]) for n in idxs], ncols=G.dim)
            for krow in ev.left_kernel_basis().data:
                vec = [0] * len(paths)
                for t, c in zip(idxs, krow):
                    vec[t] = c
                kernel.append(vec)

    # its arrow multiples on both sides; paths beyond L drop out, as
    # they lie in the ideal those multiples generate
    multiples = []
    for v in kernel:
        for k in range(len(arrows)):
            for side in ("L", "R"):
                w = [0] * len(paths)  # each path n gives its own q
                for n, c in enumerate(v):
                    q = (k,) + paths[n] if side == "L" else paths[n] + (k,)
                    if c and q in pos:
                        w[pos[q]] = c
                if any(w):
                    multiples.append(w)

    # a minimal relation is a kernel vector outside the multiples and
    # the relations kept before it
    gens = []
    for vec in independent_rows(Mat(f, multiples, ncols=len(paths)), kernel):
        inv = f.inv(next(c for c in vec if c))
        gens.append(tuple(f.norm(inv * c) for c in vec))

    # sanity: evaluation is onto, so its kernel fixes the dimension
    if r + len(arrows) + len(paths) - len(kernel) != G.dim:
        raise AlgebraError("presentation bookkeeping lost dimensions")

    names = ["*".join(arrows[k][0] for k in p) for p in paths]
    return {
        "dim": G.dim,
        "cartan": G.cartan_matrix(),
        "vertices": r,
        "arrows": [(lab, i + 1, j + 1) for lab, i, j, _ in arrows],
        "relations": [_poly_text(f, g, names) for g in gens],
        "radical_layers": layers,
    }


# ---- the pipeline ----

def _smc_stage(job):
    rep = validate_simple_minded(job["objects"],
                                 cone_budget=job["generation_budget"])
    return {
        "members": rep["count"]["status"],
        "objects": rep["count"]["objects"],
        "vertices": rep["count"]["vertices"],
        "cond1": rep["cond1"]["status"],
        "cond1_failures": rep["cond1"]["failures"],
        "cond2": rep["cond2"]["status"],
        "cond2_failures": rep["cond2"]["failures"],
        "cond3": rep["cond3"]["status"],
        "class_matrix": rep["cond3"]["class_matrix"],
        "cones_used": rep["cond3"].get("cones_used"),
        "is_smc": rep["is_smc"],
    }


def run_pipeline(job, upto="ainf"):
    """Run the stages through `upto` and return a report dict.

    The report is JSON-clean (no live objects) and carries the exit
    status the caller should use.  The stages fill the memo of the
    algebra (and of its opposite) with summand sums, hom bases and the
    members' resolutions; it is kept for the next job on the algebra
    and goes with the algebra once no job holds it.
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    report = {
        "version": __version__,
        "job": job["name"],
        "field": job["field_text"],
        "algebra": {
            "vertices": job["algebra"].quiver.n,
            "arrows": len(job["algebra"].quiver.arrows),
            "dim": job["algebra"].dim,
        },
        "objects": [X.describe() for X in job["objects"]],
        "params": {k: job[k] for k in
                   ("window", "budget", "length", "arity_cap", "policy")},
        "timings": {},
        "exit_code": EXIT_OK,
    }

    t0 = perf_counter()
    smc = _smc_stage(job)
    report["timings"]["validate"] = perf_counter() - t0
    report["smc"] = smc
    if not smc["is_smc"]:
        report["stopped"] = "the collection axioms failed"
        report["exit_code"] = EXIT_FAIL
        return report
    if smc["cond3"] == "PASS_NECESSARY" and job["policy"] == "strict":
        report["stopped"] = ("generation is only necessary-verified and "
                             "the policy is strict")
        report["exit_code"] = EXIT_INCONCLUSIVE
        return report
    if upto == "validate":
        return report

    t0 = perf_counter()
    res = check_tilting(job["objects"], window=job["window"],
                        budget=job["budget"], depth=job["length"])
    report["timings"]["construct"] = perf_counter() - t0
    ver = res["verification"]
    report["construction"] = {
        "runs": [{"name": f"T{i + 1}",
                  "complex": r.complex.describe(),
                  "status": r.status,
                  "cones": r.cones,
                  "certified": bool(r.certified_exact)}
                 for i, r in enumerate(res["runs"])],
        "orthogonality": ver["status"],
        "failures": ver["failures"],
        "unchecked": len(ver["unchecked"]),
    }
    if upto == "rickard":
        if ver["status"] == "failed":
            report["exit_code"] = EXIT_FAIL
        elif (ver["status"] == "windowed"
              or any(r.status != "terminated" for r in res["runs"])):
            report["exit_code"] = EXIT_INCONCLUSIVE
        return report

    verdict = res["verdict"]
    report["verdict"] = {
        "tilting": verdict,
        "reason": res["verdict_reason"],
        "self_maps": dict(res["end_homology"]),
        "unchecked_degrees": list(res["end_unchecked"]),
        "witness": res["witness"],
        "nu_stable": res["nu_stable"],
    }
    report["exit_code"] = {
        "TILTING": EXIT_OK,
        "NOT_TILTING": EXIT_FAIL,
        "INCONCLUSIVE": EXIT_INCONCLUSIVE,
        "INTERNAL_INVARIANT_VIOLATION": EXIT_FAIL,
    }[verdict]
    if upto == "tilt":
        return report

    t0 = perf_counter()
    if not res["certified"]:
        report["gamma"] = {"status": "skipped: the construction is not "
                                     "certified end to end"}
    elif res["gamma"] is None:
        report["gamma"] = {"status": f"error: {res['gamma_error']}"}
        report["exit_code"] = EXIT_FAIL
    else:
        pres = algebra_presentation(res["gamma"])
        pres["status"] = "computed"
        report["gamma"] = pres
    report["timings"]["gamma"] = perf_counter() - t0
    if upto == "gamma":
        return report

    t0 = perf_counter()
    report["ainf"] = _ainf_stage(job, res)
    report["timings"]["ainf"] = perf_counter() - t0
    if report["ainf"].get("crosscheck") == "FAIL":
        report["exit_code"] = EXIT_FAIL
    return report


def _ainf_stage(job, res):
    out = {}
    try:
        X = collection_ext_model(job["objects"],
                                 arity_cap=job["arity_cap"])
    except AInfError as e:
        out["status"] = f"skipped: {e}"
        return out
    dw = job["window"] + 1
    model = {
        "status": "computed",
        "model_dims": dict(X.dims),
        "op_arities": sorted(X.ops),
        "positive": X.positive,
    }
    db = dual_bar_dg(X, degree_window=dw, tensor_cap=2 * dw)
    model["dual_bar_dims"] = dict(db.algebra.dims)
    model["dual_bar_h"] = dict(db.h_dims)
    model["certified_degrees"] = list(db.certified)
    model["truncated"] = db.truncated
    out.update(model)

    if not res["certified"]:
        out["crosscheck"] = "SKIPPED"
        out["crosscheck_note"] = "the construction is not certified"
        return out
    try:
        pieces = [minimize(nu_inverse_complex(r.complex)).complex
                  for r in res["runs"]]
        _, gh = gamma_tilde(pieces)
    except (AlgebraError, DgError) as e:
        out["crosscheck"] = "FAIL"
        out["crosscheck_note"] = f"endomorphism side failed: {e}"
        return out
    out["gamma_side_h"] = {m: d for m, d in sorted(gh.items())}
    bad = [m for m in db.certified if db.h_dims[m] != gh.get(m, 0)]
    if bad:
        out["crosscheck"] = "FAIL"
        out["crosscheck_note"] = (f"degrees {bad} disagree between the "
                                  "dual bar and the endomorphism side")
    elif not db.certified:
        out["crosscheck"] = "SKIPPED"
        out["crosscheck_note"] = "no certified degrees at this window"
    else:
        out["crosscheck"] = f"PASS ({len(db.certified)} degrees)"
    return out


# ---- text rendering ----

def _dict_text(d):
    inner = ", ".join(f"{k}: {d[k]}" for k in sorted(d))
    return "{" + inner + "}"


def _mat_text(rows):
    return "[" + ", ".join(
        "[" + ", ".join(str(c) for c in row) + "]" for row in rows) + "]"


def _failure_text(fl, letter):
    """X<source> -> <letter><target>, the shift when the failure has one,
    and the dim found."""
    shift = f" shift {fl['shift']}" if "shift" in fl else ""
    return (f"X{fl['source'] + 1}->{letter}{fl['target'] + 1}{shift} "
            f"dim {fl['dim']}")


def render_report(report):
    lines = [
        f"tiltlab {report['version']}",
        f"job: {report['job']}",
        f"field: {report['field']}",
        "algebra: vertices={vertices} arrows={arrows} dim={dim}".format(
            **report["algebra"]),
        "objects: " + "; ".join(
            f"X{i + 1} = {d}" for i, d in enumerate(report["objects"])),
        "parameters: window={window} budget={budget} length={length} "
        "arity_cap={arity_cap} policy={policy}".format(
            **{**report["params"],
               "length": report["params"]["length"] or "auto"}),
    ]

    smc = report["smc"]
    lines += [
        "",
        "== COLLECTION ==",
        f"members: {smc['members']} ({smc['objects']} objects over "
        f"{smc['vertices']} vertices)",
        "no_negative_maps: " + smc["cond1"] + "".join(
            f" [{_failure_text(fl, 'X')}]" for fl in smc["cond1_failures"]),
        "orthonormal_endomorphisms: " + smc["cond2"] + "".join(
            f" [{_failure_text(fl, 'X')} expected {fl['expected']}]"
            for fl in smc["cond2_failures"]),
        f"generation: {smc['cond3']}"
        + (f" (cones_used={smc['cones_used']})"
           if smc["cones_used"] is not None else ""),
        f"class_matrix: {_mat_text(smc['class_matrix'])}",
    ]
    if "stopped" in report:
        lines += ["", f"stopped: {report['stopped']}"]
        return "\n".join(lines) + "\n"
    if "construction" not in report:
        return "\n".join(lines) + "\n"

    con = report["construction"]
    lines += ["", "== CONSTRUCTION =="]
    for run in con["runs"]:
        lines.append(
            f"{run['name']}: {run['complex']}  status={run['status']} "
            f"cones={run['cones']} "
            f"certified={'yes' if run['certified'] else 'no'}")
    lines.append(
        f"orthogonality: {con['orthogonality']} "
        f"(failures={len(con['failures'])}, unchecked={con['unchecked']})")
    for fl in con["failures"]:
        lines.append(f"  failure: {_failure_text(fl, 'T')} "
                     f"(expected {fl['expected']})")
    if "verdict" not in report:
        return "\n".join(lines) + "\n"

    ver = report["verdict"]
    wit = ver["witness"]
    lines += [
        "",
        "== VERDICT ==",
        f"tilting: {ver['tilting']}",
        f"reason: {ver['reason']}",
        f"self_maps: {_dict_text(ver['self_maps'])}",
        "unchecked_degrees: " + (str(ver["unchecked_degrees"])
                                 if ver["unchecked_degrees"] else "none"),
        "witness: " + (f"degree {wit[0]} dim {wit[1]}" if wit else "none"),
        "nu_stable: " + {True: "yes", False: "no",
                         None: "not_used"}[ver["nu_stable"]],
    ]
    if "gamma" not in report:
        return "\n".join(lines) + "\n"

    g = report["gamma"]
    lines += ["", "== GAMMA =="]
    lines.append(f"status: {g['status']}")
    if g["status"] == "computed":
        arrows = "; ".join(f"{lab}: {i}->{j}" for lab, i, j in g["arrows"])
        lines += [
            f"dim: {g['dim']}",
            f"cartan: {_mat_text(g['cartan'])}",
            f"quiver: vertices={g['vertices']} "
            f"arrows=[{arrows}]",
            "relations: " + (", ".join(g["relations"])
                             if g["relations"] else "none"),
            f"radical_layers: {g['radical_layers']}",
        ]
    if "ainf" not in report:
        return "\n".join(lines) + "\n"

    a = report["ainf"]
    lines += ["", "== AINF =="]
    lines.append(f"status: {a['status']}")
    if a["status"] == "computed":
        lines += [
            f"model_dims: {_dict_text(a['model_dims'])}",
            f"op_arities: {a['op_arities']}",
            f"positive: {'yes' if a['positive'] else 'no'}",
            f"dual_bar_dims: {_dict_text(a['dual_bar_dims'])}",
            f"dual_bar_h: {_dict_text(a['dual_bar_h'])}",
            f"certified_degrees: {a['certified_degrees']}",
            f"truncated: {'yes' if a['truncated'] else 'no'}",
        ]
        if "gamma_side_h" in a:
            lines.append(f"gamma_side_h: {_dict_text(a['gamma_side_h'])}")
        lines.append(f"crosscheck: {a['crosscheck']}")
        if "crosscheck_note" in a:
            lines.append(f"crosscheck_note: {a['crosscheck_note']}")
    return "\n".join(lines) + "\n"


# ---- the dg reduction report ----

def dg_reduce_report(job):
    """Minimal forms of the objects' projective resolutions, plus the
    dimensions of their endomorphism dg algebra and its truncation.

    Built from the same job format.  Each resolution P is minimized by
    certified Gaussian elimination (complexes.minimize); the summand P_v
    in degree n prints as the piece (-n, v), and cancelled counts the
    cancelled summand pairs.
    """
    lines = [f"tiltlab {__version__}",
             f"job: {job['name']}",
             "mode: dg-reduce"]
    exit_code = EXIT_OK
    resolved = []
    for i, X in enumerate(job["objects"]):
        bottom = None
        if job["length"] is not None:
            bottom = X.min_deg() - job["length"]
        res = resolve_complex(X, bottom=bottom)
        if not res.exact:
            lines.append(f"X{i + 1}: resolution did not terminate "
                         "(enlarge --length)")
            exit_code = EXIT_INCONCLUSIVE
            continue
        P = res.complex
        mini = minimize(P).complex
        pieces = [(-n, s.vertex) for n in mini.support()
                  for s in mini.parts[n]]
        total = sum(len(P.parts[n]) for n in P.support())
        shape = " ".join(f"({s},{v + 1})" for s, v in pieces)
        lines.append(f"X{i + 1}: pieces [{shape or 'zero'}] "
                     f"cancelled={(total - len(pieces)) // 2} "
                     f"from {total} summands")
        resolved.append(P)
    if exit_code == EXIT_OK and resolved:
        E = endomorphism_dg_algebra(resolved)
        T = truncate_algebra(E)
        lines.append(f"endomorphism_dims: {_dict_text(dict(E.dims))}")
        lines.append(f"endomorphism_h: {_dict_text(E.cohomology_dims())}")
        lines.append(f"truncated_dims: {_dict_text(dict(T.dims))}")
    return "\n".join(lines) + "\n", exit_code


# ---- the corpus ----

def _corpus_one(path, expected_dir):
    name = path.name[:-len(".json")]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        job = parse_job(data, name=name)
        text = render_report(run_pipeline(job, upto="ainf"))
    except (JobError, json.JSONDecodeError, UnicodeDecodeError) as e:
        return name, f"ERROR ({e})", False
    exp = expected_dir / (name + ".txt")
    if not exp.is_file():
        return name, "MISSING expected file", False
    want = exp.read_text()
    if text == want:
        return name, "OK", True
    got_lines = text.splitlines()
    want_lines = want.splitlines()
    at = next((k for k, (a, b)
               in enumerate(zip(got_lines, want_lines)) if a != b),
              min(len(got_lines), len(want_lines)))
    return name, f"MISMATCH at line {at + 1}", False


def run_corpus(corpus_dir):
    """Run every bundled job and compare reports byte for byte."""
    base = Path(corpus_dir)
    jobs = sorted(p for p in base.glob("*.json"))
    if not jobs:
        raise EmptyCorpus(f"no job files in {base}")
    expected = base / "expected"
    lines = [f"corpus: {len(jobs)} jobs"]
    ok = True
    for path in jobs:
        name, status, good = _corpus_one(path, expected)
        lines.append(f"{name}: {status}")
        ok = ok and good
    lines.append("result: " + ("OK" if ok else "MISMATCH"))
    return "\n".join(lines) + "\n", EXIT_OK if ok else EXIT_FAIL

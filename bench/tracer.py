"""Spans and counters at tiltlab's module boundaries, recorded from outside.

The tracer wraps public functions, methods and constructors of the
package after it is imported.  A function is replaced at every module
namespace that binds it (``minimize`` is bound in complexes, derived,
tilting and reporting), so no caller slips past the wrapper.  Each call
becomes a span (job id, name, parent, start, end) kept in memory; a
span's self time is its duration minus the spans nested directly in it.

The two linalg kernels run hundreds of thousands of times per pass, so
they leave no span of their own: their calls and seconds are added to
the span that encloses them (and still subtracted from its self time).
"""

import json
import sys
from time import perf_counter

# (module, attribute) of every traced boundary; "Class" wraps the
# constructor, "Class.method" the method.
BOUNDARIES = (
    ("linalg", "Mat.mul"),
    ("linalg", "Mat.rref"),
    ("algebra", "Algebra"),
    ("algebra", "FiniteAlgebra"),
    ("algebra", "hom_basis"),
    ("complexes", "HomComplex"),
    ("complexes", "cone"),
    ("complexes", "minimize"),
    ("derived", "resolve_complex"),
    ("derived", "coresolve_complex"),
    ("derived", "derived_hom"),
    ("derived", "validate_simple_minded"),
    ("tilting", "build_dual_objects"),
    ("tilting", "check_tilting"),
    ("tilting", "end_homology"),
    ("tilting", "h0_endomorphism_algebra"),
    ("tilting", "nu_inverse_complex"),
    ("dg", "DgAlgebra.validate"),
    ("dg", "endomorphism_dg_algebra"),
    ("dg", "gamma_tilde"),
    ("ainfinity", "collection_ext_model"),
    ("ainfinity", "kadeishvili_minimal_model"),
    ("ainfinity", "dual_bar_dg"),
    ("reporting", "parse_job"),
    ("reporting", "run_pipeline"),
    ("reporting", "render_report"),
    ("reporting", "algebra_presentation"),
)
NAMES = tuple(f"{m}.{a}" for m, a in BOUNDARIES)


def _mul_counts(args):
    """Multiply-adds of a product from its shapes, and how many pair two
    nonzero factors (the ones the kernel does not skip)."""
    a, b = args[0], args[1]
    z = a.field.zero()
    col_nnz = [0] * a.ncols
    for row in a.data:
        for t, x in enumerate(row):
            if x != z:
                col_nnz[t] += 1
    useful = sum(c * sum(1 for x in row if x != z)
                 for c, row in zip(col_nnz, b.data))
    return {"madds": a.nrows * a.ncols * b.ncols, "useful_madds": useful}


def _rref_counts(args):
    return {"cells": args[0].nrows * args[0].ncols}


def _coresolve_counts(result):
    return {"terms": len(result.complex.parts)}


def _end_dg_counts(result):
    return {"basis_dim": sum(result.dims.values())}


def _dual_objects_counts(result):
    return {"cones": sum(r.cones for r in result["runs"]),
            "rounds": sum(r.rounds for r in result["runs"])}


# boundary -> counters taken from the arguments, before the clock starts
PRE_COUNTS = {"linalg.Mat.mul": _mul_counts, "linalg.Mat.rref": _rref_counts}
LEAVES = frozenset(PRE_COUNTS)
# boundary -> counters taken from the result
POST_COUNTS = {
    "derived.coresolve_complex": _coresolve_counts,
    "dg.endomorphism_dg_algebra": _end_dg_counts,
    "tilting.build_dual_objects": _dual_objects_counts,
}


class Tracer:
    """Install with `install()` once tiltlab is imported; set `job`
    before each job so its spans share one id."""

    def __init__(self):
        self.job = None
        # (id, parent id, job, name, start, end, leaf calls, leaf seconds)
        self.spans = []
        self.stats = {n: {"calls": 0, "self_s": 0.0} for n in NAMES}
        self.sites = {n: [] for n in NAMES}
        # open spans: [id, start, child seconds, leaf calls, leaf seconds]
        self._stack = []

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "tiltlab" or name.startswith("tiltlab.")}
        for (mod_name, attr), name in zip(BOUNDARIES, NAMES):
            owner = mods["tiltlab." + mod_name]
            cls_name, _, meth = attr.partition(".")
            if meth:
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                self.sites[name].append(f"{mod_name}.{cls_name}")
            elif isinstance(getattr(owner, attr), type):
                cls = getattr(owner, attr)
                cls.__init__ = self._wrap(name, cls.__init__)
                self.sites[name].append(f"{mod_name}.{attr}")
            else:
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig)
                for mname, mod in sorted(mods.items()):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self.sites[name].append(f"{mname[8:]}.{key}")
        return self

    def _wrap(self, name, fn):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        post = POST_COUNTS.get(name)
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [span_id, perf_counter(), 0.0, 0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                stats["calls"] += 1
                stats["self_s"] += dur - frame[2]
                spans[span_id] = (span_id, parent, self.job, name, frame[1],
                                  end, frame[3], frame[4])
            if post is not None:
                for key, val in post(result).items():
                    stats[key] = stats.get(key, 0) + val
            return result

        return traced

    def _wrap_leaf(self, name, fn):
        pre = PRE_COUNTS[name]
        stats = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            for key, val in pre(args).items():
                stats[key] = stats.get(key, 0) + val
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stats["calls"] += 1
                stats["self_s"] += dur
                if stack:
                    frame = stack[-1]
                    frame[2] += dur
                    frame[3] += 1
                    frame[4] += dur

        return traced

    def write_jsonl(self, path):
        keys = ("id", "parent", "job", "name", "start", "end",
                "linalg_calls", "linalg_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

"""tiltlab benchmark: three workloads, end-to-end metrics, layer trace.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all    # the three, one after another

Run from the repository root.  Each pass runs every job of the workload
once, serially, in a fresh interpreter (`worker.py`), and passes run one
at a time, so nothing computed in one pass helps another.

The times are CPU seconds stated at a reference speed.  A pass is one
thread that computes without waiting, so its CPU seconds are the
seconds a user with a core to spare waits for it.  The host is shared
and its speed changes by a fifth or more from second to second and
between runs, so the runner, its passes and a gauge thread (`calib.py`)
that repeats a fixed pure-Python work unit without tiltlab are kept on
one core, where the gauge and the pass take turns.  Each span's CPU
seconds are multiplied by the gauge's units per CPU second during that
span over calib.REFERENCE_RATE.  A change to tiltlab moves the result
as much as it moves the CPU seconds; those, and the elapsed times
(which the sharing doubles), are printed too.

--trace 0 prints the end-to-end metrics (`wall_s`, `job_s.p50`,
`job_s.p90`, `setup_s`, `peak_rss_mb`).  --trace 1 runs one untraced
pass, then traced passes (`tracer.py`), and prints the per-layer
metrics: calls, self time and counters of each module boundary, the
stage timers copied from the reports, and the tracing overhead; the
spans of the last traced pass go to bench/out/ as JSONL.

Every job of every pass is checked (`oracles.py`).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
fail_ratio is failed / attempted; it is printed but is not a metric,
since it is 0 on a correct program.

Left out on purpose: the A_n size ladders (rad^2 = 0 A5 takes 63 s,
hereditary A7 158 s, too long for a run), `run_corpus` (its 4-thread
pool exceeds the 2 cores the numbers were taken on) and `dg-reduce`
(its cost, endomorphism_dg_algebra plus DgAlgebra.validate, is already
measured by the corpus workload).
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from oracles import Checker, outcome_counts
from tracer import NAMES
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
OUT_DIR = BENCH / "out"
MIN_PASSES = 3        # timed passes per untraced run
MIN_TRACED = 2        # traced passes, so that counts can be compared
SETUP_ONLY_RUNS = 15  # extra interpreter starts behind setup_s
PASS_TIMEOUT = 150    # seconds; a pass never comes close

# Which end-to-end metric each boundary should move, and where.  The
# boundaries listed in ZERO_CALLS must record no call on that workload;
# every other boundary must record at least one.
LAYER_TARGETS = {
    "dg.DgAlgebra.validate": "wall_s, job_s.p90 on corpus",
    "dg.endomorphism_dg_algebra": "wall_s, job_s.p90 on corpus",
    "dg.gamma_tilde": "wall_s, job_s.p90 on corpus",
    "ainfinity.collection_ext_model": "wall_s, job_s.p90 on corpus",
    "ainfinity.kadeishvili_minimal_model": "wall_s, job_s.p90 on corpus",
    "ainfinity.dual_bar_dg": "wall_s, job_s.p90 on corpus",
    "tilting.nu_inverse_complex": "wall_s, job_s.p90 on corpus",
    "derived.validate_simple_minded": "wall_s on hereditary-family",
    "derived.derived_hom": "wall_s on hereditary-family",
    "derived.resolve_complex": "wall_s on hereditary-family",
    "algebra.hom_basis": "wall_s on hereditary-family",
    "derived.coresolve_complex": "wall_s, job_s.p90 on selfinjective-gfp",
    "complexes.minimize": "wall_s, job_s.p90 on selfinjective-gfp",
    "complexes.cone": "wall_s, job_s.p90 on selfinjective-gfp",
    "complexes.HomComplex": "wall_s, job_s.p90 on selfinjective-gfp",
    "tilting.build_dual_objects": "wall_s, job_s.p90 on selfinjective-gfp",
    "tilting.check_tilting": "wall_s on every workload",
    "tilting.end_homology": "wall_s on hereditary-family, corpus",
    "tilting.h0_endomorphism_algebra": "wall_s on hereditary-family, corpus",
    "algebra.FiniteAlgebra": "wall_s on hereditary-family, corpus",
    "reporting.algebra_presentation": "wall_s on hereditary-family, corpus",
    "linalg.Mat.mul": "wall_s on every workload (QQ: not selfinjective-gfp)",
    "linalg.Mat.rref": "wall_s on every workload (QQ: not selfinjective-gfp)",
    "reporting.parse_job": "setup_s on every workload",
    "algebra.Algebra": "setup_s on every workload",
    "reporting.run_pipeline": "job root",
    "reporting.render_report": "job root",
}
_NO_DG = {"dg.DgAlgebra.validate", "dg.endomorphism_dg_algebra",
          "dg.gamma_tilde", "ainfinity.kadeishvili_minimal_model",
          "ainfinity.dual_bar_dg", "tilting.nu_inverse_complex"}
ZERO_CALLS = {
    "corpus": set(),
    "hereditary-family": _NO_DG | {"ainfinity.collection_ext_model"},
    "selfinjective-gfp": _NO_DG,
}
STAGES = ("validate", "construct", "gamma", "ainf")


class WorkerError(RuntimeError):
    pass


def run_worker(jobs, upto, setup_only=False, trace=False, spans=None):
    """One fresh interpreter; returns its result with setup_s added."""
    request = json.dumps({"jobs": jobs, "upto": upto,
                          "setup_only": setup_only, "trace": trace,
                          "spans": str(spans) if spans else None})
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(request, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"a pass ran longer than {PASS_TIMEOUT} s")
    finally:
        if proc.poll() is None:  # timed out or interrupted: no orphan
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{err}")
    result = json.loads(out.splitlines()[-1])
    result["started"] = started
    result["setup_s"] = result["ready"] - started
    return result


class Run:
    """The passes of one benchmark run and what their checks found."""

    def __init__(self, workload, seed):
        gen, self.upto = WORKLOADS[workload]
        self.workload = workload
        self.jobs = gen(seed)
        self.checker = Checker(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, **kw):
        result = run_worker(self.jobs, self.upto, **kw)
        bad_jobs = 0
        for res in result["jobs"]:
            found = self.checker.check_job(res["name"], res)
            bad_jobs += bool(found)
            self.problems += found
        self.attempted += len(result["jobs"])
        self.failed += bad_jobs
        result["counts"] = outcome_counts(result["jobs"])
        self.problems += self.checker.check_counts(result["counts"])
        return result


def timed_passes(run, seconds, minimum=MIN_PASSES, **kw):
    """Passes until the next one would end after `seconds`."""
    start = time.monotonic()
    passes = []
    while True:
        passes.append(run.one_pass(**kw))
        done = len(passes)
        if done >= minimum and \
                (time.monotonic() - start) * (done + 1) / done > seconds:
            return passes


def _time_metrics(passes, key):
    """wall_s, job_s.p50, job_s.p90 and the job samples of `passes`.

    `key` names the time to read from each pass and job.  wall_s is the
    median pass; job_s.p50 the median over passes of each pass's median
    job, which stays inside one pass where the pooled median would fall
    in the gap between two jobs of different sizes; job_s.p90 the 90th
    percentile of every job sample.
    """
    samples = [j[key] for p in passes for j in p["jobs"]]
    return {
        "wall_s": statistics.median(p[key] for p in passes),
        "job_s.p50": statistics.median(
            statistics.median(j[key] for j in p["jobs"]) for p in passes),
        "job_s.p90": statistics.quantiles(samples, n=10)[8],
    }, samples


def end_to_end(run, seconds):
    start = time.monotonic()
    calib.pin_to_one_core()
    gauge = calib.Gauge()
    try:
        setups = [run_worker(run.jobs, run.upto, setup_only=True)
                  for _ in range(SETUP_ONLY_RUNS)]
        passes = timed_passes(run, seconds - (time.monotonic() - start))
    finally:
        gauge.stop()
    setup_s = [r["cpu_ready"] * gauge.scale(r["started"], r["ready"])
               for r in setups + passes]
    for p in passes:
        for span in [p] + p["jobs"]:
            span["ref_s"] = span["cpu_s"] * gauge.scale(span["start"],
                                                         span["end"])
    times, samples = _time_metrics(passes, "ref_s")
    metrics = {name: (value, "s") for name, value in times.items()}
    metrics["setup_s"] = (statistics.median(setup_s), "s")
    metrics["peak_rss_mb"] = (statistics.median(
        p["peak_rss_kb"] for p in passes) / 1024, "MB")
    cpu, _ = _time_metrics(passes, "cpu_s")
    wall, _ = _time_metrics(passes, "wall_s")
    beyond = sum(s > times["job_s.p90"] for s in samples)
    notes = [f"passes: {len(passes)} (wall_s " + " ".join(
                 f"{p['ref_s']:.3f}" for p in passes) + ")",
             "CPU seconds, not scaled: " + ", ".join(
                 f"{name} {value:.4f} s" for name, value in cpu.items()),
             "elapsed, sharing the core with the gauge: " + ", ".join(
                 f"{name} {value:.4f} s" for name, value in wall.items()),
             f"job samples: {len(samples)} ({beyond} above p90)",
             f"setup samples: {len(setup_s)}"]
    return metrics, passes, notes


def _counts(layers):
    return {name: {k: v for k, v in stats.items() if k != "self_s"}
            for name, stats in layers.items()}


def layer_metrics(run, seconds, spans_path):
    plain = run.one_pass()
    traced = timed_passes(run, seconds - plain["wall_s"] - plain["setup_s"],
                          minimum=MIN_TRACED, trace=True, spans=spans_path)
    first = traced[0]["layers"]
    if any(_counts(p["layers"]) != _counts(first) for p in traced[1:]):
        run.problems.append("call counts differ between traced passes")
    for p in traced:
        if [j.get("text") for j in p["jobs"]] != \
                [j.get("text") for j in plain["jobs"]]:
            run.problems.append("tracing changed a report")

    metrics = {}
    for name in NAMES:
        calls = first[name]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (statistics.median(
            p["layers"][name]["self_s"] for p in traced), "s")
        predicted_zero = name in ZERO_CALLS[run.workload]
        if predicted_zero != (calls == 0):
            run.problems.append(
                f"{name}: {calls} calls, predicted "
                f"{'none' if predicted_zero else 'at least one'}")
    mul = first["linalg.Mat.mul"]
    dual = first["tilting.build_dual_objects"]
    metrics.update({
        "linalg.Mat.mul.madds": (mul.get("madds", 0), "count"),
        "linalg.Mat.mul.nonzero_frac": (
            mul["useful_madds"] / mul["madds"] if mul.get("madds") else 0.0,
            "ratio"),
        "linalg.Mat.rref.cells": (first["linalg.Mat.rref"].get("cells", 0),
                                  "count"),
        "derived.coresolve_complex.terms": (
            first["derived.coresolve_complex"].get("terms", 0), "count"),
        "dg.endomorphism_dg_algebra.basis_dim": (
            first["dg.endomorphism_dg_algebra"].get("basis_dim", 0), "count"),
        "tilting.cones": (dual.get("cones", 0), "count"),
        "tilting.rounds": (dual.get("rounds", 0), "count"),
        "derived.generation.cones_used": (sum(
            j.get("cones_used") or 0 for j in plain["jobs"]), "count"),
    })
    for stage in STAGES:
        metrics[f"reporting.stage.{stage}_s"] = (sum(
            j.get("timings", {}).get(stage, 0.0) for j in plain["jobs"]), "s")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead"] = (traced_wall / plain["wall_s"], "ratio")
    notes = [f"traced passes: {len(traced)}",
             f"untraced wall_s: {plain['wall_s']:.4f} s, traced wall_s: "
             f"{traced_wall:.4f} s",
             f"spans: {spans_path.relative_to(ROOT)}"]
    for name in NAMES:
        notes.append(f"  {name}: sites {', '.join(traced[0]['sites'][name])}"
                     f"; moves {LAYER_TARGETS[name]}")
    return metrics, [plain] + traced, notes


def bench_workload(workload, args):
    """Runs one workload, prints its report; returns (run, metrics)."""
    run = Run(workload, args.seed)
    stem = f"{workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, passes, notes = layer_metrics(
            run, args.seconds, OUT_DIR / f"spans-{stem}.jsonl")
    else:
        metrics, passes, notes = end_to_end(run, args.seconds)
    (OUT_DIR / f"passes-{stem}.json").write_text(json.dumps([
        {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "ref_s": p.get("ref_s"),
         "setup_s": p["setup_s"], "peak_rss_kb": p["peak_rss_kb"],
         "counts": p["counts"],
         "job_s": {j["name"]: [j["wall_s"], j["cpu_s"], j.get("ref_s")]
                   for j in p["jobs"]}}
        for p in passes], indent=1))

    print(f"workload: {workload}  seed: {args.seed}  trace: {args.trace}")
    for note in notes:
        print(note)
    print("outcomes per pass: " + json.dumps(passes[0]["counts"]))
    print(f"fail_ratio: {run.failed / run.attempted:.4f} ratio "
          f"({run.failed} of {run.attempted} jobs)")
    for problem in dict.fromkeys(run.problems):
        print(f"PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    return run, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another "
                         "(metric names then carry a '<workload>/' prefix)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running worker is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "tiltlab" / "__init__.py").is_file():
        print(f"no tiltlab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            run, found = bench_workload(workload, args)
            correct = correct and not run.problems
            attempted += run.attempted
            failed += run.failed
            prefix = f"{workload}/" if args.workload == "all" else ""
            metrics.update({prefix + name: {"value": value, "unit": unit}
                            for name, (value, unit) in found.items()})
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

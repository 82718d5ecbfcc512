"""One pass of a workload, in a fresh interpreter.

Reads a request from standard input:

    {"jobs": [[name, job dict], ...], "upto": stage,
     "setup_only": bool, "trace": bool, "spans": path or null}

builds every job with `parse_job`, then runs each through `run_pipeline`
and `render_report`, and writes one JSON line to standard output: the
monotonic clock reading and the process's CPU time when set-up ended,
the pass's and each job's start and end on the monotonic clock, wall
time and CPU time, each job's report and text, and the peak resident
memory.  Nothing survives the process, so no pass can reuse another
pass's work.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _summary(report):
    """The report fields the benchmark's checks read."""
    gamma = report.get("gamma", {})
    return {
        "exit_code": report["exit_code"],
        "stopped": report.get("stopped"),
        "verdict": report.get("verdict", {}).get("tilting"),
        "orthogonality": report.get("construction", {}).get("orthogonality"),
        "certified": [r["certified"] for r in
                      report.get("construction", {}).get("runs", [])],
        "gamma_status": gamma.get("status"),
        "gamma_dim": gamma.get("dim"),
        "gamma_cartan": gamma.get("cartan"),
        "algebra_dim": report["algebra"]["dim"],
        "ainf_status": report.get("ainf", {}).get("status"),
        "cones_used": report.get("smc", {}).get("cones_used"),
        "timings": report["timings"],
    }


def main():
    request = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    from tiltlab import reporting

    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer().install()

    parsed = []
    for name, data in request["jobs"]:
        if tracer:
            tracer.job = name
        parsed.append((name, reporting.parse_job(data, name=name)))
    ready, cpu_ready = time.monotonic(), time.process_time()
    if request["setup_only"]:
        print(json.dumps({"ready": ready, "cpu_ready": cpu_ready}))
        return

    results = []
    start, cpu_start = time.monotonic(), time.process_time()
    for name, job in parsed:
        if tracer:
            tracer.job = name
        t0, c0 = time.monotonic(), time.process_time()
        try:
            report = reporting.run_pipeline(job, upto=request["upto"])
            text = reporting.render_report(report)
            found = {"text": text, **_summary(report)}
        except Exception as exc:  # a raising job is counted, not fatal
            found = {"error": f"{type(exc).__name__}: {exc}"}
        t1, c1 = time.monotonic(), time.process_time()
        results.append({"name": name, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                        "start": t0, "end": t1, **found})
    end, cpu_end = time.monotonic(), time.process_time()

    out = {"ready": ready, "cpu_ready": cpu_ready, "start": start,
           "end": end, "wall_s": end - start, "cpu_s": cpu_end - cpu_start,
           "jobs": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        out["layers"] = tracer.stats
        out["sites"] = tracer.sites
        if request["spans"]:
            tracer.write_jsonl(request["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()

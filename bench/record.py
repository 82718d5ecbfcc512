"""Record the default seed's outcomes and reports as the expectations.

    python3 bench/record.py

Writes bench/expected/outcomes.json (every job's outcome, exit code and
dim Gamma, and each workload's outcome mix) and the text reports of the
generated workloads under bench/expected/<workload>/.  Run it only when
a change to the program is meant to change these, and review the diff.
"""

import json

from oracles import EXPECTED, OUTCOMES_FILE, outcome, outcome_counts
from run import run_worker
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    recorded = {}
    for workload, (gen, upto) in WORKLOADS.items():
        result = run_worker(gen(DEFAULT_SEED), upto)
        jobs = result["jobs"]
        errors = [j for j in jobs if "error" in j]
        if errors:
            raise SystemExit(f"{workload}: {errors[0]['name']} raised "
                             f"{errors[0]['error']}")
        recorded[workload] = {
            "counts": outcome_counts(jobs),
            "jobs": {j["name"]: {"outcome": outcome(j),
                                 "exit_code": j["exit_code"],
                                 "gamma_dim": j["gamma_dim"]}
                     for j in jobs},
        }
        if workload != "corpus":  # the corpus ships its own reports
            folder = EXPECTED / workload
            folder.mkdir(parents=True, exist_ok=True)
            for j in jobs:
                (folder / f"{j['name']}.txt").write_text(j["text"])
    OUTCOMES_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                             + "\n")


if __name__ == "__main__":
    main()

"""Metamorphic checks: results that a change of input cannot move.

The corpus relations have integer coefficients, so over GF(p) every
rank, and with it every dimension and verdict, is the one over QQ for
all but finitely many primes p.  The Mersenne prime 2^31 - 1 is not one
of the exceptions for any bundled job.
"""

import json

import pytest

from tiltlab.cli import default_corpus_dir
from tiltlab.reporting import parse_job, run_pipeline

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

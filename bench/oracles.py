"""Correctness checks for every job a pass runs.

Two kinds of check:

* Oracles that do not depend on the implementation: closed-form
  dimensions and Cartan matrices, which shifted-simple collections pass
  the axioms on a hereditary algebra, and invariance of every report
  under vertex relabelling (hereditary) or change of prime (GF(p)).
* Regression checks against what this code produced for the default
  seed (`record.py` writes them): each job's outcome and, for the
  default seed, its text report byte for byte.
"""

import json
from pathlib import Path

from workloads import (A5_EDGES, A5_SHIFTS, CORPUS_DIR, DEFAULT_SEED,
                       a5_relabelling, shift_code, workload_prime)

EXPECTED = Path(__file__).resolve().parent / "expected"
OUTCOMES_FILE = EXPECTED / "outcomes.json"
OK_EXITS = (0, 2, 3, 4)
AXIOMS_FAILED = "the collection axioms failed"
OUTCOMES = ("TILTING", "NOT_TILTING", "axioms", "INCONCLUSIVE",
            "INTERNAL_INVARIANT_VIOLATION", "ainf_skipped")


def outcome(res):
    if res["stopped"] == AXIOMS_FAILED:
        return "axioms"
    return res["verdict"] or f"stopped: {res['stopped']}"


def ainf_skipped(res):
    return (res["ainf_status"] or "").startswith("skipped")


def outcome_counts(results):
    counts = dict.fromkeys(OUTCOMES, 0)
    for res in results:
        if "error" in res:
            continue
        key = outcome(res)
        counts[key] = counts.get(key, 0) + 1
        counts["ainf_skipped"] += ainf_skipped(res)
    return counts


def path_cartan(n, arrows, max_len=None):
    """C[i][j] = number of paths i -> j (0-based) shorter than max_len.

    With paths read left to right, e_i A e_j is spanned by the paths
    from i to j, the convention of `Algebra.cartan_matrix`.
    """
    cartan = [[int(i == j) for j in range(n)] for i in range(n)]
    layer = [row[:] for row in cartan]
    length = 1
    while any(any(row) for row in layer) and (max_len is None
                                              or length < max_len):
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            for s, t in arrows:
                nxt[i][t] += layer[i][s]
        layer = nxt
        for i in range(n):
            for j in range(n):
                cartan[i][j] += layer[i][j]
        length += 1
    return cartan


def passes_axioms(shifts):
    """A collection of simples S_v placed in degree shifts[v] (0 or -1) on
    a hereditary algebra is simple-minded iff no Ext^1(S_i, S_j) != 0
    has S_i in degree 0 and S_j in degree -1: that extension becomes a
    nonzero degree-0 map between distinct members.  Ext^1(S_i, S_j) is
    nonzero exactly for the arrows i -> j (the direction the bundled
    a2_negative job, S2 in degree 0 and S1 in degree -1 over 1 -> 2,
    fixes as simple-minded)."""
    return not any(shifts[i - 1] == 0 and shifts[j - 1] == -1
                   for i, j in A5_EDGES)


class Checker:
    """Every check for one workload and seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        ref = json.loads(OUTCOMES_FILE.read_text())[workload]
        self.ref_jobs = ref["jobs"]
        self.ref_counts = ref["counts"]
        self.texts = {}
        if workload == "corpus":
            self.texts = {p.stem: p.read_text()
                          for p in (CORPUS_DIR / "expected").glob("*.txt")}
        elif workload == "selfinjective-gfp" or seed == DEFAULT_SEED:
            self.texts = {p.stem: p.read_text()
                          for p in (EXPECTED / workload).glob("*.txt")}
        if workload == "hereditary-family":
            sigma, _ = a5_relabelling(seed)
            arrows = [(sigma[i] - 1, sigma[j] - 1) for i, j in A5_EDGES]
            self.cartan = path_cartan(5, arrows)
            self.canonical = {shift_code(s): s for s in A5_SHIFTS}
        if workload == "selfinjective-gfp":
            self.prime = workload_prime(seed)

    def check_job(self, name, res):
        """Problems with one job's result, as a list of strings."""
        if "error" in res:
            return [f"{name}: raised {res['error']}"]
        problems = []
        if res["exit_code"] not in OK_EXITS:
            problems.append(f"exit code {res['exit_code']}")
        ref = self.ref_jobs.get(name)
        got = {"outcome": outcome(res), "exit_code": res["exit_code"],
               "gamma_dim": res["gamma_dim"]}
        if ref is None:
            problems.append("no recorded outcome")
        elif got != ref:
            problems.append(f"outcome {got} differs from recorded {ref}")
        problems += getattr(self, "_" + self.workload.replace("-", "_"))(
            name, res)
        return [f"{name}: {p}" for p in problems]

    def check_counts(self, counts):
        if counts != self.ref_counts:
            return [f"outcome mix {counts} differs from the recorded "
                    f"{self.ref_counts}"]
        return []

    def _text(self, name, text):
        want = self.texts.get(name)
        if want is None:
            return ["no stored report"]
        if text != want:
            return ["report differs from the stored one"]
        return []

    def _corpus(self, name, res):
        return self._text(name, res["text"])

    def _hereditary_family(self, name, res):
        problems = []
        shifts = self.canonical[name]
        dim = sum(map(sum, self.cartan))
        if res["algebra_dim"] != dim:
            problems.append(f"dim A {res['algebra_dim']}, expected {dim}")
        if outcome(res) in ("INCONCLUSIVE", "INTERNAL_INVARIANT_VIOLATION"):
            problems.append(f"{outcome(res)} on a finite global dimension "
                            "algebra")
        if (outcome(res) == "axioms") == passes_axioms(shifts):
            problems.append("axiom verdict contradicts the Ext^1 rule")
        if len(set(shifts)) == 1:
            # a common shift of the simples: Gamma is A itself
            if (res["verdict"], res["gamma_dim"], res["gamma_cartan"]) != (
                    "TILTING", dim, self.cartan):
                problems.append("the shifted simples did not give Gamma = A")
        if self.seed == DEFAULT_SEED:
            problems += self._text(name, res["text"])
        return problems

    def _selfinjective_gfp(self, name, res):
        problems = []
        n, r = map(int, name.split("_")[1:])
        cartan = path_cartan(n, [(i, (i + 1) % n) for i in range(n)], r)
        if (res["verdict"], res["orthogonality"]) != ("TILTING", "certified") \
                or not all(res["certified"]):
            problems.append("not TILTING and certified everywhere")
        if (res["algebra_dim"], res["gamma_dim"]) != (n * r, n * r):
            problems.append(f"dim A, dim Gamma = {res['algebra_dim']}, "
                            f"{res['gamma_dim']}, expected {n * r}")
        if res["gamma_cartan"] != cartan:
            problems.append("Cartan(Gamma) differs from Cartan(A)")
        if not ainf_skipped(res):
            problems.append("the ainf stage was not skipped")
        # the prime may change the field line and nothing else
        got = res["text"].split("\n")
        if got[2] != f"field: GF({self.prime})":
            problems.append(f"field line {got[2]!r}")
        want = self.texts.get(name, "").split("\n")
        if got[:2] + got[3:] != want[:2] + want[3:]:
            problems.append("report differs from the stored one beyond "
                            "the field line")
        return problems

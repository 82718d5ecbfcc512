"""Job generators for the three benchmark workloads.

Every generator is a pure function of the seed and returns a list of
(name, job dict) pairs in the JSON job format that `parse_job` reads.
Nothing here imports tiltlab: the program only ever sees the dicts.
"""

import itertools
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "tiltlab" / "corpus"

DEFAULT_SEED = 0

# Hereditary A5 with orientation 1 -> 2 -> 3 <- 4 <- 5 (a source at each
# end, the sink in the middle, paths of length two on both sides).
A5_EDGES = ((1, 2), (2, 3), (4, 3), (5, 4))
A5_SHIFTS = tuple(itertools.product((0, -1), repeat=5))

# Cyclic Nakayama algebras kk Z_n / rad^r: (vertices n, Loewy length r).
NAKAYAMA = ((2, 3), (3, 3), (4, 2), (4, 3), (5, 2), (3, 4))
# Below 2**15 a product of two residues stays below 2**30, one machine
# digit of a Python int, so every seed's prime costs the same.
PRIME_RANGE = (1 << 14, 1 << 15)


def corpus_jobs(seed):
    """The bundled corpus; the seed does not change it."""
    del seed
    return [(p.stem, json.loads(p.read_text()))
            for p in sorted(CORPUS_DIR.glob("*.json"))]


def a5_relabelling(seed):
    """Vertex permutation (canonical -> file label) and arrow order."""
    rng = random.Random(f"hereditary-family:{seed}")
    perm = list(range(1, 6))
    rng.shuffle(perm)
    order = list(range(len(A5_EDGES)))
    rng.shuffle(order)
    return {c + 1: perm[c] for c in range(5)}, order


def shift_code(shifts):
    """Job name of a shift vector in canonical vertex order."""
    return "c" + "".join("1" if s else "0" for s in shifts)


def hereditary_jobs(seed):
    """All 32 collections of simples shifted by 0 or -1 on one A5.

    The seed relabels the vertices and reorders the arrows, so the
    program sees a different input for every seed, while the jobs stay
    isomorphic to the canonical ones: each job's verdict, dim Gamma and
    the outcome mix of the workload are fixed by the canonical shift
    vector alone.
    """
    sigma, order = a5_relabelling(seed)
    arrows = [{"from": sigma[A5_EDGES[k][0]], "to": sigma[A5_EDGES[k][1]],
               "label": "abcd"[k]} for k in order]
    jobs = []
    for shifts in A5_SHIFTS:
        relabelled = [0] * 5
        for c, s in enumerate(shifts):
            relabelled[sigma[c + 1] - 1] = s
        jobs.append((shift_code(shifts), {
            "field": "rational",
            "quiver": {"vertices": 5, "arrows": arrows},
            "objects": {"preset": "shifted", "shifts": relabelled},
        }))
    return jobs


def _primes(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\0\0"
    for d in range(2, int(hi ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, hi, d)))
    return [p for p in range(lo, hi) if sieve[p]]


def workload_prime(seed):
    """Word-size prime for the self-injective workload."""
    return random.Random(f"selfinjective-gfp:{seed}").choice(
        _primes(*PRIME_RANGE))


def nakayama_job(n, r, p):
    arrows = [{"from": i + 1, "to": (i + 1) % n + 1, "label": f"x{i + 1}"}
              for i in range(n)]
    relations = [{"terms": [{"coeff": 1, "path": [
        f"x{(i + k) % n + 1}" for k in range(r)]}]} for i in range(n)]
    return {"field": {"prime": p},
            "quiver": {"vertices": n, "arrows": arrows},
            "relations": relations,
            "objects": "simples"}


def selfinjective_jobs(seed):
    p = workload_prime(seed)
    return [(f"nakayama_{n}_{r}", nakayama_job(n, r, p))
            for n, r in NAKAYAMA]


# workload -> (generator, pipeline stage the jobs run through)
WORKLOADS = {
    "corpus": (corpus_jobs, "ainf"),
    "hereditary-family": (hereditary_jobs, "gamma"),
    "selfinjective-gfp": (selfinjective_jobs, "ainf"),
}

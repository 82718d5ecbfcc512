"""Every producer keeps its scalars in the one form that linalg fixes.

Over GF(p) a scalar is an int in [0, p); over QQ it is an int when it
is integral and a Fraction with denominator other than 1 otherwise.  The
producers compute with Python's operators and norm a value once before
they keep it.  A missed norm leaves an unreduced residue, a negative
one, or an integral Fraction behind, which the value-keyed memos and
every truthiness test would misread (an unreduced p is truthy).  The
check is test_linalg's _scalars, applied over QQ, GF(5) and GF(31847)
to random sparse products and to every stage of two pipeline runs: Γ,
hom bases, the endomorphism dg algebra, its minimal model and dual bar
algebra, and the coefficients of Γ's relations.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from tiltlab import reporting
from tiltlab.ainfinity import dual_bar_dg, kadeishvili_minimal_model
from tiltlab.algebra import hom_basis, sparse_product
from tiltlab.derived import member_resolution
from tiltlab.dg import endomorphism_dg_algebra
from tiltlab.linalg import QQ, PrimeField
from tiltlab.tilting import check_tilting

from test_linalg import _scalars

FIELDS = [QQ, PrimeField(5), PrimeField(31847)]
FIELD_IDS = ["Q", "GF5", "GF31847"]
# canonical nonzero values of both kinds over QQ; their residues over GF(p)
SEEDS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))


def _spec(f):
    return "rational" if f == QQ else {"prime": f.p}


def _table_values(structure):
    return [c for block in structure.values() for coords in block.values()
            for _, c in coords]


def _mat_values(m):
    return [x for row in m.data for x in row]


def _square(f):
    """The commutative square up to a scalar: a*b = (1/2) c*d."""
    return {"field": _spec(f), "quiver": {"vertices": 4, "arrows": [
        {"from": 1, "to": 2, "label": "a"}, {"from": 2, "to": 4, "label": "b"},
        {"from": 1, "to": 3, "label": "c"}, {"from": 3, "to": 4, "label": "d"}]},
        "relations": [{"terms": [{"coeff": 1, "path": ["a", "b"]},
                                 {"coeff": "-1/2", "path": ["c", "d"]}]}],
        "objects": "simples"}


def _a4_cubed(f):
    """Linear A4 with its one path of length 3 zero: m_3 is nonzero."""
    return {"field": _spec(f), "quiver": {"vertices": 4, "arrows": [
        {"from": v, "to": v + 1, "label": f"x{v}"} for v in range(1, 4)]},
        "relations": [{"terms": [{"path": ["x1", "x2", "x3"]}]}],
        "objects": "simples"}


JOBS = {"square": _square, "a4_cubed": _a4_cubed}


@lru_cache(maxsize=None)
def _run(fi, name):
    """The job's algebra and objects, Γ, its relations' coefficient
    vectors, the endomorphism dg algebra of the members' resolutions, its
    minimal model and that model's dual bar algebra."""
    f = FIELDS[fi]
    job = reporting.parse_job(JOBS[name](f), name=name)
    res = check_tilting(job["objects"], window=job["window"],
                        budget=job["budget"], depth=job["length"])
    G = res["gamma"]
    relations = []
    poly_text = reporting._poly_text

    def record(field, vec, names):
        relations.append(vec)
        return poly_text(field, vec, names)

    reporting._poly_text = record
    try:
        reporting.algebra_presentation(G)
    finally:
        reporting._poly_text = poly_text
    E = endomorphism_dg_algebra(
        [member_resolution(X, "P").complex for X in job["objects"]])
    M = kadeishvili_minimal_model(E)
    return job, G, relations, E, M, dual_bar_dg(M).algebra


CASES = [(fi, name) for fi in range(len(FIELDS)) for name in JOBS]
CASE_IDS = [f"{FIELD_IDS[fi]}-{name}" for fi, name in CASES]


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_sparse_products_are_normed(f):
    rng = random.Random(7)
    values = [f.of(s) for s in SEEDS]
    for _ in range(40):
        n = rng.randint(1, 5)
        block = {}
        for a in range(n):
            for b in range(n):
                ks = rng.sample(range(n), rng.randint(0, n))
                if ks:
                    block[(a, b)] = tuple((k, rng.choice(values)) for k in ks)
        x, y = ([(a, rng.choice(values)) for a in range(n)
                 if rng.random() < 0.7] for _ in range(2))
        out = sparse_product(f, {(0, 0): block}, 0, x, 0, y)
        assert all(_scalars(f, out.values()))


@pytest.mark.parametrize("fi, name", CASES, ids=CASE_IDS)
def test_gamma_is_normed(fi, name):
    f = FIELDS[fi]
    _, G, relations, _, _, _ = _run(fi, name)
    _scalars(f, _table_values(G.products))
    _scalars(f, G.unit)
    n = len(G.idempotents)
    for e in G.idempotents:
        _scalars(f, e)
    for i in range(n):
        for j in range(n):
            _scalars(f, _mat_values(G.peirce_basis(i, j)))
    _scalars(f, _mat_values(G.radical_rows()))
    for power in G.radical_powers():
        _scalars(f, _mat_values(power))
    assert relations
    for vec in relations:
        _scalars(f, vec)


@pytest.mark.parametrize("fi, name", CASES, ids=CASE_IDS)
def test_hom_bases_are_normed(fi, name):
    f = FIELDS[fi]
    A = _run(fi, name)[0]["algebra"]
    mods = [m(v) for v in range(A.quiver.n)
            for m in (A.projective, A.injective, A.simple)]
    for M in mods:
        for N in mods:
            for F in hom_basis(M, N):
                for blk in F.blocks.values():
                    _scalars(f, _mat_values(blk))


@pytest.mark.parametrize("fi, name", CASES, ids=CASE_IDS)
def test_dg_and_ainfinity_structures_are_normed(fi, name):
    f = FIELDS[fi]
    _, _, _, E, M, D = _run(fi, name)
    for dga in (E, D):
        for m in dga.d.values():
            _scalars(f, _mat_values(m))
        _scalars(f, _table_values(dga.mult))
        _scalars(f, dga.unit)
    if name == "a4_cubed":
        assert 3 in M.ops
    for table in M.ops.values():
        _scalars(f, _table_values(table))
    for e in M.idempotents:
        _scalars(f, e)

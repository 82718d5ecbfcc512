"""Gamma from its Peirce blocks, against references that skip nothing.

h0_endomorphism_algebra forms a class product only when the first
factor arrives at a companion the second leaves from; the reference
here forms all dim^2 products.  FiniteAlgebra reads its corners from
the sparse products e_i b_k and b_k e_i, formed once; the reference
multiplies every row by both idempotents.  tilting._b_table reads every
shift of a member from one hom complex; the reference builds one per
shift with h0_chain_maps.  The random finite algebras are incidence algebras of
posets tensored with k[x]/x^r, written in a random basis, so their
Cartan matrix and radical are known in closed form and their basis is
usually not adapted to the idempotents.
"""

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab import algebra, tilting
from tiltlab.algebra import (AlgebraError, FiniteAlgebra, map_slice,
                             sparse_rows, summand_offsets)
from tiltlab.complexes import (ChainMap, Complex, HomComplex, cone,
                               direct_sum_complexes, h0_chain_maps,
                               zero_complex)
from tiltlab.derived import injective_form
from tiltlab.linalg import Mat, PrimeField, QQ
from tiltlab.reporting import parse_job, run_pipeline
from tiltlab.tilting import check_tilting, end_homology, h0_endomorphism_algebra

from test_derived import STALK_ALGEBRAS, random_stalk
from test_direct_sums import (ALGEBRAS, FIELDS, random_chain_map,
                              random_complex)

CORPUS = sorted((Path(__file__).resolve().parents[1] / "src" / "tiltlab"
                 / "corpus").glob("*.json"))
GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)


# ---- the class product table ----

def all_products(hc):
    """The degree-zero block of the class table, from every product."""
    T = hc.X
    reps, H = hc.chain_classes(0)
    maps = [ChainMap(T, T, rep) for rep in reps]
    block = {}
    for a, fa in enumerate(maps):
        for b, fb in enumerate(maps):
            prod = H.coords(hc.coords(0, fb.then(fa).comps))
            coords = tuple((k, c) for k, c in enumerate(prod) if c)
            if coords:
                block[(a, b)] = coords
    return block


def companion_support(rep, summands):
    """(i, j) for each companion block of rep, T_i -> T_j, that is not
    zero, read with map_slice."""
    A = summands[0].algebra
    pairs = set()
    for n, m in rep.items():
        mods = [S.module(n) for S in summands]
        offs, _ = summand_offsets(A, mods)
        for i, Mi in enumerate(mods):
            for j, Mj in enumerate(mods):
                if not map_slice(m, Mi, offs[i], Mj, offs[j]).is_zero():
                    pairs.add((i, j))
    return pairs


def composable_pairs(hc, summands):
    """(a, b) where a target companion of class b is a source companion
    of class a, so that b then a can be nonzero."""
    reps, _ = hc.chain_classes(0)
    sup = [companion_support(rep, summands) for rep in reps]
    return {(a, b) for a in range(len(reps)) for b in range(len(reps))
            if {j for _, j in sup[b]} & {i for i, _ in sup[a]}}


def corpus_gamma(path):
    job = parse_job(json.loads(path.read_text()), name=path.stem)
    res = check_tilting(job["objects"], window=job["window"],
                        budget=job["budget"], depth=job["length"])
    _, _, hc = end_homology(res["total"])
    return res, hc


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_class_table_matches_all_products_on_the_corpus(path):
    res, hc = corpus_gamma(path)
    assert res["gamma"].products[(0, 0)] == all_products(hc)


def exact(X):
    """X without its cut markers: the stored complex, as a complex."""
    return Complex(X.algebra, X.parts, X.blocks)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_class_table_matches_all_products_on_direct_sums(
        seed, field_key, algebra_key):
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    summands = []
    for _ in range(rng.randint(1, 3)):
        X = exact(random_complex(A, rng))
        if rng.random() < 0.4:
            X = cone(random_chain_map(X, exact(random_complex(A, rng)), rng))
        summands.append(X)
    T = direct_sum_complexes(summands)
    hc = HomComplex(T, T, degrees=(-1, 1))
    runs = [SimpleNamespace(complex=S) for S in summands]
    gamma, info = h0_endomorphism_algebra(runs, hc)
    assert gamma.products[(0, 0)] == all_products(hc)
    assert info["dim"] == gamma.dim == len(hc.chain_classes(0)[0])


def test_a_zero_total_object_gives_the_zero_algebra():
    # degree 0 of End(0) is empty: no classes, and chain_classes gives no H
    T = zero_complex(ALGEBRAS["A2"](QQ))
    hc = HomComplex(T, T)
    assert hc.chain_classes(0) == ([], None)
    gamma, info = h0_endomorphism_algebra([SimpleNamespace(complex=T)], hc)
    assert (gamma.dim, info["idempotents"], gamma.cartan_matrix()) == \
        (0, [()], [[0]])


def test_class_products_are_formed_once_per_composable_pair(monkeypatch):
    calls = []
    then = ChainMap.then

    def counted(self, other):
        calls.append(1)
        return then(self, other)

    skipped = 0
    for path in CORPUS:
        res, hc = corpus_gamma(path)
        runs = res["runs"]
        want = composable_pairs(hc, [r.complex for r in runs])
        calls.clear()
        monkeypatch.setattr(ChainMap, "then", counted)
        gamma, info = h0_endomorphism_algebra(runs, hc)
        monkeypatch.setattr(ChainMap, "then", then)
        assert len(calls) == len(want)
        assert set(gamma.products[(0, 0)]) <= want
        skipped += info["dim"] ** 2 - len(want)
    assert skipped > 0


# ---- corners ----

def incidence_algebra(f, rng, adapted=False):
    """(algebra, Cartan matrix, radical rows): the incidence algebra of a
    random poset on 1-3 points (1-2 when r > 2, which keeps the dimension
    at most 15) tensored with k[x]/x^r, r = 1 to 5, in a
    basis b'_k = sum_l P[k][l] b_l for a random invertible P, or for a
    random permutation matrix P when adapted is set.  The old
    basis is (i, j, s) for i <= j and s < r, with (i, j, s) (j, k, t) =
    (i, k, s + t) and zero otherwise; its radical is spanned by the
    (i, j, s) with i != j or s > 0."""
    r = rng.randint(1, 5)
    n = rng.randint(1, 3 if r <= 2 else 2)
    less = {(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.6}
    for _ in range(n):  # transitive closure
        less |= {(i, k) for i, j in less for j2, k in less if j == j2}
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i == j or (i, j) in less]
    old = [(i, j, s) for i, j in pairs for s in range(r)]
    pos = {b: k for k, b in enumerate(old)}
    d = len(old)

    def old_mult(x, y):
        out = [f.zero()] * d
        for a, ca in enumerate(x):
            for b, cb in enumerate(y):
                (i, j, s), (j2, k, t) = old[a], old[b]
                if ca and cb and j == j2 and s + t < r:
                    c = pos[(i, k, s + t)]
                    out[c] = f.norm(out[c] + ca * cb)
        return out

    coef = [0, 0, 1, -1, 2]
    L = Mat(f, [[f.one() if i == j else f.of(rng.choice(coef)) if i > j
                 else f.zero() for j in range(d)] for i in range(d)])
    U = Mat(f, [[f.one() if i == j else f.of(rng.choice(coef)) if i < j
                 else f.zero() for j in range(d)] for i in range(d)])
    P = L.mul(U) if not adapted and rng.random() < 0.8 \
        else Mat.identity(f, d)
    P = Mat(f, rng.sample(P.data, d))
    Pinv = P.inverse()

    def new(x):
        return Mat(f, [list(x)]).mul(Pinv).data[0]

    def basis_old(k):
        return [f.one() if c == k else f.zero() for c in range(d)]

    block = {}
    for a in range(d):
        for b in range(d):
            prod = new(old_mult(P.data[a], P.data[b]))
            coords = tuple((k, c) for k, c in enumerate(prod) if c)
            if coords:
                block[(a, b)] = coords
    unit = new([f.one() if i == j and s == 0 else f.zero()
                for i, j, s in old])
    idems = [new(basis_old(pos[(i, i, 0)])) for i in range(n)]
    G = FiniteAlgebra(f, {(0, 0): block}, unit, idems)
    cartan = [[r if i == j or (i, j) in less else 0 for j in range(n)]
              for i in range(n)]
    rad = [new(basis_old(k)) for k, (i, j, s) in enumerate(old)
           if i != j or s > 0]
    radical = Mat(f, rad, ncols=d).row_space_basis()
    return G, cartan, radical


def double_mult_corner(G, i, j, rows):
    ei, ej = G.idempotents[i], G.idempotents[j]
    return Mat(G.field, [G.mult(G.mult(ei, tuple(x)), ej) for x in rows.data],
               ncols=G.dim).row_space_basis()


def upper_triangular(f):
    """2x2 upper triangular matrices in the basis (unit, e11, e12), which
    no idempotent e11, e22 = unit - e11 keeps on both sides."""
    u, e1, a, z = ((f.one(), f.zero(), f.zero()), (f.zero(), f.one(), f.zero()),
                   (f.zero(), f.zero(), f.one()), (f.zero(),) * 3)
    table = [[u, e1, a], [e1, e1, a], [a, z, z]]
    block = {(x, y): tuple((k, c) for k, c in enumerate(v) if c)
             for x, row in enumerate(table) for y, v in enumerate(row) if any(v)}
    e2 = (f.one(), f.of(-1), f.zero())
    return FiniteAlgebra(f, {(0, 0): block}, u, [e1, e2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from([QQ, GF2, GF3, GF5]))
def test_corners_match_the_double_product_reference(seed, f):
    rng = random.Random(seed)
    G, cartan, radical = incidence_algebra(f, rng)
    n = len(G.idempotents)
    rows = Mat(f, [[f.of(rng.randrange(-2, 3)) for _ in range(G.dim)]
                   for _ in range(rng.randint(0, G.dim))], ncols=G.dim)
    grid = G.corners(sparse_rows(rows))
    for i in range(n):
        for j in range(n):
            assert grid[i][j] == double_mult_corner(G, i, j, rows)
            eye = Mat.identity(f, G.dim)
            assert G.peirce_basis(i, j) == double_mult_corner(G, i, j, eye)
    assert G.cartan_matrix() == cartan
    assert G.radical_rows() == radical


@pytest.mark.parametrize("f", [QQ, GF5], ids=["Q", "GF5"])
def test_corners_of_a_basis_that_is_not_adapted(f):
    G = upper_triangular(f)
    eye = Mat.identity(f, 3)
    rng = random.Random(11)
    rows = Mat(f, [[f.of(rng.choice([-2, -1, 1, 2])) for _ in range(3)]
                   for _ in range(2)])
    hit = 0
    grid = G.corners(sparse_rows(rows))
    for i in range(2):
        for j in range(2):
            assert G.peirce_basis(i, j) == double_mult_corner(G, i, j, eye)
            got = grid[i][j]
            assert got == double_mult_corner(G, i, j, rows)
            hit += got.nrows > 0
    assert hit > 1  # the random rows span several corners
    assert G.cartan_matrix() == [[1, 1], [0, 1]]
    assert G.radical_rows() == Mat(f, [[0, 0, 1]])


def test_corners_make_no_mult_call(monkeypatch):
    G, cartan, _ = incidence_algebra(QQ, random.Random(3))

    def refuse(*_):
        raise AssertionError("corner read through FiniteAlgebra.mult")

    monkeypatch.setattr(FiniteAlgebra, "mult", refuse)
    G.corners(sparse_rows(Mat.identity(QQ, G.dim)))
    assert G.cartan_matrix() == cartan


def test_corners_cost_two_sparse_products_per_idempotent_and_element(
        monkeypatch):
    # on an adapted basis every b_k lies in one corner, so every corner is
    # read off the tables e_i b_k and b_k e_i, with no dim x dim matrix
    f = QQ
    G, cartan, radical = incidence_algebra(f, random.Random(3), adapted=True)
    n, eye = len(G.idempotents), Mat.identity(f, G.dim)
    assert n > 1
    want = {(i, j): (double_mult_corner(G, i, j, eye),
                     double_mult_corner(G, i, j, radical))
            for i in range(n) for j in range(n)}
    products, sizes = [], []
    product, identity = algebra.sparse_product, Mat.identity

    def counted_product(*args):
        products.append(1)
        return product(*args)

    def counted_identity(field, size):
        sizes.append(size)
        return identity(field, size)

    monkeypatch.setattr(algebra, "sparse_product", counted_product)
    monkeypatch.setattr(Mat, "identity", staticmethod(counted_identity))
    rad = G.corners(sparse_rows(radical))
    got = {(i, j): (G.peirce_basis(i, j), rad[i][j])
           for i in range(n) for j in range(n)}
    assert G.cartan_matrix() == cartan
    assert got == want
    assert len(products) <= 2 * n * G.dim
    assert G.dim not in sizes


def gamma_presentation(n, field, rad2):
    """The gamma stage's presentation for the simples of linear A_n,
    1 -> 2 -> ... -> n, hereditary or with every path of length 2 zero."""
    arrows = [{"from": v, "to": v + 1, "label": f"a{v}"} for v in range(1, n)]
    relations = [{"terms": [{"coeff": 1, "path": [f"a{v}", f"a{v + 1}"]}]}
                 for v in range(1, n - 1)] if rad2 else []
    rep = run_pipeline(parse_job({
        "field": field, "quiver": {"vertices": n, "arrows": arrows},
        "relations": relations, "objects": "simples"}), upto="gamma")
    assert rep["verdict"]["tilting"] == "TILTING"
    assert rep["gamma"]["status"] == "computed"
    return rep["gamma"]


@pytest.mark.parametrize("field", ["rational", {"prime": 31847}],
                         ids=["Q", "GF31847"])
@pytest.mark.parametrize("n", [6, 9])
def test_gamma_of_the_simples_of_linear_a_n_in_closed_form(n, field):
    # Gamma = End(S_1 + ... + S_n) over D^b: the linear quiver again, with
    # the algebra's own relations, whatever the corners are read with
    chain = [(v, v + 1) for v in range(1, n)]
    g = gamma_presentation(n, field, rad2=False)
    assert g["dim"] == n * (n + 1) // 2
    assert [(i, j) for _, i, j in g["arrows"]] == chain
    assert g["relations"] == []
    assert g["radical_layers"] == [(n - k) * (n - k + 1) // 2
                                   for k in range(1, n)]
    assert g["cartan"] == [[int(i <= j) for j in range(n)] for i in range(n)]
    g = gamma_presentation(n, field, rad2=True)
    assert g["dim"] == 2 * n - 1
    assert [(i, j) for _, i, j in g["arrows"]] == chain
    assert len(g["relations"]) == n - 2
    assert all(r.count("*") == 1 for r in g["relations"])
    assert g["radical_layers"] == [n - 1]
    assert g["cartan"] == [[int(j in (i, i + 1)) for j in range(n)]
                           for i in range(n)]


# ---- one hom complex per member and round ----

def per_shift_b_table(j, shifted, T):
    """_b_table's (table, pieces) for a member that is not a stalk, from
    one h0_chain_maps call per shift."""
    btab, by_shift = {}, {}
    for m, U, _ in shifted:
        maps, hc = h0_chain_maps(U, T)
        if not hc.is_valid_degree(0):
            raise AlgebraError("hom window too shallow")
        if maps:
            btab[(j, m)] = len(maps)
            by_shift[m] = [(U, g) for g in maps]
    return btab, by_shift[max(by_shift)] if by_shift else []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(STALK_ALGEBRAS)))
def test_one_hom_complex_per_member_gives_the_per_shift_tables(seed, key):
    A = STALK_ALGEBRAS[key]()
    rng = random.Random(seed)
    # a two-term member: the cone of a map between stalks in one degree
    Y, Z = random_stalk(A, rng), random_stalk(A, rng)
    Z = Z.shift(min(Z.parts) - min(Y.parts))
    X = cone(random_chain_map(Z, Y, rng))
    window = 3
    m0 = rng.choice([-1, -3])
    tau = X.max_deg() + window + 2 * A.dim + 4
    T = injective_form(direct_sum_complexes([X.shift(m0), random_stalk(A, rng)]),
                       top=tau)
    shifted = [(m, X.shift(m), None) for m in range(-window, 0)]
    want = per_shift_b_table(0, shifted, T)
    btab, pieces = tilting._b_table([(0, X, shifted)], T)
    assert btab == want[0]
    assert [(U, g.source, g.comps) for U, g in pieces] == \
        [(U, g.source, g.comps) for U, g in want[1]]
    # X[m0] is a summand of T, so unless X is acyclic its identity class
    # is found at m0
    assert btab.get((0, m0), 0) >= 1 or not X.homology_dims()

"""Tests for the non-positive dg toolkit.

Expected numbers were computed by hand: small truncations and dual
bases are all traceable on two or three idempotents.  The
endomorphism-algebra checks reuse the cone-iteration engine so the two
pipelines are compared on identical inputs.
"""

import random

import pytest

from tiltlab.algebra import Algebra, Quiver
from tiltlab.complexes import Summand, minimize, stalk_complex
from tiltlab.derived import resolve_complex
from tiltlab.dg import (
    DgAlgebra,
    DgError,
    DgModule,
    dg_from_path_algebra,
    dg_nakayama,
    endomorphism_dg_algebra,
    free_dg_module,
    gamma_tilde,
    hom_cohomology,
    hom_perfect_module,
    materialize,
    strict_perfect,
    truncate,
)
from tiltlab.linalg import Mat, QQ
from tiltlab.tilting import check_tilting, hom_to_element, nu_inverse_complex

A2 = Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])
A3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
D2 = dg_from_path_algebra(A2)
D3 = dg_from_path_algebra(A3)


def q(n):
    return QQ.of(n)


def qmat(rows, ncols=None):
    return Mat(QQ, [[q(x) for x in r] for r in rows], ncols=ncols)


def S(A, v, deg=0):
    return stalk_complex(A, Summand("S", v), deg)


def P(A, v, deg=0):
    return stalk_complex(A, Summand("P", v), deg)


def bindex(A, name):
    return [A.basis_name(i) for i in range(A.dim)].index(name)


def unit_coords(A, name):
    vec = [QQ.zero()] * A.dim
    vec[bindex(A, name)] = QQ.one()
    return tuple(vec)


def perfect_from_projective(D, X):
    """Strictly perfect presentation of a complex of projectives."""
    A = X.algebra
    pieces, pos = [], {}
    for n in X.support():
        for k, s in enumerate(X.parts[n]):
            assert s.kind == "P"
            pos[(n, k)] = len(pieces)
            pieces.append((-n, s.vertex))
    delta = {}
    for n in X.support():
        if n + 1 not in X.parts:
            continue
        for k, s in enumerate(X.parts[n]):
            for l, t in enumerate(X.parts[n + 1]):
                blk = X.block(n, k, l)
                if blk is None or blk.is_zero():
                    continue
                lam = hom_to_element(blk, s.vertex, t.vertex)
                delta[(pos[(n, k)], pos[(n + 1, l)])] = lam
    return strict_perfect(D, pieces, delta)


def res_perfect(D, X):
    return perfect_from_projective(D, resolve_complex(X).complex)


# ---- validation ----

def test_validate_rejects_broken_differential():
    dims = {0: 2, -1: 1, -2: 1}
    d = {-2: qmat([[1]]), -1: qmat([[0, 1]])}
    mult = {
        (0, 0): {(0, 0): ((0, q(1)),), (1, 1): ((1, q(1)),)},
        (0, -1): {(1, 0): ((0, q(1)),)},
        (-1, 0): {(0, 1): ((0, q(1)),)},
        (0, -2): {(1, 0): ((0, q(1)),)},
        (-2, 0): {(0, 1): ((0, q(1)),)},
    }
    with pytest.raises(DgError, match="square"):
        DgAlgebra(QQ, dims, d, mult, unit=(q(1), q(1)),
                  idempotents=[(q(1), q(0)), (q(0), q(1))])


def test_validate_rejects_leibniz_violation():
    # same shape as the contractible pair but d(xi) = e1, which is not
    # compatible with xi sitting in the e2 corner
    dims = {0: 2, -1: 1}
    d = {-1: qmat([[1, 0]])}
    mult = {
        (0, 0): {(0, 0): ((0, q(1)),), (1, 1): ((1, q(1)),)},
        (0, -1): {(1, 0): ((0, q(1)),)},
        (-1, 0): {(0, 1): ((0, q(1)),)},
    }
    with pytest.raises(DgError, match="Leibniz"):
        DgAlgebra(QQ, dims, d, mult, unit=(q(1), q(1)),
                  idempotents=[(q(1), q(0)), (q(0), q(1))])


def test_validate_rejects_positive_degrees_by_default():
    with pytest.raises(DgError, match="positive"):
        DgAlgebra(QQ, {0: 1, 1: 1}, {}, {(0, 0): {(0, 0): ((0, q(1)),)}},
                  unit=(q(1), q(0)), idempotents=[(q(1), q(0))])


def test_validate_rejects_non_orthogonal_idempotents():
    with pytest.raises(DgError, match="idempotent"):
        DgAlgebra(QQ, {0: 1}, {}, {(0, 0): {(0, 0): ((0, q(1)),)}},
                  unit=(q(1),), idempotents=[(q(1),), (q(1),)])


def test_path_algebra_embeds_in_degree_zero():
    assert D2.dims == {0: 3}
    assert D2.cohomology_dims() == {0: 3}
    tags = D2.peirce_tags()
    assert tags[0] == [(0, 0), (1, 1), (0, 1)]


# ---- free modules and strictly perfect presentations ----

def test_free_module_shapes():
    M = free_dg_module(D2, 0)
    assert M.dims == {0: 2}
    assert M.right_tags == {0: [0, 1]}
    Ms = free_dg_module(D2, 1, shift=2)
    assert Ms.dims == {-2: 1}


def test_strict_perfect_rejects_bad_data():
    xa = unit_coords(A2, "a")
    # entry must live in the corner prescribed by its endpoints
    with pytest.raises(DgError, match="corner"):
        strict_perfect(D2, [(1, 0), (0, 0)], {(0, 1): xa})
    # entries must point down the filtration
    with pytest.raises(DgError, match="triangular|order"):
        strict_perfect(D2, [(0, 0), (1, 1)], {(1, 0): xa})
    # same-shift entries would have degree 1 and the algebra stops at 0
    with pytest.raises(DgError, match="degree"):
        strict_perfect(D2, [(0, 1), (0, 0)], {(0, 1): xa})


def test_materialize_matches_projective_resolution():
    for X in (S(A3, 0), S(A3, 1), S(A2, 0)):
        r = resolve_complex(X)
        sp = perfect_from_projective(X.algebra is A3 and D3 or D2,
                                     r.complex)
        M = materialize(sp)
        want = {n: sum(dims) for n, dims in r.complex.homology_dims().items()
                if sum(dims)}
        assert M.cohomology_dims() == want
        for n in r.complex.support():
            assert M.dim_at(n) == sum(r.complex.dims_at(n))


def test_materialize_catches_maurer_cartan_failure():
    # two composable arrows whose composite is not cancelled: d^2 != 0
    xa = unit_coords(A3, "a")
    xb = unit_coords(A3, "b")
    with pytest.raises(DgError, match="square"):
        materialize(strict_perfect(
            D3, [(2, 2), (1, 1), (0, 0)],
            {(0, 1): xb, (1, 2): xa}))


# ---- truncation ----

def test_truncate_splits_cohomology():
    M = materialize(strict_perfect(D2, [(0, 0), (-1, 1)]))
    assert M.cohomology_dims() == {0: 2, 1: 1}
    lo, hi, inc, proj = truncate(M)
    assert lo.cohomology_dims() == {0: 2}
    assert hi.cohomology_dims() == {1: 1}
    assert lo.dim_at(0) + hi.dim_at(1) == M.dim_at(0) + M.dim_at(1)


def test_truncate_around_a_crossing_differential():
    xa = unit_coords(A2, "a")
    M = materialize(strict_perfect(D2, [(0, 1), (-1, 0)], {(0, 1): xa}))
    assert M.dims == {0: 1, 1: 2}
    lo, hi, inc, proj = truncate(M)
    assert not lo.dims
    assert hi.dims == {1: 1}
    assert hi.cohomology_dims() == {1: 1}
    # projection is a chain map: d then project equals project then d
    for k in sorted(M.degrees()):
        pk, pk1 = proj.get(k), proj.get(k + 1)
        dM, dh = M.d.get(k), hi.d.get(k)
        lhs = dM.mul(pk1) if (dM is not None and pk1 is not None) else None
        rhs = pk.mul(dh) if (pk is not None and dh is not None) else None
        if lhs is None and rhs is None:
            continue
        zero = Mat.zeros(QQ, M.dim_at(k), hi.dim_at(k + 1))
        assert (lhs or zero) == (rhs or zero)


def test_truncate_inclusion_is_a_chain_map():
    sp = res_perfect(D3, S(A3, 0))
    M = materialize(sp)
    lo, hi, inc, proj = truncate(M)
    assert not hi.dims
    assert lo.cohomology_dims() == M.cohomology_dims()
    for k in sorted(lo.degrees()):
        ik, ik1 = inc.get(k), inc.get(k + 1)
        dl, dM = lo.d.get(k), M.d.get(k)
        zero = Mat.zeros(QQ, lo.dim_at(k), M.dim_at(k + 1))
        lhs = ik.mul(dM) if (ik is not None and dM is not None) else zero
        rhs = dl.mul(ik1) if (dl is not None and ik1 is not None) else zero
        assert lhs == rhs


# ---- hom complexes into simples ----

def a2_simples():
    # the simple at vertex i: e_i acts by one, every other basis
    # element by zero
    return [DgModule(D2, {0: 1}, {}, {(0, 0): [[
        (q(1),) if b == bindex(A2, f"e{i + 1}") else (q(0),)
        for b in range(A2.dim)]]}, right_tags={0: [i]}) for i in range(2)]


def test_hom_complex_recovers_ext_groups():
    simples = a2_simples()
    sp = res_perfect(D2, S(A2, 0))
    assert hom_cohomology(sp, simples[0]) == {0: 1}
    assert hom_cohomology(sp, simples[1]) == {1: 1}


def test_orthogonality_table_of_frees():
    # Hom(e_i A, S_j) is k in degree zero when i == j and zero otherwise
    simples = a2_simples()
    for i in range(2):
        for j in range(2):
            assert hom_cohomology(strict_perfect(D2, [(0, i)]),
                                  simples[j]) == ({0: 1} if i == j else {})


# ---- the dg Nakayama functor ----

def test_nakayama_of_free_modules():
    for i in range(2):
        Y = dg_nakayama(strict_perfect(D2, [(0, i)]))
        # D(A e_i): dimension is the number of paths into i
        cols = [k for k in range(A2.dim)
                if D2.peirce_tags()[0][k][1] == i]
        assert Y.dims == {0: len(cols)}
        assert Y.cohomology_dims() == {0: len(cols)}


def test_nakayama_of_a_twisted_module():
    sp = res_perfect(D2, S(A2, 0))
    Y = dg_nakayama(sp)
    assert {k: Y.dim_at(k) for k in Y.degrees()} == {0: 1, -1: 2}
    assert Y.cohomology_dims() == {-1: 1}


def test_nakayama_adjunction_dimension_match():
    # dim Hom(M, N)^k == dim Hom(N, nu M)^{-k}, and likewise on
    # cohomology; checked on a free, a shifted free, and a twisted N
    sp = res_perfect(D2, S(A2, 0))
    nu = dg_nakayama(sp)
    xa = unit_coords(A2, "a")
    cases = [
        strict_perfect(D2, [(0, 0)]),
        strict_perfect(D2, [(-2, 1)]),
        strict_perfect(D2, [(1, 1), (0, 0)], {(0, 1): xa}),
    ]
    for spn in cases:
        N = materialize(spn)
        fwd = hom_perfect_module(sp, N)
        bwd = hom_perfect_module(spn, nu)
        assert {k: n for k, n in fwd.dims.items() if n} == \
            {-k: n for k, n in bwd.dims.items() if n}
        assert hom_cohomology(sp, N) == \
            {-k: n for k, n in hom_cohomology(spn, nu).items()}


# ---- endomorphism dg algebras and their hearts ----

def run_pieces(objects, window=2):
    res = check_tilting(objects, window=window)
    assert res["verdict"] == "TILTING"
    return [minimize(nu_inverse_complex(r.complex)).complex
            for r in res["runs"]]


def degree_zero_cartan(G):
    """dim e_s G^0 e_t, counted on the Peirce tags: the Cartan matrix of
    the heart when G is concentrated in degree zero."""
    r = len(G.idempotents)
    c = [[0] * r for _ in range(r)]
    for s, t in G.peirce_tags()[0]:
        c[s][t] += 1
    return c


def test_gamma_tilde_on_the_simple_collection():
    pieces = run_pieces([S(A2, 0), S(A2, 1)])
    G, h = gamma_tilde(pieces)
    assert h == {0: 3}
    assert G.dims == G.cohomology_dims() == {0: 3}
    assert degree_zero_cartan(G) == [[1, 1], [0, 1]]


def test_gamma_tilde_on_the_shifted_collection():
    pieces = run_pieces([P(A2, 0), S(A2, 1, -1)])
    G, h = gamma_tilde(pieces)
    assert h == {0: 3}
    assert G.dims == G.cohomology_dims() == {0: 3}
    assert degree_zero_cartan(G) == [[1, 0], [1, 1]]


def test_gamma_tilde_witness_on_a_non_tilting_family():
    res = check_tilting([S(A2, 1), S(A2, 0, -1)], window=2)
    assert res["verdict"] == "NOT_TILTING"
    pieces = [minimize(nu_inverse_complex(r.complex)).complex
              for r in res["runs"]]
    E = endomorphism_dg_algebra(pieces)
    assert E.cohomology_dims() == {0: 2, -1: 1}
    G, h = gamma_tilde(pieces)
    assert h == {0: 2, -1: 1}
    # the truncation keeps the degree -1 class: the heart is not all of G
    assert G.cohomology_dims() == {0: 2, -1: 1}


def test_gamma_tilde_refuses_positive_cohomology():
    pieces = [P(A2, 1), P(A2, 0, 1)]
    with pytest.raises(DgError, match="positive degree \\(witness degree 1\\)"):
        gamma_tilde(pieces)


def test_endomorphisms_of_the_free_collection():
    G, h = gamma_tilde([P(A2, 0), P(A2, 1)])
    assert h == {0: 3}
    assert G.dims == G.cohomology_dims() == {0: 3}
    assert degree_zero_cartan(G) == [[1, 1], [0, 1]]


# ---- randomized structural checks ----

def random_projective_complex(rng, A):
    parts = []
    for _ in range(rng.randrange(1, 4)):
        v = rng.randrange(A.quiver.n)
        deg = rng.randrange(-2, 2)
        kind = rng.choice(["S", "P"])
        parts.append(stalk_complex(A, Summand(kind, v), deg))
    from tiltlab.complexes import direct_sum_complexes
    X = direct_sum_complexes(parts)
    return resolve_complex(X).complex


def test_random_instances_stay_consistent():
    rng = random.Random(7)
    for _ in range(12):
        A, D = rng.choice([(A2, D2), (A3, D3)])
        P = random_projective_complex(rng, A)
        mini = minimize(P).complex
        assert mini.homology_dims() == P.homology_dims()
        assert minimize(mini).complex == mini
        sp = perfect_from_projective(D, P)
        nu = dg_nakayama(sp)
        nu.validate()
        fwd = hom_cohomology(sp, materialize(strict_perfect(D, [(0, 0)])))
        spn = strict_perfect(D, [(0, 0)])
        bwd = hom_cohomology(spn, nu)
        assert fwd == {-k: n for k, n in bwd.items()}

"""Tests for the non-positive dg toolkit.

Expected numbers were computed by hand: small truncations and dual
bases are all traceable on two or three idempotents.  The
endomorphism-algebra checks reuse the cone-iteration engine so the two
pipelines are compared on identical inputs.
"""

import random

import pytest

from tiltlab import dg
from tiltlab.algebra import Algebra, Quiver, sparse_product
from tiltlab.complexes import Summand, minimize, stalk_complex
from tiltlab.derived import resolve_complex
from tiltlab.dg import (
    DgAlgebra,
    DgError,
    DgModule,
    dg_from_path_algebra,
    dg_nakayama,
    endomorphism_dg_algebra,
    gamma_tilde,
    hom_cohomology,
    hom_perfect_module,
    materialize,
    strict_perfect,
    truncate,
    truncate_algebra,
)
from tiltlab.linalg import Mat, QQ
from tiltlab.tilting import check_tilting, hom_to_element, nu_inverse_complex

from test_structure_constants import ref_d, ref_product, ref_unit_vec

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
    # a dg algebra may have a positive part, and says so; the
    # non-positive theory, strictly perfect modules, refuses it
    # k[x]/(x^2) with x in degree one
    one = ((0, q(1)),)
    A = DgAlgebra(QQ, {0: 1, 1: 1}, {}, {(0, 0): {(0, 0): one},
                                         (0, 1): {(0, 0): one},
                                         (1, 0): {(0, 0): one}},
                  unit=(q(1),), idempotents=[(q(1),)])
    assert not A.nonpositive and D2.nonpositive
    with pytest.raises(DgError, match="positive"):
        strict_perfect(A, [(0, 0)])


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
    M = strict_perfect(D2, [(0, 0)]).module
    assert M.dims == {0: 2}
    # e_1 A = span(e1, a): e1 is fixed by e1 on the right, a by e2
    for m, i in enumerate([0, 1]):
        e = [(b, c) for b, c in enumerate(D2.idempotents[i]) if c]
        assert sparse_product(QQ, M.action, 0, [(m, q(1))], 0, e) == \
            {m: q(1)}
    Ms = strict_perfect(D2, [(2, 1)]).module
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
    return [DgModule(D2, {0: 1}, {}, {(0, 0): {
        (0, bindex(A2, f"e{i + 1}")): ((0, q(1)),)}}) for i in range(2)]


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


def test_nakayama_over_an_algebra_with_a_differential():
    # the truncated endomorphism dg algebra of the resolution of S_1 and
    # P_2 has d != 0 on its degree -1 part; the dual must still satisfy
    # the Leibniz rule, and Hom(M, N) and Hom(N, nu M) stay dual
    G = module_algebra()
    frees = [strict_perfect(G, p) for p in
             ([(0, 0)], [(0, 1)], [(0, 0), (1, 1)], [(-1, 1), (0, 0)])]
    for sp in frees:
        nu = dg_nakayama(sp)
        for spn in frees:
            assert hom_cohomology(sp, materialize(spn)) == \
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


# ---- module checks against the dense triple loop ----

def dense_table(M):
    """M's action as the dense table action[(k, i)][m][a] = coordinate
    vector in degree k + i, over every pair of degrees with a target."""
    A, f = M.algebra, M.field
    out = {}
    for k in M.degrees():
        for i in A.degrees():
            if M.dim_at(k + i):
                block = M.action.get((k, i), {})
                out[(k, i)] = [[ref_dense(f, M.dim_at(k + i),
                                          block.get((m, a), ()))
                                for a in range(A.dim_at(i))]
                               for m in range(M.dim_at(k))]
    return out


def ref_dense(f, n, coords):
    vec = [f.zero()] * n
    for k, c in coords:
        vec[k] = c
    return tuple(vec)


def ref_module_failure(A, dims, d, action):
    """The first law a module breaks, by dense loops over every basis
    element x: the unit on x, then for every algebra basis element a the
    Leibniz rule on (x, a) and associativity on (x, a, b) for every b.
    The brute-force reference for DgModule's pruned checks.  d holds row
    lists and action is a dense table; returns "square", "unit",
    "Leibniz", "associative" or None."""
    f = A.field
    adims = A.dims
    mult = {ij: [[ref_dense(f, adims[ij[0] + ij[1]], block.get((a, b), ()))
                  for b in range(adims[ij[1]])] for a in range(adims[ij[0]])]
            for ij, block in A.mult.items()}
    ad = {k: m.data for k, m in A.d.items()}
    for k in d:
        for m in range(dims[k]):
            x = ref_unit_vec(f, dims[k], m)
            if any(ref_d(f, d, dims, k + 1, ref_d(f, d, dims, k, x))):
                return "square"
    sgn = {0: f.one(), 1: f.norm(-1)}
    for k in sorted(dims):
        for m in range(dims[k]):
            xm = ref_unit_vec(f, dims[k], m)
            if ref_product(f, action, dims, k, xm, 0, A.unit) != xm:
                return "unit"
            dxm = ref_d(f, d, dims, k, xm)
            for i in sorted(adims):
                for a in range(adims[i]):
                    ya = ref_unit_vec(f, adims[i], a)
                    xa = ref_product(f, action, dims, k, xm, i, ya)
                    # d(x a) = d(x) a + (-1)^k x d(a)
                    t1 = ref_product(f, action, dims, k + 1, dxm, i, ya)
                    t2 = ref_product(f, action, dims, k, xm, i + 1,
                                     ref_d(f, ad, adims, i, ya))
                    if ref_d(f, d, dims, k + i, xa) != tuple(
                            f.norm(p + sgn[k % 2] * q)
                            for p, q in zip(t1, t2)):
                        return "Leibniz"
                    # (x a) b = x (a b)
                    for j in sorted(adims):
                        if not dims.get(k + i + j):
                            continue
                        for b in range(adims[j]):
                            zb = ref_unit_vec(f, adims[j], b)
                            ab = ref_product(f, mult, adims, i, ya, j, zb)
                            if ref_product(f, action, dims, k + i, xa, j, zb) \
                                    != ref_product(f, action, dims, k, xm,
                                                   i + j, ab):
                                return "associative"
    return None


def simples(D):
    """The simple modules of a path algebra, in degree zero: e_i acts by
    one and every other basis element by zero."""
    tags = D.peirce_tags()[0]
    return [DgModule(D, {0: 1}, {}, {(0, 0): {
        (0, a): ((0, q(1)),) for a, (l, r) in enumerate(tags)
        if l == r == i}}) for i in range(len(D.idempotents))]


def modules_over(D, perfect):
    """Free modules in three shifts, the given strictly perfect ones, their
    dg Nakayama duals and both halves of their truncations."""
    out = [strict_perfect(D, [(s, i)]).module
           for i in range(len(D.idempotents)) for s in (-1, 0, 1)]
    for sp in perfect:
        M = materialize(sp)
        out += [M, dg_nakayama(sp), *truncate(M)[:2]]
    return [M for M in out if M.dims]


def module_algebra():
    """The truncated endomorphism dg algebra of the resolution of S_1 and
    P_2: a degree -1 part whose differential is nonzero."""
    G = truncate_algebra(endomorphism_dg_algebra(
        [resolve_complex(S(A2, 0)).complex, P(A2, 1)]))
    assert G.dims.get(-1) and G.d
    return G


def module_cases():
    x = unit_coords(A2, "a")
    G = module_algebra()
    return [
        (D2, simples(D2) + modules_over(D2, [
            res_perfect(D2, S(A2, 0)),
            strict_perfect(D2, [(1, 1), (0, 0)], {(0, 1): x})])),
        (D3, simples(D3) + modules_over(D3, [
            res_perfect(D3, S(A3, 0)), res_perfect(D3, S(A3, 1))])),
        (G, modules_over(G, [strict_perfect(G, [(0, 0), (1, 1)]),
                             strict_perfect(G, [(-1, 1), (0, 0)])])),
    ]


@pytest.mark.parametrize("case", range(3), ids=["D2", "D3", "truncated"])
def test_module_checks_match_the_dense_reference(case):
    """Change one coordinate of the action or the differential of a valid
    module; DgModule must accept exactly what the dense loops accept."""
    D, modules = module_cases()[case]
    f = D.field
    rng = random.Random(case)
    seen = set()
    for M in modules:
        dims, action = M.dims, dense_table(M)
        d = {k: [list(r) for r in m.data] for k, m in M.d.items()}
        assert ref_module_failure(D, dims, d, action) is None
        spots = [("act", key, m, a, c) for key, t in action.items()
                 for m, row in enumerate(t) for a, v in enumerate(row)
                 for c in range(len(v))]
        spots += [("d", k, r, c, None) for k in dims if dims.get(k + 1)
                  for r in range(dims[k]) for c in range(dims[k + 1])]
        for spot in rng.sample(spots, min(len(spots), 25)):
            kind, key, r, c, t = spot
            bad_a = {k: [list(row) for row in v] for k, v in action.items()}
            bad_d = {k: [list(row) for row in v] for k, v in d.items()}
            if kind == "act":
                vec = list(bad_a[key][r][c])
                vec[t] = rng.choice([f.of(v) for v in (0, 1, 2, -1)
                                     if f.of(v) != vec[t]])
                bad_a[key][r][c] = tuple(vec)
            else:
                row = bad_d.setdefault(key, [[f.zero()] * dims[key + 1]
                                             for _ in range(dims[key])])[r]
                row[c] = rng.choice([f.of(v) for v in (0, 1, 2, -1)
                                     if f.of(v) != row[c]])
            want = ref_module_failure(D, dims, bad_d, bad_a)
            seen.add(want)
            table = {key: {(m, a): tuple((k, v) for k, v in enumerate(vec)
                                         if v)
                           for m, row in enumerate(block)
                           for a, vec in enumerate(row) if any(vec)}
                     for key, block in bad_a.items()}
            mats = {k: Mat(f, rows, ncols=dims[k + 1])
                    for k, rows in bad_d.items()}
            if want is None:
                DgModule(D, dims, mats, table)
            else:
                with pytest.raises(DgError):
                    DgModule(D, dims, mats, table)
    # each law is broken somewhere, and some changes break none
    assert seen >= {None, "unit", "Leibniz", "associative"}


# ---- the module builder against the per-piece construction ----

def ref_free_module(A, i, shift):
    """e_i A shifted by shift, built on its own: how a lone free summand
    was built before strictly perfect modules had one builder."""
    f = A.field
    tags = A.peirce_tags()
    pick = {k: [a for a, (l, _) in enumerate(tags[k]) if l == i]
            for k in A.degrees()}
    dims = {k - shift: len(pick[k]) for k in A.degrees() if pick[k]}
    pos = {k: {a: r for r, a in enumerate(pick[k])} for k in A.degrees()}
    sgn = f.one() if shift % 2 == 0 else f.norm(-1)
    d = {}
    for k in A.degrees():
        if not pick[k] or k not in A.d:
            continue
        rows = []
        for a in pick[k]:
            row = [f.zero()] * len(pick.get(k + 1, []))
            for b, c in enumerate(A.d[k].data[a]):
                if c:
                    row[pos[k + 1][b]] = f.norm(sgn * c)
            rows.append(row)
        if pick.get(k + 1):
            d[k - shift] = Mat(f, rows, ncols=len(pick[k + 1]))
    action = {}
    for (k, j), block in A.mult.items():
        out = {}
        for (a, b), prod in block.items():
            if a in pos.get(k, {}):
                out[(pos[k][a], b)] = tuple((pos[k + j][c], v)
                                            for c, v in prod)
        if out:
            action[(k - shift, j)] = out
    return DgModule(A, dims, d, action)


def ref_perfect_module(A, pieces, delta):
    """The module of a strictly perfect presentation as the sum of
    ref_free_module's pieces, with the connecting maps added entry by
    entry: the construction materialize used before."""
    f = A.field
    one = f.one()
    frees = [ref_free_module(A, i, s) for s, i in pieces]
    degs = sorted({k for M in frees for k in M.degrees()})
    dims = {k: sum(M.dim_at(k) for M in frees) for k in degs}
    offs = {k: [sum(M.dim_at(k) for M in frees[:t])
                for t in range(len(frees))] for k in degs}
    tags = A.peirce_tags()
    d = {}
    for k in degs:
        if dims.get(k + 1, 0) == 0:
            continue
        rows = [[f.zero()] * dims[k + 1] for _ in range(dims[k])]
        for t, M in enumerate(frees):
            if k in M.d:
                for r in range(M.dim_at(k)):
                    for c in range(M.dim_at(k + 1)):
                        rows[offs[k][t] + r][offs[k + 1][t] + c] = \
                            M.d[k][r, c]
        for (t, u), x in delta.items():
            deg = 1 - pieces[t][0] + pieces[u][0]
            st, it_ = pieces[t]
            su, iu = pieces[u]
            pick_t = [a for a, (l, _) in enumerate(tags.get(k + st, []))
                      if l == it_]
            pick_u = [a for a, (l, _) in enumerate(tags.get(k + 1 + su, []))
                      if l == iu]
            pos_u = {a: c for c, a in enumerate(pick_u)}
            for r, a in enumerate(pick_t):
                img = sparse_product(
                    f, A.mult, deg, [(b, c) for b, c in enumerate(x) if c],
                    k + st, ((a, one),))
                for b, coef in img.items():
                    row = rows[offs[k][t] + r]
                    c = offs[k + 1][u] + pos_u[b]
                    row[c] = f.norm(row[c] + coef)
        d[k] = Mat(f, rows, ncols=dims[k + 1])
    action = {}
    for t, M in enumerate(frees):
        for (k, j), block in M.action.items():
            out = action.setdefault((k, j), {})
            for (r, b), img in block.items():
                out[(offs[k][t] + r, b)] = tuple(
                    (offs[k + j][t] + c, v) for c, v in img)
    return DgModule(A, dims, d, action)


def random_presentation(rng, D):
    """Pieces in shifts -1..1 and connecting entries, each with random
    coefficients on the basis of its corner and degree; the entries need
    not compose to zero."""
    tags = D.peirce_tags()
    pieces = [(rng.randint(-1, 1), rng.randrange(len(D.idempotents)))
              for _ in range(rng.randint(1, 4))]
    delta = {}
    for u in range(len(pieces)):
        for t in range(u):
            deg = 1 - pieces[t][0] + pieces[u][0]
            corner = (pieces[u][1], pieces[t][1])
            x = [q(rng.choice([0, 1, -1, 2])) if tag == corner else q(0)
                 for tag in tags.get(deg, [])]
            if any(x):
                delta[(t, u)] = tuple(x)
    return pieces, delta


@pytest.mark.parametrize("case", range(3), ids=["D2", "D3", "truncated"])
def test_perfect_module_builder_matches_the_per_piece_construction(case):
    """The one builder gives the dims, differentials and action table of
    the free summands summed and glued by hand, and accepts exactly the
    presentations whose entries compose to zero."""
    D = [D2, D3, module_algebra()][case]
    rng = random.Random(case)
    for i in range(len(D.idempotents)):
        for s in (-1, 0, 1, 2):
            got = strict_perfect(D, [(s, i)]).module
            want = ref_free_module(D, i, s)
            assert (got.dims, got.d, got.action) == \
                (want.dims, want.d, want.action)
    outcomes = set()
    for _ in range(40):
        pieces, delta = random_presentation(rng, D)
        try:
            want = ref_perfect_module(D, pieces, delta)
        except DgError:
            with pytest.raises(DgError):
                strict_perfect(D, pieces, delta)
            outcomes.add("rejected")
            continue
        got = materialize(strict_perfect(D, pieces, delta))
        assert (got.dims, got.d, got.action) == \
            (want.dims, want.d, want.action)
        outcomes.add("glued" if delta else "free")
    assert outcomes >= {"glued", "free"}


def test_a_strictly_perfect_module_is_validated_once(monkeypatch):
    checked = []
    validate = DgModule.validate
    monkeypatch.setattr(DgModule, "validate",
                        lambda M: checked.append(M) or validate(M))
    M = materialize(strict_perfect(D2, [(1, 1), (0, 0)]))
    assert checked == [M]


def test_hom_slices_are_computed_once_per_degree_and_idempotent(monkeypatch):
    """Pieces that share an idempotent share the slices (N^k) e_i; the
    hom dims are sum over the pieces (s, i) of dim (N^{k-s}) e_i."""
    sp = strict_perfect(D2, [(0, 0), (0, 0), (1, 1), (0, 1)])
    N = sp.module
    seen = []
    slice_rows = dg._right_slice_rows
    monkeypatch.setattr(dg, "_right_slice_rows",
                        lambda N, k, i: seen.append((k, i))
                        or slice_rows(N, k, i))
    h = hom_perfect_module(sp, N)
    assert sorted(seen) == [(-1, 0), (-1, 1), (0, 0), (0, 1)]
    # N's basis in degree m: per piece (s', i') with s' = -m, the paths
    # starting at i'; the right idempotent e_i fixes those ending at i
    tags = D2.peirce_tags()[0]
    right = {(m, i): sum(1 for s2, i2 in sp.pieces if s2 == -m
                         for l, r in tags if l == i2 and r == i)
             for m in N.degrees() for i in range(2)}
    want = {}
    for s, i in sp.pieces:
        for m in N.degrees():
            want[m + s] = want.get(m + s, 0) + right[(m, i)]
    assert h.dims == {k: n for k, n in want.items() if n}

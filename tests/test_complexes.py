"""Tagged complexes: shift, cone, minimization, hom complexes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.algebra import (Algebra, AlgebraError, ModuleMap, Quiver,
                             direct_sum_modules, hom_basis, map_placement)
from tiltlab.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Summand,
    cone,
    complex_iso_search,
    direct_sum_complexes,
    h0_chain_maps,
    minimize,
    stalk_complex,
    tag_module,
)
from tiltlab.derived import coresolve_complex, dual_complex, resolve_complex
from tiltlab.linalg import QQ, Mat, PrimeField, Subquotient
from tiltlab.tilting import hom_to_element, left_mult_map

from test_derived import cyclic_nakayama
from test_direct_sums import (ALGEBRAS, FIELDS, dense_blocks, from_dense,
                              random_chain_map, random_complex)


@pytest.fixture
def A():
    return Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])


def proj_map_a(A):
    """Left multiplication by the arrow: P_2 -> P_1."""
    basis = hom_basis(A.projective(1), A.projective(0))
    assert len(basis) == 1
    return basis[0]


def res_s1(A):
    """[P_2 -> P_1] in degrees -1, 0: the projective resolution of S_1."""
    X = Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),)},
                {-1: {(0, 0): proj_map_a(A)}})
    X.validate()
    return X


def test_stalk_and_shift(A):
    X = stalk_complex(A, Summand("P", 0), 0)
    assert X.support() == [0]
    Y = X.shift(2)
    assert Y.support() == [-2]
    Z = stalk_complex(A, Summand("P", 0), 0, approx_above=3)
    assert Z.shift(2).approx_above == 1


def test_resolution_homology(A):
    X = res_s1(A)
    X.validate()
    assert X.homology_dims() == {0: (1, 0)}


def test_shift_keeps_d_squared(A):
    X = res_s1(A).shift(1)
    X.validate()
    assert X.homology_dims() == {-1: (1, 0)}


def triangle_maps(f, C):
    """Y -> C and C -> X[1] for the cone C of f: X -> Y, by the cone's
    summand order: the shifted source X^{n+1} first, then Y^n."""
    X, Y = f.source, f.target
    origin = (0,) * X.algebra.quiver.n
    inc_comps = {}
    for n in Y.parts:
        if n not in C.parts:
            continue
        src = Y.module(n)
        ystart = C.offsets(n)[len(X.parts.get(n + 1, ()))]
        inc_comps[n] = map_placement(src, [origin], C.module(n), [ystart],
                                     {(0, 0): ModuleMap.identity(src)})
    SX = X.shift(1)
    proj_comps = {}
    for n in C.parts:
        tgt = SX.module(n)
        proj_comps[n] = map_placement(C.module(n), [origin], tgt, [origin],
                                      {(0, 0): ModuleMap.identity(tgt)})
    return ChainMap(Y, C, inc_comps), ChainMap(C, SX, proj_comps)


def test_cone_of_projective_map(A):
    X = stalk_complex(A, Summand("P", 1), 0)
    Y = stalk_complex(A, Summand("P", 0), 0)
    f = ChainMap(X, Y, {0: proj_map_a(A)})
    assert f.commutes()
    C = cone(f)
    inc, proj = triangle_maps(f, C)
    assert C.support() == [-1, 0]
    assert inc.commutes() and proj.commutes()
    assert C.homology_dims() == {0: (1, 0)}


def test_cone_triangle_composes_to_zero(A):
    X = stalk_complex(A, Summand("P", 1), 0)
    Y = stalk_complex(A, Summand("P", 0), 0)
    f = ChainMap(X, Y, {0: proj_map_a(A)})
    assert f.commutes()
    C = cone(f)
    inc, proj = triangle_maps(f, C)
    assert f.then(inc).then(proj).is_zero()
    # the composite Y -> C -> Sigma X must vanish
    assert inc.then(proj).is_zero()
    # X -> Y -> C is not zero, but it is null-homotopic: its class in
    # H^0 Hom(X, C) vanishes
    assert not f.then(inc).is_zero()
    hc = HomComplex(X, C)
    _, H = hc.chain_classes(0)
    cls = H.coords(hc.coords(0, f.then(inc).comps))
    assert cls is not None and not any(cls)
    # the null-homotopy is the inclusion h of X into the shifted-source
    # block of C one degree down; with d_X = 0, X -> Y -> C equals h d_C,
    # which pins the sign of the f block in the cone differential
    origin = (0,) * A.quiver.n
    h = map_placement(X.module(0), [origin], C.module(-1), [origin],
                      {(0, 0): ModuleMap.identity(X.module(0))})
    assert h.then(C.d_full(-1)).blocks == f.then(inc).comp(0).blocks


def test_cone_stores_no_zero_block(A):
    # an absent key is a zero block, so the cone of the zero map is the
    # sum of X[1] and Y with no differential at all
    X = stalk_complex(A, Summand("P", 1), 0)
    Y = stalk_complex(A, Summand("P", 0), 0)
    f = ChainMap(X, Y, {})
    assert f.commutes()
    C = cone(f)
    assert C.support() == [-1, 0]
    assert C.blocks == {}
    assert C.homology_dims() == {-1: (0, 1), 0: (1, 1)}


def test_a_cone_out_of_an_odd_shift_reads_back_the_unshifted_blocks():
    """An odd shift negates d once per block dict and records that the
    negation of its dicts is the source's; so the cone of a map out of
    I[-1] holds I's own block objects in its I rows, and so does a
    second odd shift.  Degrees that share a dict in I share its
    negation in I[-1]."""
    A = cyclic_nakayama(PrimeField(7), 3, 3)
    I = coresolve_complex(stalk_complex(A, Summand("S", 0)), top=10).complex
    U = I.shift(-1)
    for n, grid in I.blocks.items():
        assert U.blocks[n + 1] == {kl: b.scale(A.field.of(-1))
                                   for kl, b in grid.items()}
        assert I.shift(-2).blocks[n + 2] is grid
        assert U.shift(-1).blocks[n + 2] is grid
        assert U.shift(1).blocks[n] is grid
        for m, other in I.blocks.items():
            if other is grid:
                assert U.blocks[m + 1] is U.blocks[n + 1]
    assert len({id(g) for g in I.blocks.values()}) < len(I.blocks)
    C = cone(ChainMap.identity(U))
    for n, grid in I.blocks.items():
        # degree n of C begins with U^{n+1} = I^n, whose -d is d_I
        for kl, b in grid.items():
            assert C.blocks[n][kl] is b
    C.validate()


def test_minimize_kills_contractible(A):
    X = res_s1(A)
    idX = ChainMap.identity(X)
    C = cone(idX)
    C.validate()
    res = minimize(C)
    assert res.complex.is_zero()


def test_minimize_partial(A):
    # P_1+P_2 --[id;0]--> P_1 cancels to a stalk P_2
    P0 = Summand("P", 0)
    P1 = Summand("P", 1)
    idm = ModuleMap.identity(A.projective(0))
    X = Complex(A, {0: (P0, P1), 1: (P0,)}, {0: {(0, 0): idm}})
    X.validate()
    res = minimize(X)
    assert res.complex.parts == {0: (P1,)}
    assert res.to_min.commutes() and res.from_min.commutes()


def test_minimize_leaves_minimal_alone(A):
    X = res_s1(A)
    res = minimize(X)
    assert res.complex == X


def test_minimize_gaussian_correction_term():
    # P2+P3 --[e2 0; b a]--> P2+P1 over A3: cancelling the unit entry e2
    # routes the correction -a*b from P3 around it to P1
    A3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
    names = [A3.basis_name(i) for i in range(A3.dim)]

    def elem(name, c=1):
        vec = [QQ.zero()] * A3.dim
        vec[names.index(name)] = QQ.of(c)
        return tuple(vec)

    P1, P2, P3 = (Summand("P", v) for v in range(3))
    X = Complex(A3, {-1: (P2, P3), 0: (P2, P1)},
                {-1: {(0, 0): left_mult_map(A3, elem("e2"), 1, 1),
                      (0, 1): left_mult_map(A3, elem("a"), 1, 0),
                      (1, 0): left_mult_map(A3, elem("b"), 2, 1)}})
    X.validate()
    res = minimize(X)
    Y = res.complex
    assert Y.parts == {-1: (P3,), 0: (P1,)}
    assert hom_to_element(Y.block(-1, 0, 0), 2, 0) == elem("a*b", -1)
    assert Y.homology_dims() == X.homology_dims()


def test_cone_approx_above(A):
    X = stalk_complex(A, Summand("P", 1), 0, approx_above=5)
    Y = stalk_complex(A, Summand("P", 0), 0, approx_above=2)
    f = ChainMap(X, Y, {0: proj_map_a(A)})
    C = cone(f)
    assert C.approx_above == 2
    Y2 = stalk_complex(A, Summand("P", 0), 0)
    f2 = ChainMap(X, Y2, {0: proj_map_a(A)})
    C2 = cone(f2)
    assert C2.approx_above == 4


def test_hom_complex_ext(A):
    # resolution of S_1 against resolution of S_2 (a stalk P_2)
    X = res_s1(A)
    Y = stalk_complex(A, Summand("P", 1), 0)
    hc = HomComplex(X, Y)
    assert hc.h_dim(0) == 0
    assert hc.h_dim(1) == 1  # one extension of S_1 by S_2
    hc_self = HomComplex(X, X)
    assert hc_self.h_dim(0) == 1
    assert hc_self.h_dim(1) == 0


def test_hom_complex_valid_hi(A):
    X = stalk_complex(A, Summand("P", 0), 0)
    Y = Complex(A, {0: (Summand("P", 0),)}, {}, approx_above=5)
    hc = HomComplex(X, Y)
    assert hc.valid_range()[1] == 4
    hc2 = HomComplex(X, stalk_complex(A, Summand("P", 0), 0))
    assert hc2.valid_range()[1] is None


def test_h0_chain_maps(A):
    X = stalk_complex(A, Summand("P", 0), 0)
    maps, hc = h0_chain_maps(X, X)
    assert len(maps) == 1
    assert maps[0].commutes()


def test_complex_iso_search(A):
    X = res_s1(A)
    Y = Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),)},
                {-1: {(0, 0): proj_map_a(A).scale(QQ.of(2))}})
    Y.validate()
    iso = complex_iso_search(X, Y)
    assert iso is not None and iso.is_degreewise_iso() and iso.commutes()


@pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59],
                         ids=["GF(2^61-1)", "GF(2^64-59)"])
def test_complex_iso_search_draws_over_a_large_prime(p):
    # no cycle-basis element of End(S1 + S1) is invertible, so the search
    # draws random combinations, each coefficient uniform in [0, p)
    A = Algebra(PrimeField(p), Quiver(2, [("a", 0, 1)]), [])
    X = Complex(A, {0: (Summand("S", 0),) * 2}, {})
    iso = complex_iso_search(X, X)
    assert iso is not None and iso.is_degreewise_iso() and iso.commutes()


def test_not_iso_to_split_sum(A):
    X = res_s1(A)
    # same degreewise parts, zero differential: not homotopy equivalent
    Y = Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),)}, {})
    Y.validate()
    assert complex_iso_search(X, Y) is None


def test_direct_sum_complexes(A):
    X = res_s1(A)
    Y = stalk_complex(A, Summand("I", 0), 0)
    S = direct_sum_complexes([X, Y])
    S.validate()
    assert S.parts[-1] == (Summand("P", 1),)
    assert S.parts[0] == (Summand("P", 0), Summand("I", 0))
    assert S.homology_dims() == {0: (2, 0)}


def _placed(A, rows, cols, blocks):
    """The map between the direct sums of the modules in rows and in cols
    whose (k, l) summand block is blocks[(k, l)]."""
    S, s_off = direct_sum_modules(A, rows)
    T, t_off = direct_sum_modules(A, cols)
    return map_placement(S, s_off, T, t_off, blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_block_dicts_give_the_whole_differentials_of_their_formulas(
        seed, field_key, algebra_key):
    """Cone, direct sum, shift and dual against formulas on whole
    differentials, which read no block."""
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    minus_one = A.field.of(-1)
    X = random_complex(A, rng)
    Y = random_complex(A, rng)
    # the cone's differential on X^{n+1} + Y^n is [[-d_X, f], [0, d_Y]]
    f = random_chain_map(X, Y, rng)
    C = cone(f)
    for n in C.parts:
        assert C.parts[n] == X.parts.get(n + 1, ()) + Y.parts.get(n, ())
        if n + 1 in C.parts:
            want = _placed(A, [X.module(n + 1), Y.module(n)],
                           [X.module(n + 2), Y.module(n + 1)],
                           {(0, 0): X.d_full(n + 1).scale(minus_one),
                            (0, 1): f.comp(n + 1), (1, 1): Y.d_full(n)})
            assert C.d_full(n).blocks == want.blocks
    # a direct sum's differential is the block diagonal of its members'
    members = [X, Y, C][:rng.randint(2, 3)]
    S = direct_sum_complexes(members)
    for n in S.parts:
        assert S.parts[n] == sum((M.parts.get(n, ()) for M in members), ())
        if n + 1 in S.parts:
            want = _placed(A, [M.module(n) for M in members],
                           [M.module(n + 1) for M in members],
                           {(i, i): M.d_full(n) for i, M in enumerate(members)})
            assert S.d_full(n).blocks == want.blocks
    # X.shift(m) has (-1)^m d_X^{n+m} in degree n
    for Z in (X, C):
        lo, hi = Z.min_deg() - 1, Z.max_deg()
        for m in range(-2, 3):
            sign = A.field.of((-1) ** (m % 2))
            for n in range(lo - m, hi - m + 1):
                assert Z.shift(m).d_full(n).blocks == \
                    Z.d_full(n + m).scale(sign).blocks
        # the dual has the transposed d_Z^{-n-1} in degree n
        D = dual_complex(Z)
        for n in range(-hi - 1, -lo):
            assert dense_blocks(D.d_full(n)) == \
                [b.transpose() for b in dense_blocks(Z.d_full(-n - 1))]


def test_validate_rejects_a_block_key_outside_its_degree(A):
    idm = ModuleMap.identity(A.projective(0))
    P0 = Summand("P", 0)
    for key in [(0, 1), (1, 0), (-1, 0)]:
        with pytest.raises(AlgebraError, match="outside degree 0"):
            Complex(A, {0: (P0,), 1: (P0,)}, {0: {key: idm}}).validate()


def _homology_by_subquotient(X):
    """Complex.homology_dims, per vertex as the dimension of the
    Subquotient of ker d_n by the rows of d_{n-1}."""
    f = X.algebra.field
    out = {}
    for n in X.support():
        dims = []
        for v in range(X.algebra.quiver.n):
            d_in = dense_blocks(X.d_full(n - 1))[v]
            d_out = dense_blocks(X.d_full(n))[v]
            ker = d_out.left_kernel_basis() if d_out.ncols else \
                Mat.identity(f, d_out.nrows)
            dims.append(Subquotient(ker, d_in).dim)
        if any(dims):
            out[n] = tuple(dims)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_homology_dims_match_a_subquotient_per_vertex(
        seed, field_key, algebra_key):
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    X = random_complex(A, rng)
    Y = X if rng.random() < 0.3 else random_complex(A, rng)
    for Z in (X, Y, cone(random_chain_map(X, Y, rng))):
        assert Z.homology_dims() == _homology_by_subquotient(Z)


def test_homology_refuses_d_squared_nonzero(A):
    # P_2 -> P_1 -> P_1, the arrow then the identity: d^2 is the arrow
    ident = ModuleMap.identity(A.projective(0))
    X = Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),),
                    1: (Summand("P", 0),)},
                {-1: {(0, 0): proj_map_a(A)}, 0: {(0, 0): ident}})
    with pytest.raises(AlgebraError, match="image not inside kernel"):
        X.homology_dims()


def test_describe(A):
    X = res_s1(A)
    assert X.describe() == "[-1: P2] [0: P1]"


def _flat(m):
    return [x for b in dense_blocks(m) for row in b.data for x in row]


def _coords_by_solve(f, entries, img):
    """HomComplex.coords over the basis entries as one transpose-and-solve
    per block: the coordinates, or None where it raised."""
    out = [f.zero()] * len(entries)
    for k, m in img.items():
        if m.is_zero():
            continue
        cols = [(i, h) for i, (kk, h) in enumerate(entries) if kk == k]
        if not cols:
            return None
        vec = _flat(m)
        basis_rows = Mat(f, [_flat(h) for _, h in cols], ncols=len(vec))
        sol = basis_rows.transpose().solve(
            Mat(f, [vec], ncols=len(vec)).transpose())
        if sol is None:
            return None
        for (i, _), r in zip(cols, range(sol.nrows)):
            out[i] = sol[r, 0]
    return out


def _random_complex(A, rng):
    parts = [stalk_complex(A, Summand(rng.choice("PIS"), rng.randrange(3)),
                           rng.randrange(-1, 2))
             for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.5:
        S = stalk_complex(A, Summand("S", rng.randrange(3)), 0)
        parts.append(resolve_complex(S).complex)
    return direct_sum_complexes(parts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["Q", 5]))
def test_hom_coords_match_a_solve_per_block(seed, field_key):
    rng = random.Random(seed)
    field = QQ if field_key == "Q" else PrimeField(field_key)
    arrows = [("a", 0, 1) if rng.random() < 0.5 else ("a", 1, 0),
              ("b", 1, 2) if rng.random() < 0.5 else ("b", 2, 1)]
    A3 = Algebra(field, Quiver(3, arrows), [])
    X, Y = _random_complex(A3, rng), _random_complex(A3, rng)
    hc = HomComplex(X, Y)
    for n, entries in hc.bases.items():
        # a combination of the basis is given back its coefficients
        coeffs = [field.of(rng.randrange(-3, 4)) for _ in entries]
        img = hc.element(n, coeffs)
        assert hc.coords(n, img) == _coords_by_solve(field, entries, img) \
            == coeffs
        # a blockwise linear map from one X^k, with or without basis
        # entries: given the solver's coordinates, or refused
        k = rng.choice([k for k in sorted(X.parts) if k + n in Y.parts])
        src, tgt = X.module(k), Y.module(k + n)
        blocks = [Mat(field, [[field.of(rng.randrange(-2, 3))
                               for _ in range(tgt.dims[v])]
                              for _ in range(src.dims[v])], ncols=tgt.dims[v])
                  for v in range(3)]
        img = {k: from_dense(src, tgt, blocks)}
        want = _coords_by_solve(field, hc.bases.get(n, []), img)
        if want is None:
            with pytest.raises(AlgebraError):
                hc.coords(n, img)
        else:
            assert hc.coords(n, img) == want


def _hom_by_fresh_calls(X, Y):
    """The hom complex as built without the job memo: fresh sum modules,
    one hom_basis call per block, coordinates by one solve per block.
    Returns (bases, diffs as lists of rows)."""
    A = X.algebra
    f = A.field

    def module(Z, n):
        mods = [tag_module(A, t) for t in Z.parts.get(n, ())]
        return direct_sum_modules(A, mods)[0]

    bases = {}
    for n in sorted({m - k for k in X.parts for m in Y.parts}):
        entries = [(k, h) for k in sorted(X.parts) if k + n in Y.parts
                   for h in hom_basis(module(X, k), module(Y, k + n))]
        if entries:
            bases[n] = entries
    diffs = {}
    for n in bases:
        if n + 1 not in bases:
            continue
        rows = []
        for k, h in bases[n]:
            img = {}
            t1 = h.then(Y.d_full(k + n))
            if not t1.is_zero():
                img[k] = t1
            t2 = X.d_full(k - 1).then(h)
            if not t2.is_zero():
                t2 = t2.scale(f.of(-((-1) ** (n % 2))))
                img[k - 1] = img[k - 1].add(t2) if k - 1 in img else t2
            rows.append(_coords_by_solve(f, bases[n + 1], img))
        diffs[n] = rows
    return bases, diffs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["Q", 5]))
def test_memo_hom_complexes_match_fresh_hom_basis_calls(seed, field_key):
    rng = random.Random(seed)
    field = QQ if field_key == "Q" else PrimeField(field_key)
    A3 = Algebra(field, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
    # shifts and sums of a few complexes repeat their tag tuples
    base = [_random_complex(A3, rng) for _ in range(2)]
    pool = base + [base[0].shift(rng.choice([-1, 1])),
                   direct_sum_complexes(base)]
    for X in pool:
        for Y in pool:
            hc = HomComplex(X, Y)
            bases, diffs = _hom_by_fresh_calls(X, Y)
            assert sorted(hc.bases) == sorted(bases)
            for n, entries in bases.items():
                got = hc.bases[n]
                assert [k for k, _ in got] == [k for k, _ in entries]
                for (k, h), (_, want) in zip(got, entries):
                    assert h.blocks == want.blocks
                    # the entry is the memo's map for its pair of tags
                    maps, _ = A3.hom_memo[(X.parts[k], Y.parts[k + n])]
                    assert any(h is m for m in maps)
            assert sorted(hc.diffs) == sorted(diffs)
            for n, rows in diffs.items():
                assert [list(r) for r in hc.diffs[n].data] == rows
            for n, entries in bases.items():
                coeffs = [field.of(rng.randrange(-3, 4)) for _ in entries]
                img = hc.element(n, coeffs)
                assert hc.coords(n, img) == \
                    _coords_by_solve(field, entries, img) == coeffs
    # a complex keeps its sums when the memo is emptied: its differentials
    # stay composable, and a hom complex built afterwards still matches
    Z = direct_sum_complexes(base)
    want = Z.homology_dims()
    Z = direct_sum_complexes(base)
    Z.d_full(Z.min_deg())
    A3.sum_memo.clear()
    A3.hom_memo.clear()
    assert Z.homology_dims() == want
    X, Y = pool[-1], pool[0]
    hc = HomComplex(X, Y)
    bases, diffs = _hom_by_fresh_calls(X, Y)
    assert {n: [h.blocks for _, h in e] for n, e in hc.bases.items()} == \
        {n: [h.blocks for _, h in e] for n, e in bases.items()}
    assert {n: [list(r) for r in m.data]
            for n, m in hc.diffs.items()} == diffs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_hom_complex_built_in_some_degrees_matches_the_full_one(
        seed, field_key, algebra_key):
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    X = random_complex(A, rng)
    Y = X if rng.random() < 0.3 else cone(random_chain_map(
        X, random_complex(A, rng), rng))
    full = HomComplex(X, Y)
    lo = rng.randint(-4, 2)
    hi = lo + rng.randint(0, 4)
    part = HomComplex(X, Y, degrees=(lo, hi))
    assert set(part.bases) == {n for n in full.bases if lo <= n <= hi}
    for n in part.bases:
        assert [(k, h.blocks) for k, h in part.bases[n]] == \
            [(k, h.blocks) for k, h in full.bases[n]]
        coeffs = [A.field.of(rng.randrange(-3, 4)) for _ in part.bases[n]]
        img = part.element(n, coeffs)
        assert part.coords(n, img) == full.coords(n, img) == coeffs
    assert part.diffs == {n: d for n, d in full.diffs.items()
                          if lo <= n < hi}
    for n in range(lo + 1, hi):
        assert part.h_dim(n) == full.h_dim(n)
        reps, H = part.chain_classes(n)
        want, H_full = full.chain_classes(n)
        assert [{k: m.blocks for k, m in r.items()} for r in reps] == \
            [{k: m.blocks for k, m in r.items()} for r in want]
        if n in part.bases:
            assert H.reps == H_full.reps
        else:
            # an empty degree has no classes and builds no subquotient
            assert reps == [] and H is None and H_full is None
    # every read that needs a degree outside lo..hi refuses
    with pytest.raises(AlgebraError, match="not built"):
        part.h_dim(lo)
    with pytest.raises(AlgebraError, match="not built"):
        part.chain_classes(hi)
    with pytest.raises(AlgebraError, match="not built"):
        part.coords(hi + 1, {})
    with pytest.raises(AlgebraError, match="not built"):
        part.element(lo - 1, [])

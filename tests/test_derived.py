"""Resolutions, coresolutions, derived hom tables, collection checks."""

import functools
import gc
import importlib.util
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab import derived
from tiltlab.ainfinity import AInfError, collection_ext_model
from tiltlab.algebra import (
    Algebra,
    AlgebraError,
    ModuleMap,
    Quiver,
    direct_sum_modules,
    hom_basis,
    kernel_module,
    map_placement,
    map_slice,
    projective_cover,
)
from tiltlab.complexes import (
    ChainMap,
    Complex,
    Summand,
    cone,
    h0_chain_maps,
    minimize,
    stalk_complex,
    summand_sum,
    tag_module,
    zero_complex,
    zero_module,
)
from tiltlab.derived import (
    GENERATION_HOM_CAP,
    class_matrix,
    coresolve_complex,
    derived_hom,
    dual_complex,
    generation_certificate,
    injective_form,
    member_resolution,
    resolve_complex,
    shift_coresolution,
    simple_stalk_profile,
    validate_simple_minded,
)
from tiltlab.linalg import QQ, Mat, PrimeField, is_unimodular
from tiltlab.reporting import parse_job

from test_direct_sums import dense_blocks


@pytest.fixture
def A2():
    return Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])


@pytest.fixture
def DUAL():
    """One vertex, one loop x, x^2 = 0."""
    return Algebra(QQ, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]],
                   nilpotency_bound=2)


@pytest.fixture
def NAK2():
    """Two vertices, arrows both ways, radical square zero; self-injective."""
    return Algebra(
        PrimeField(5),
        Quiver(2, [("a", 0, 1), ("b", 1, 0)]),
        [[(1, ["a", "b"])], [(1, ["b", "a"])]],
        nilpotency_bound=2,
    )


def S(A, v, deg=0):
    return stalk_complex(A, Summand("S", v), deg)


def P(A, v, deg=0):
    return stalk_complex(A, Summand("P", v), deg)


# ---- projective resolutions ----

def test_resolution_of_simple(A2):
    res = resolve_complex(S(A2, 0))
    res.complex.validate()
    assert res.exact
    assert res.complex.approx_below is None
    assert res.complex.parts == {
        -1: (Summand("P", 1),), 0: (Summand("P", 0),)}
    assert res.complex.homology_dims() == {0: (1, 0)}
    assert res.aug.commutes()


def test_resolution_of_projective_is_itself(A2):
    res = resolve_complex(P(A2, 1))
    res.complex.validate()
    assert res.aug.commutes()
    assert res.exact
    assert res.complex.parts == {0: (Summand("P", 1),)}


def test_resolution_of_two_term_complex(A2):
    X = Complex(A2, {-1: (Summand("S", 1),), 0: (Summand("S", 0),)}, {})
    X.validate()
    res = resolve_complex(X)
    res.complex.validate()
    assert res.aug.commutes()
    assert res.exact
    assert res.complex.homology_dims() == {-1: (0, 1), 0: (1, 0)}
    assert all(t.kind == "P" for p in res.complex.parts.values() for t in p)


def test_capped_resolution_reports_cut(DUAL):
    res = resolve_complex(S(DUAL, 0), bottom=-3)
    res.complex.validate()
    assert res.aug.commutes()
    assert not res.exact
    assert res.complex.approx_below == -3
    assert sorted(res.complex.parts) == [-3, -2, -1, 0]
    for n in res.complex.parts:
        assert res.complex.dims_at(n) == (2,)
    # trustworthy degrees still resolve the simple
    hd = res.complex.homology_dims()
    assert hd[0] == (1,)
    assert -1 not in hd


def test_resolve_refuses_top_cut(A2):
    X = stalk_complex(A2, Summand("I", 0), 0, approx_above=0)
    with pytest.raises(AlgebraError):
        resolve_complex(X)


# ---- duality and coresolutions ----

def test_dual_complex_round_trip(A2):
    res = resolve_complex(S(A2, 0)).complex
    D = dual_complex(res)
    D.validate()
    assert D.algebra is A2.op()
    assert D.parts == {0: (Summand("I", 0),), 1: (Summand("I", 1),)}
    assert dual_complex(D) == res


def test_injective_coresolution_of_simple(A2):
    res = coresolve_complex(S(A2, 1))
    res.complex.validate()
    assert res.exact
    assert res.complex.parts == {
        0: (Summand("I", 1),), 1: (Summand("I", 0),)}
    assert res.complex.homology_dims() == {0: (0, 1)}
    assert res.aug.commutes()


def test_injective_form_minimizes(A2):
    T = injective_form(S(A2, 1))
    assert T.parts == {0: (Summand("I", 1),), 1: (Summand("I", 0),)}
    # a one-dimensional module is simple
    assert T.homology_dims() == {0: (0, 1)}
    # injectives are left alone up to minimization
    J = injective_form(stalk_complex(A2, Summand("I", 0), 5))
    assert J.parts == {5: (Summand("I", 0),)}


def test_projective_form_of_injective_stalk(A2):
    # I_1 = S_1 has projective resolution [P_2 -> P_1]
    Xp = resolve_complex(stalk_complex(A2, Summand("I", 0), 0)).complex
    assert Xp.parts == {-1: (Summand("P", 1),), 0: (Summand("P", 0),)}


def cyclic_nakayama(field, n, r):
    """kZ_n / rad^r: arrows x_i: i -> i + 1 mod n, every path of length
    r zero.  Self-injective, of infinite global dimension."""
    arrows = [(f"x{i}", i, (i + 1) % n) for i in range(n)]
    rels = [[(1, [f"x{(i + k) % n}" for k in range(r)])] for i in range(n)]
    return Algebra(field, Quiver(n, arrows), rels, nilpotency_bound=r)


def linear_a(field, n):
    return Algebra(field, Quiver(n, [(f"a{i}", i, i + 1)
                                     for i in range(n - 1)]), [])


STALK_ALGEBRAS = {
    "kZ1/rad2": lambda: cyclic_nakayama(QQ, 1, 2),
    "kZ2/rad2": lambda: cyclic_nakayama(PrimeField(5), 2, 2),
    "kZ2/rad3": lambda: cyclic_nakayama(QQ, 2, 3),
    "kZ3/rad2": lambda: cyclic_nakayama(PrimeField(7), 3, 2),
    "A2": lambda: linear_a(QQ, 2),
    "A3": lambda: linear_a(PrimeField(5), 3),
}


def random_stalk(A, rng):
    """One or two indecomposables of random kinds in one degree."""
    tags = tuple(Summand(rng.choice("SPI"), rng.randrange(A.quiver.n))
                 for _ in range(rng.randint(1, 2)))
    return Complex(A, {rng.randint(-1, 1): tags}, {})


def unsigned(C, m):
    """C with its differential times (-1)^m: undoes the sign shift(m)
    puts on it."""
    if m % 2 == 0:
        return C
    minus = C.algebra.field.of(-1)
    return Complex(C.algebra, C.parts,
                   {n: {kl: b.scale(minus) for kl, b in grid.items()}
                    for n, grid in C.blocks.items()},
                   approx_above=C.approx_above)


def blocks_of(chain_map):
    """The components out of the degrees where the source lives."""
    return {n: chain_map.comp(n).blocks for n in chain_map.source.parts}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(STALK_ALGEBRAS)))
def test_coresolution_commutes_with_shift_and_extends_by_prefix(seed, key):
    A = STALK_ALGEBRAS[key]()
    rng = random.Random(seed)
    X = random_stalk(A, rng)
    m = rng.randint(-3, -1)
    t = X.max_deg() - m + rng.randint(0, 4)
    # coresolving X[m] to top t is coresolving X to top t + m, shifted
    fresh = coresolve_complex(X.shift(m), top=t)
    moved = coresolve_complex(X, top=t + m)
    assert fresh.exact == moved.exact
    assert unsigned(moved.complex.shift(m), m) == fresh.complex
    assert blocks_of(fresh.aug) == {k - m: b
                                    for k, b in blocks_of(moved.aug).items()}
    # a coresolution to a lower top is a prefix of one to a higher top
    h = rng.randint(1, 3)
    low, high = coresolve_complex(X, top=t), coresolve_complex(X, top=t + h)
    if low.exact:
        assert high.exact and high.complex == low.complex
    else:
        assert low.complex.approx_above == t
        assert high.complex.cut_above(t) == low.complex
    assert blocks_of(high.aug) == blocks_of(low.aug)
    # so X[m] into low's complex, cut and shifted, is X[m] into its
    # coresolution to top t + 1
    U = X.shift(m)
    iota = shift_coresolution(low, U, m, t)
    want = coresolve_complex(U, top=t + 1)
    assert iota.source is U
    assert unsigned(iota.target, m) == want.complex
    assert blocks_of(iota) == blocks_of(want.aug)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(STALK_ALGEBRAS)))
def test_member_resolutions_are_the_resolutions_of_the_members(seed, key):
    A = STALK_ALGEBRAS[key]()
    rng = random.Random(seed)
    # one tag tuple meets the memo at other degrees, sides and limits
    for _ in range(6):
        X = random_stalk(A, rng)
        side = rng.choice("PI")
        build = resolve_complex if side == "P" else coresolve_complex
        depth = derived.default_depth(A, X.max_deg() - X.min_deg())
        default = X.min_deg() - depth if side == "P" else X.max_deg() + depth
        # None and the default limit it stands for, in either order, are
        # one limit: the second spelling reads the entry of the first
        limits = rng.choice([[None, default], [default, None],
                             [X.min_deg() - rng.randint(0, 4) if side == "P"
                              else X.max_deg() + rng.randint(0, 4)]])
        entries = None
        for limit in limits:
            want = build(X, limit)
            for _ in range(2):  # built, then read from the memo
                got = member_resolution(X, side, limit)
                if entries is None:
                    entries = len(A.resolution_memo)
                assert len(A.resolution_memo) == entries
                assert got.exact == want.exact
                assert got.complex == want.complex
                assert got.aug.comps == want.aug.comps
                assert (got.aug.target if side == "P"
                        else got.aug.source) is X
                assert (got.aug.source if side == "P"
                        else got.aug.target) is got.complex
    assert A.resolution_memo


# ---- periodic resolutions ----

def nakayama_shift(k, r):
    """Vertex shift of degree -k of the minimal projective resolution of
    a simple over kZ_n/rad^r: Omega S_i = rad P_i has top S_{i+1}, and
    Omega^2 S_i = soc P_{i+1} = S_{i+r}."""
    return (k // 2) * r + k % 2


@pytest.mark.parametrize("n, r", [(2, 3), (3, 3), (4, 2), (4, 3), (5, 2),
                                  (3, 4)])
def test_resolutions_of_simples_over_cyclic_nakayama_follow_the_closed_form(
        n, r):
    A = cyclic_nakayama(PrimeField(7), n, r)
    # Omega^2 S_i = S_{i+r}, so the vertices repeat with period
    # 2n / gcd(n, r); run three periods and a bit
    depth = 3 * (2 * n // math.gcd(n, r)) + 1
    for i in range(n):
        res = resolve_complex(S(A, i), bottom=-depth)
        res.complex.validate()
        assert res.aug.commutes()
        assert res.exact is False
        assert res.complex.approx_below == -depth
        assert res.complex.parts == {
            -k: (Summand("P", (i + nakayama_shift(k, r)) % n),)
            for k in range(depth + 1)}
        cores = coresolve_complex(S(A, i), top=depth)
        cores.complex.validate()
        assert cores.aug.commutes()
        assert cores.exact is False
        assert cores.complex.approx_above == depth
        assert cores.complex.parts == {
            k: (Summand("I", (i - nakayama_shift(k, r)) % n),)
            for k in range(depth + 1)}


def test_a_periodic_resolution_shares_one_tag_tuple_per_value():
    """Over kZ_3/rad^3 the resolution of S_1 alternates P_1 and P_2; the
    copied degrees share the tag tuple of the degree they copy, as they
    share its block dict."""
    A = cyclic_nakayama(PrimeField(7), 3, 3)
    P = resolve_complex(S(A, 0), bottom=-20).complex
    assert len(P.parts) == 21
    first = {}
    for p in P.parts.values():
        assert first.setdefault(p, p) is p
    assert sorted(first) == [(Summand("P", 0),), (Summand("P", 1),)]


def reference_resolve(X, bottom=None):
    """resolve_complex as it was before it copied periods: every degree
    down to the cut is computed."""
    A = X.algebra
    if X.is_zero():
        Z = zero_complex(A)
        return derived.Resolution(Z, ChainMap(Z, X, {}), True)
    xhi, xlo = X.max_deg(), X.min_deg()
    if bottom is None:
        bottom = xlo - derived.default_depth(A, xhi - xlo)
    origin = (0,) * A.quiver.n
    verts, phis, d_maps = {}, {}, {}
    cur_P = zero_module(A)
    cur_phi = ModuleMap.zero(cur_P, X.module(xhi + 1))
    cur_d = ModuleMap.zero(cur_P, zero_module(A))
    exact = False
    n = xhi
    while n >= bottom:
        K, kinc = kernel_module(cur_d)
        Xn = X.module(n)
        Sum, sum_offsets = direct_sum_modules(A, [Xn, K])
        t = map_placement(Sum, sum_offsets, X.module(n + 1), [origin], {
            (0, 0): X.d_full(n),
            (1, 0): kinc.then(cur_phi).scale(A.field.of(-1))})
        W, winc = kernel_module(t)
        if W.total == 0 and n <= xlo:
            exact = True
            break
        vlist, P, c = projective_cover(W)
        verts[n] = vlist
        cw = c.then(winc)
        phis[n] = map_slice(cw, P, origin, Xn, sum_offsets[0])
        d_maps[n] = map_slice(cw, P, origin, K, sum_offsets[1]).then(kinc)
        cur_P, cur_phi, cur_d = P, phis[n], d_maps[n]
        n -= 1
    parts = {m: tuple(Summand("P", v) for v in vs)
             for m, vs in verts.items() if vs}
    blocks = {m: block_dict(A, d_maps[m], parts[m], parts[m + 1])
              for m in parts if m + 1 in parts}
    below = X.approx_below
    if not exact:
        below = n + 1 if below is None else max(below, n + 1)
    P_cx = Complex(A, parts, blocks, approx_below=below)
    aug = ChainMap(P_cx, X, {m: f for m, f in phis.items() if m in parts})
    return derived.Resolution(P_cx, aug, exact)


RESOLUTION_ALGEBRAS = {
    # kZ_2/rad^3: rad P_0 and rad P_1 have the same dimension vector
    "kZ2/rad3": lambda: cyclic_nakayama(QQ, 2, 3),
    "kZ3/rad3": lambda: cyclic_nakayama(PrimeField(5), 3, 3),
    "kZ4/rad2": lambda: cyclic_nakayama(PrimeField(7), 4, 2),
    "kZ3/rad4": lambda: cyclic_nakayama(PrimeField(5), 3, 4),
    "dual": lambda: cyclic_nakayama(QQ, 1, 2),
    # no syzygy of A_n recurs: every resolution stops
    "A3": lambda: linear_a(QQ, 3),
    "A4": lambda: linear_a(PrimeField(5), 4),
    "loop": lambda: loop_with_two_arrows_in(),
}


def loop_with_two_arrows_in():
    """Arrows a, c: 0 -> 1 and a loop x at 1, with xx = cx = 0.  Omega S_0
    = rad P_0 = aA + cA is P_1 + S_1, so S_0 resolves as P_0 <- P_1 + P_1
    <- P_1 <- P_1 <- ..., and the syzygy S_1 recurs while the
    projectives around it change."""
    return Algebra(QQ, Quiver(2, [("a", 0, 1), ("c", 0, 1), ("x", 1, 1)]),
                   [[(1, ["x", "x"])], [(1, ["c", "x"])]], nilpotency_bound=3)


def _flat(g):
    return [x for b in dense_blocks(g) for row in b.data for x in row]


def combine(M, N, maps, coeffs):
    acc = ModuleMap.zero(M, N)
    for g, c in zip(maps, coeffs):
        acc = acc.add(g.scale(c))
    return acc


def block_dict(A, d, src, tgt):
    """The differential d between the sums of two tag tuples, as the dict
    of nonzero blocks Complex takes."""
    src_off, tgt_off = summand_sum(A, src)[1], summand_sum(A, tgt)[1]
    sliced = (((k, l), map_slice(d, tag_module(A, t), src_off[k],
                                 tag_module(A, u), tgt_off[l]))
              for k, t in enumerate(src) for l, u in enumerate(tgt))
    return {kl: b for kl, b in sliced if not b.is_zero()}


def random_short_complex(A, rng):
    """One to three adjacent degrees of one or two indecomposables each,
    with a random differential such that d d = 0."""
    f = A.field
    lo = rng.randint(-1, 1)
    parts = {lo + j: tuple(Summand(rng.choice("SPI"),
                                   rng.randrange(A.quiver.n))
                           for _ in range(rng.randint(1, 2)))
             for j in range(rng.randint(1, 3))}
    blocks, prev = {}, None
    for m in sorted(parts)[:-1]:
        M, N = summand_sum(A, parts[m])[0], summand_sum(A, parts[m + 1])[0]
        basis = hom_basis(M, N)
        if prev is not None and basis:
            # the combinations c with prev then (sum c_j b_j) = 0
            rows = Mat(f, [_flat(prev.then(b)) for b in basis],
                       ncols=len(_flat(prev.then(basis[0]))))
            basis = [combine(M, N, basis, vec)
                     for vec in rows.transpose()._null_vectors()]
        prev = combine(M, N, basis, [f.of(rng.randrange(-2, 3)) for _ in basis])
        blocks[m] = block_dict(A, prev, parts[m], parts[m + 1])
    X = Complex(A, parts, blocks)
    X.validate()
    return X


def assert_runs_match_the_reference(X, depth):
    """resolve_complex and coresolve_complex against reference_resolve,
    block by block, cut at depth degrees past X (None: the default)."""
    bottom = None if depth is None else X.min_deg() - depth
    got, want = resolve_complex(X, bottom=bottom), reference_resolve(X, bottom)
    assert got.complex == want.complex
    assert (got.exact, got.complex.approx_below) == (
        want.exact, want.complex.approx_below)
    assert blocks_of(got.aug) == blocks_of(want.aug)

    top = None if depth is None else X.max_deg() + depth
    got = coresolve_complex(X, top=top)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derived, "resolve_complex", reference_resolve)
        want = coresolve_complex(X, top=top)
    assert got.complex == want.complex
    assert (got.exact, got.complex.approx_above) == (
        want.exact, want.complex.approx_above)
    assert blocks_of(got.aug) == blocks_of(want.aug)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(RESOLUTION_ALGEBRAS)))
def test_periodic_runs_match_the_run_that_computes_every_degree(seed, key):
    """Three runs on one algebra: a later one reads the periods the
    earlier ones kept in the memo."""
    A = RESOLUTION_ALGEBRAS[key]()
    rng = random.Random(seed)
    for _ in range(3):
        X = random_short_complex(A, rng)
        assert_runs_match_the_reference(
            X, rng.choice([None, rng.randint(0, 14)]))


def two_degree_complex(A, src, tgt):
    """src in degree 0 and tgt in degree 1, d the sum of a hom basis."""
    basis = hom_basis(summand_sum(A, src)[0], summand_sum(A, tgt)[0])
    d = combine(basis[0].source, basis[0].target, basis,
                [A.field.one()] * len(basis))
    X = Complex(A, {0: src, 1: tgt}, {0: block_dict(A, d, src, tgt)})
    X.validate()
    return X


@pytest.mark.parametrize("case", ["same dims", "projectives change",
                                  "cycles in the lowest degree"])
def test_periodic_runs_match_where_a_copy_could_go_wrong(case):
    if case == "same dims":
        # rad P_0 and rad P_1 both have dims (1, 1): a key on dims alone
        # sees a period of 2 where the true one is 4
        X = S(cyclic_nakayama(QQ, 2, 3), 0)
    elif case == "projectives change":
        # S_1 recurs at degree -3, first met at -2, but d_{-3} lands in
        # P_1 and d_{-2} in P_1 + P_1: the degree where the syzygy recurs
        # must be computed, not copied
        X = S(loop_with_two_arrows_in(), 0)
    else:
        # H^0 = soc P_1 is not zero, so the step below the source's
        # lowest degree still reads X, and no key may be taken there
        A = cyclic_nakayama(QQ, 2, 3)
        X = two_degree_complex(A, (Summand("P", 1),),
                               (Summand("S", 1), Summand("P", 0)))
    assert_runs_match_the_reference(X, 12)


def value_of(C):
    """A complex by value (terms, cut markers, vertex rows of each
    block), to compare complexes over two algebras."""
    return C.parts, C.approx_above, C.approx_below, {
        n: {kl: tuple(b.data for b in blk.blocks.values())
            for kl, blk in grid.items()} for n, grid in C.blocks.items()}


def test_a_coresolution_reads_the_period_an_earlier_one_kept(monkeypatch):
    """Over kZ_5/rad^2 the cosyzygies of S_1 run through every simple,
    so its coresolution keeps one period under each of them, in the
    memo of the opposite algebra.  A coresolution of any other simple
    S_j built after it reads the memo from its first step: S_j is one of
    those cosyzygies, so it covers S_j and copies the rest, one cover.
    It is what a fresh algebra builds, and what the run that computes
    every degree builds, block for block."""
    top = 16
    for j in range(1, 5):
        A = cyclic_nakayama(PrimeField(7), 5, 2)
        coresolve_complex(S(A, 0), top=top)
        assert not A.period_memo and len(A.op().period_memo) == 5
        cover, covers = derived.projective_cover, []
        monkeypatch.setattr(derived, "projective_cover",
                            lambda M: covers.append(M) or cover(M))
        warm = coresolve_complex(S(A, j), top=top)
        monkeypatch.undo()
        assert len(covers) == 1
        fresh = coresolve_complex(
            S(cyclic_nakayama(PrimeField(7), 5, 2), j), top=top)
        assert value_of(warm.complex) == value_of(fresh.complex)
        assert {n: [b.data for b in c.values()]
                for n, c in blocks_of(warm.aug).items()} == \
            {n: [b.data for b in c.values()]
             for n, c in blocks_of(fresh.aug).items()}
        monkeypatch.setattr(derived, "resolve_complex", reference_resolve)
        want = coresolve_complex(S(A, j), top=top)
        monkeypatch.undo()
        assert warm.complex == want.complex
        assert blocks_of(warm.aug) == blocks_of(want.aug)


def resolution_value(res):
    """A resolution by value: its complex (value_of), its augmentation's
    vertex rows, and whether it is exact."""
    return value_of(res.complex), {
        n: [b.data for b in c.values()]
        for n, c in blocks_of(res.aug).items()}, res.exact


@functools.lru_cache(maxsize=None)
def simple_run_elsewhere(p, n, r, i, side, depth):
    """The resolution (side "P") or coresolution (side "I") of S_i over
    kZ_n/rad^r at GF(p), depth degrees deep, by value, twice over: built
    on a fresh algebra, and by the run that computes every degree."""
    def run():
        X = S(cyclic_nakayama(PrimeField(p), n, r), i)
        if side == "P":
            return resolve_complex(X, bottom=-depth)
        return coresolve_complex(X, top=depth)
    fresh = resolution_value(run())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derived, "resolve_complex", reference_resolve)
        want = resolution_value(run())
    return fresh, want


@pytest.mark.parametrize("prime", ["GF(7)", "workload prime"])
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_simples_on_one_algebra_make_the_closed_form_count_of_covers(
        prime, data):
    """Resolve and coresolve every simple over kZ_n/rad^r on one
    algebra, in any order, for the (n, r) of the self-injective
    workload.  Omega S_i = rad P_i and Omega^2 S_i = S_{i+r}
    (nakayama_shift), so the simples fall into g = gcd(n, r) orbits of
    n / g.  For r >= 3 the first simple of an orbit covers the 2n / g
    syzygies of its cycle and the first one again where the cycle
    closes, and each other simple of the orbit is a syzygy of that
    cycle, read from the memo at its first step after one cover:
    2n / g + 1 + n / g - 1 = 3n / g, so 3n over the orbits.  For r = 2,
    rad P_i = S_{i+1}: one orbit whose n syzygies are the simples, and
    n + 1 + n - 1 = 2n.  The coresolutions are the same count over the
    opposite algebra, again a cyclic Nakayama algebra: 108 covers for
    the workload's six algebras.  Every run is what a fresh algebra
    builds and what the run that computes every degree builds."""
    workloads = _load_workloads()
    p = 7 if prime == "GF(7)" else workloads.workload_prime(0)
    total = 0
    for n, r in workloads.NAKAYAMA:
        A = cyclic_nakayama(PrimeField(p), n, r)
        depth = 3 * (2 * n // math.gcd(n, r)) + 1
        order = data.draw(st.permutations(
            [(i, side) for i in range(n) for side in "PI"]))
        cover, covers = derived.projective_cover, Counter()

        def counting(M):
            covers["P" if M.algebra is A else "I"] += 1
            return cover(M)

        got = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(derived, "projective_cover", counting)
            for i, side in order:
                X = S(A, i)
                got[i, side] = resolve_complex(X, bottom=-depth) \
                    if side == "P" else coresolve_complex(X, top=depth)
        per_side = (2 if r == 2 else 3) * n
        assert covers == {"P": per_side, "I": per_side}
        total += sum(covers.values())
        for (i, side), res in got.items():
            fresh, want = simple_run_elsewhere(p, n, r, i, side, depth)
            assert resolution_value(res) == fresh == want
    assert total == 108


def test_coresolution_cap_marks_cut(DUAL):
    res = coresolve_complex(S(DUAL, 0), top=3)
    assert not res.exact
    assert res.complex.approx_above == 3
    assert sorted(res.complex.parts) == [0, 1, 2, 3]


# ---- derived hom tables ----

def test_ext_between_simples(A2):
    tab = derived_hom(S(A2, 0), S(A2, 1), 0, 2)
    assert tab.dim(0) == 0
    assert tab.dim(1) == 1
    assert tab.dim(2) == 0
    back = derived_hom(S(A2, 1), S(A2, 0), 0, 2)
    assert back.dim(0) == 0 and back.dim(1) == 0


def test_ext_self_periodic(DUAL):
    tab = derived_hom(S(DUAL, 0), S(DUAL, 0), 0, 4)
    assert [tab.dim(m) for m in range(5)] == [1, 1, 1, 1, 1]


def test_ext_alternates_on_cyclic_nakayama(NAK2):
    same = derived_hom(S(NAK2, 0), S(NAK2, 0), 0, 5)
    assert [same.dim(m) for m in range(6)] == [1, 0, 1, 0, 1, 0]
    other = derived_hom(S(NAK2, 0), S(NAK2, 1), 0, 5)
    assert [other.dim(m) for m in range(6)] == [0, 1, 0, 1, 0, 1]


def test_hom_table_window_honesty(DUAL):
    Y = coresolve_complex(S(DUAL, 0), top=3).complex
    tab = derived_hom(S(DUAL, 0), Y, 0, 5)
    assert tab.valid_hi == 2
    assert sorted(tab.entries) == [0, 1, 2]
    assert all(tab.entries[m] == 1 for m in (0, 1, 2))
    with pytest.raises(AlgebraError):
        tab.dim(5)


def test_negative_homs_vanish_for_stalks(A2):
    tab = derived_hom(S(A2, 0), S(A2, 1), -2, -1)
    assert tab.dim(-1) == 0 and tab.dim(-2) == 0


# ---- class matrices and generation ----

def test_class_matrix_unimodular(A2):
    objs = [P(A2, 0), S(A2, 1, deg=-1)]
    cm = class_matrix(objs)
    assert cm == [[1, 1], [0, -1]]
    assert is_unimodular(cm)


def test_simple_stalk_profile(A2):
    assert simple_stalk_profile(S(A2, 1, deg=-4)) == (1, -4)
    assert simple_stalk_profile(resolve_complex(S(A2, 0)).complex) == (0, 0)
    assert simple_stalk_profile(P(A2, 0)) is None


def test_generation_by_simples_is_immediate(A2):
    ok, reached, used = generation_certificate([S(A2, 0), S(A2, 1)])
    assert ok and reached == [0, 1] and used == 0


def test_generation_needs_one_cone(A2):
    ok, reached, used = generation_certificate([P(A2, 0), S(A2, 1, deg=-1)])
    assert ok and reached == [0, 1]
    assert used >= 1



# The generation search as it stood when it tested each stop condition
# at every level of its loops, kept verbatim as the reference for
# (all_found, vertices, cones_used).
def reference_generation_certificate(objects, cone_budget=48):
    """Search for the simples inside the triangulated closure of the objects.

    Breadth-first over cones of chain maps between reached objects (all
    shifts within the degree spread).  Finding every simple certifies
    that the objects generate; running out of budget proves nothing.
    Returns (all_found, sorted vertex list, cones_used).
    """
    A = objects[0].algebra
    want = set(range(A.quiver.n))
    found = set()
    reached = []
    sigs = set()

    def consider(C):
        prof = simple_stalk_profile(C)
        if prof is not None:
            found.add(prof[0])

    def add(C):
        if C.is_zero():
            return
        sig = (
            tuple(sorted((n, C.parts[n]) for n in C.parts)),
            tuple(sorted(C.homology_dims().items())),
        )
        if sig in sigs:
            return
        sigs.add(sig)
        reached.append(C)
        consider(C)

    for X in objects:
        add(minimize(X, verify=False).complex)
    size_cap = 6 * max(A.dim, max((X.total_dim() for X in reached),
                                  default=A.dim))
    cones_used = 0
    if found >= want:
        return True, sorted(found), cones_used

    budget = cone_budget
    while budget > 0 and not found >= want:
        snapshot = list(reached)
        span = max((C.max_deg() - C.min_deg() for C in snapshot), default=0) + 1
        grew = False
        for U in snapshot:
            for V in snapshot:
                for s in range(-span, span + 1):
                    if budget <= 0:
                        break
                    Vs = V.shift(s)
                    maps, _ = h0_chain_maps(U, Vs)
                    for f in maps[:GENERATION_HOM_CAP]:
                        if f.is_zero() or budget <= 0:
                            continue
                        budget -= 1
                        cones_used += 1
                        Cm = minimize(cone(f), verify=False).complex
                        if Cm.total_dim() > size_cap:
                            continue
                        before = len(reached)
                        add(Cm)
                        grew = grew or len(reached) > before
                        if found >= want:
                            break
                    if found >= want:
                        break
                if found >= want or budget <= 0:
                    break
            if found >= want or budget <= 0:
                break
        if not grew:
            break
    return found >= want, sorted(found), cones_used


def _stalk_collection(A, rng):
    return [stalk_complex(A, Summand(rng.choice("PIS"),
                                     rng.randrange(A.quiver.n)),
                          rng.choice((0, -1, -2)))
            for _ in range(A.quiver.n)]


def test_generation_search_matches_the_reference_loop(NAK2):
    A3 = linear_a(QQ, 3)
    A3_rad2 = Algebra(QQ, A3.quiver, [[(1, ["a0", "a1"])]])
    rng = random.Random(0)
    samples = [_stalk_collection(rng.choice([A3, A3_rad2, NAK2]), rng)
               for _ in range(40)]
    # {P1, P3[-1], S2[-1]} over A3: tilting, yet its chain maps never
    # reach S3, so the search spends any budget it is given
    stuck = [P(A3, 0), P(A3, 2, deg=-1), S(A3, 1, deg=-1)]
    samples.append(stuck)
    outcomes = set()
    for objs in samples:
        for budget in (0, 1, 2, 3, 48):
            got = generation_certificate(objs, cone_budget=budget)
            assert got == reference_generation_certificate(
                objs, cone_budget=budget)
            ok, _, used = got
            if budget == 48:
                outcomes.add("found" if ok else
                             "spent" if used == budget else "saturated")
    assert outcomes == {"found", "saturated", "spent"}
    # its first round has more class maps than budgets 1-3 allow, so
    # each of them runs out in mid-round
    first_round = sum(1 for _ in derived._class_maps(
        [minimize(X, verify=False).complex for X in stuck]))
    assert first_round > 3
    assert [generation_certificate(stuck, cone_budget=b)[2]
            for b in (1, 2, 3, 48)] == [1, 2, 3, 48]
    assert not generation_certificate(stuck, cone_budget=48)[0]


# ---- full collection validation ----

def test_simples_are_simple_minded(A2):
    rep = validate_simple_minded([S(A2, 0), S(A2, 1)])
    assert rep["is_smc"]
    assert rep["cond1"]["status"] == "PASS"
    assert rep["cond2"]["status"] == "PASS"
    assert rep["cond3"]["status"] == "VERIFIED"


def test_shifted_collection_is_simple_minded(A2):
    rep = validate_simple_minded([S(A2, 1), S(A2, 0, deg=-1)])
    assert rep["is_smc"]
    assert rep["cond3"]["status"] == "VERIFIED"
    assert rep["cond3"]["class_matrix"] == [[0, 1], [-1, 0]]


def test_projective_simple_pair_is_simple_minded(A2):
    rep = validate_simple_minded([P(A2, 0), S(A2, 1, deg=-1)])
    assert rep["is_smc"]
    assert rep["cond3"]["status"] == "VERIFIED"


def test_projectives_fail_endomorphism_condition(A2):
    rep = validate_simple_minded([P(A2, 0), P(A2, 1)])
    assert not rep["is_smc"]
    assert rep["cond2"]["status"] == "FAIL"
    assert any(f["dim"] == 1 and f["expected"] == 0
               for f in rep["cond2"]["failures"])


def test_wrong_count_fails(A2):
    rep = validate_simple_minded([S(A2, 1)])
    assert not rep["is_smc"]
    assert rep["count"]["status"] == "FAIL"
    assert rep["cond3"]["status"] == "FAIL"


def test_negative_ext_violation_detected(DUAL):
    # the pair {S, S[1]} has maps in a negative shift on one side
    rep = validate_simple_minded([S(DUAL, 0)])
    assert rep["is_smc"]  # single simple over a local algebra
    rep2 = validate_simple_minded([S(DUAL, 0), S(DUAL, 0, deg=-1)])
    assert not rep2["is_smc"]
    assert rep2["count"]["status"] == "FAIL"


# ---- one resolution per member ----

def _hereditary(n, flips, field=QQ):
    """A_n with arrow i between vertices i and i + 1, reversed where flips[i]."""
    arrows = [(f"a{i}", i + 1, i) if flip else (f"a{i}", i, i + 1)
              for i, flip in enumerate(flips)]
    return Algebra(field, Quiver(n, arrows), [])


def _cyclic_nakayama_3_3():
    """kZ_3 / rad^3 over GF(5): self-injective, no resolution terminates."""
    arrows = [(f"x{i}", i, (i + 1) % 3) for i in range(3)]
    rels = [[(1, [f"x{(i + k) % 3}" for k in range(3)])] for i in range(3)]
    return Algebra(PrimeField(5), Quiver(3, arrows), rels, nilpotency_bound=3)


def _per_pair_failures(objects):
    """Conditions 1 and 2 as validate_simple_minded computed them when it
    handed every ordered pair of members to derived_hom unresolved."""
    mins = [minimize(X, verify=False).complex for X in objects]
    hd = [X.homology_dims() for X in mins]
    windows = [(min(h), max(h)) if h else None for h in hd]
    fail1, fail2 = [], []
    for i, Xi in enumerate(mins):
        for j, Xj in enumerate(mins):
            wi, wj = windows[i], windows[j]
            if wi is None or wj is None:
                continue
            floor = wj[0] - wi[1]
            if floor <= -1:
                tab = derived_hom(Xi, Xj, floor, -1)
                fail1 += [{"source": i, "target": j, "shift": m,
                           "dim": tab.dim(m)}
                          for m in range(floor, 0) if tab.dim(m)]
            d0 = derived_hom(Xi, Xj, 0, 0).dim(0)
            if d0 != (1 if i == j else 0):
                fail2.append({"source": i, "target": j, "dim": d0,
                              "expected": 1 if i == j else 0})
    fail2 += [{"source": i, "target": i, "dim": 0, "expected": 1}
              for i, w in enumerate(windows) if w is None]
    return fail1, fail2


def _members(n):
    """The (kind, vertex, degree) of a collection of stalks on n vertices:
    each simple in a degree of its own, sometimes with one dropped or
    with a stalk of any kind added, so that failing counts and
    projective or injective members are reached too."""
    @st.composite
    def members(draw):
        shifts = draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n))
        out = [("S", v, s) for v, s in enumerate(shifts)]
        extra = draw(st.sampled_from(["none", "none", "drop", "add"]))
        if extra == "drop":
            out.pop(draw(st.integers(0, n - 1)))
        elif extra == "add":
            out.append((draw(st.sampled_from("SPI")),
                        draw(st.integers(0, n - 1)),
                        draw(st.integers(-2, 1))))
        return out
    return members()


@st.composite
def _collections(draw):
    """(a builder of a fresh algebra, a collection, a second collection
    over the same algebra), each collection as _members gives it."""
    shape = draw(st.sampled_from(["A3", "A4", "nakayama_3_3"]))
    if shape == "nakayama_3_3":
        n, build = 3, _cyclic_nakayama_3_3
    else:
        n = int(shape[1])
        flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        build = functools.partial(_hereditary, n, flips)
    return build, draw(_members(n)), draw(_members(n))


def _stalks(A, members):
    return [stalk_complex(A, Summand(kind, v), deg)
            for kind, v, deg in members]


@settings(max_examples=100, deadline=None)
@given(_collections())
def test_validation_matches_the_per_pair_reference(drawn):
    build, members, others = drawn
    # on a fresh algebra, and on one whose validation memo the other
    # collection filled first
    for warm in (None, others):
        A = build()
        if warm is not None:
            validate_simple_minded(_stalks(A, warm))
        objects = _stalks(A, members)
        rep = validate_simple_minded(objects)
        fail1, fail2 = _per_pair_failures(objects)
        assert rep["cond1"] == {"status": "FAIL" if fail1 else "PASS",
                                "failures": fail1}
        assert rep["cond2"] == {"status": "FAIL" if fail2 else "PASS",
                                "failures": fail2}
        assert rep["is_smc"] == (rep["count"]["status"] == "PASS"
                                 and not fail1 and not fail2
                                 and rep["cond3"]["status"] != "FAIL")


def test_validation_resolves_each_member_once(monkeypatch):
    A5 = _hereditary(5, [False, False, True, True])
    objects = [S(A5, v, deg=-(v % 2)) for v in range(5)]
    calls = []

    def counting(X, *args, **kwargs):
        calls.append(X)
        return resolve_complex(X, *args, **kwargs)

    monkeypatch.setattr(derived, "resolve_complex", counting)
    validate_simple_minded(objects)
    assert len(calls) == 5
    assert len({X.describe() for X in calls}) == 5


def test_the_ext_model_reads_the_resolutions_validation_made(monkeypatch):
    """Validation resolves each member to the default bottom, the one
    collection_ext_model asks for, so that on kZ_3/rad^4, where no
    resolution terminates, the A-infinity stage reads every member's
    resolution from the memo: it raises what it raises on a fresh
    algebra, and resolves and covers nothing."""
    def simples():
        A = cyclic_nakayama(PrimeField(5), 3, 4)
        return [S(A, v) for v in range(3)]

    with pytest.raises(AInfError) as cold:
        collection_ext_model(simples())
    objects = simples()
    validate_simple_minded(objects)
    calls = []
    resolve, cover = derived.resolve_complex, derived.projective_cover
    monkeypatch.setattr(derived, "resolve_complex",
                        lambda *a, **k: calls.append(a) or resolve(*a, **k))
    monkeypatch.setattr(derived, "projective_cover",
                        lambda M: calls.append(M) or cover(M))
    with pytest.raises(AInfError) as warm:
        collection_ext_model(objects)
    assert type(warm.value) is type(cold.value)
    assert str(warm.value) == str(cold.value)
    assert calls == []


# ---- the hereditary benchmark family on one algebra ----

def _load_workloads():
    """bench/workloads.py, which generates the benchmark's jobs and
    imports nothing of tiltlab."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hereditary_family(seed):
    """(job dict, parsed job) for the 32 collections of simples shifted by
    0 or -1 on one relabelled A5, as the benchmark builds them at seed;
    all parsed before any runs, so every job holds one algebra, a fresh
    one once no earlier job holds it."""
    gc.collect()
    jobs = [(data, parse_job(data, name=name))
            for name, data in _load_workloads().hereditary_jobs(seed)]
    assert len({id(job["algebra"]) for _, job in jobs}) == 1
    return jobs


@pytest.mark.parametrize("seed", [0, 3])
def test_the_hereditary_family_fails_orthogonality_exactly_at_its_arrows(
        seed):
    # S_v sits in degree s_v.  A is hereditary, so Ext^{>=2} = 0, and
    # Ext^1(S_i, S_j) has one dimension per arrow i -> j.  Between
    # degrees 0 and -1 no negative shift reaches Hom or Ext^1, so
    # condition 1 holds, and Hom(S_i, S_j[0]) = Ext^1(S_i, S_j) is
    # nonzero exactly when i -> j and (s_i, s_j) = (0, -1).
    for data, job in _hereditary_family(seed):
        shifts = data["objects"]["shifts"]
        arrows = Counter((a["from"] - 1, a["to"] - 1)
                         for a in data["quiver"]["arrows"])
        rep = validate_simple_minded(job["objects"])
        assert rep["cond1"] == {"status": "PASS", "failures": []}
        want = [{"source": i, "target": j, "dim": arrows[i, j],
                 "expected": 0}
                for i in range(5) for j in range(5)
                if arrows[i, j] and (shifts[i], shifts[j]) == (0, -1)]
        assert rep["cond2"] == {"status": "FAIL" if want else "PASS",
                                "failures": want}


def test_validation_asks_each_stalk_pair_once_per_algebra(monkeypatch):
    jobs = _hereditary_family(0)
    assert not jobs[0][1]["algebra"].validation_memo
    homs, resolutions = [], []

    def counting_hom(X, Y, *args):
        homs.append((X, Y))
        return derived_hom(X, Y, *args)

    def counting_resolution(X, *args):
        resolutions.append(X)
        return member_resolution(X, *args)

    monkeypatch.setattr(derived, "derived_hom", counting_hom)
    monkeypatch.setattr(derived, "member_resolution", counting_resolution)
    # a pair of stalks is its two tag tuples and the distance between
    # their degrees
    pairs = {(X.parts[X.min_deg()], Y.parts[Y.min_deg()],
              Y.min_deg() - X.min_deg())
             for _, job in jobs for X in job["objects"]
             for Y in job["objects"]}
    for _, job in jobs:
        validate_simple_minded(job["objects"])
    # 5 pairs of a simple with itself, 20 ordered pairs of two simples
    # at 3 distances; the 32 jobs ask 32 * 25 = 800
    assert len(homs) == len(pairs) == 5 + 20 * 3
    # on the warm algebra every pair is read: nothing is resolved
    homs.clear()
    resolutions.clear()
    for _, job in jobs:
        validate_simple_minded(job["objects"])
    assert homs == resolutions == []

"""Direct sums by block offsets, and minimization without witnesses.

map_slice and map_placement are checked against the composition through
dense inclusion and projection matrices that direct_sum_modules used to
return; that construction is kept here as the reference.  minimize
without verify must reach the same complex as with it, on cones of
random chain maps between random bounded complexes, and cancel the
blocks that the elimination by whole-complex steps, kept here as the
reference, cancels.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab import complexes
from tiltlab.algebra import (Algebra, Module, ModuleMap, Quiver,
                             direct_sum_modules, map_placement, map_slice)
from tiltlab.complexes import (ChainMap, Complex, Summand, cone,
                               direct_sum_complexes, h0_chain_maps, minimize,
                               stalk_complex, tag_module)
from tiltlab.derived import resolve_complex
from tiltlab.linalg import Mat, PrimeField, QQ

FIELDS = {"Q": QQ, "GF5": PrimeField(5)}

ALGEBRAS = {
    "A2": lambda f: Algebra(f, Quiver(2, [("a", 0, 1)]), []),
    "A3/ab": lambda f: Algebra(
        f, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [[(1, ["a", "b"])]]),
    "kronecker": lambda f: Algebra(
        f, Quiver(2, [("a", 0, 1), ("b", 0, 1)]), []),
    "dual": lambda f: Algebra(
        f, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]], nilpotency_bound=2),
    "nak2": lambda f: Algebra(
        f, Quiver(2, [("a", 0, 1), ("b", 1, 0)]),
        [[(1, ["a", "b"])], [(1, ["b", "a"])]], nilpotency_bound=2),
    # an isolated vertex: every map has vertices where one side is zero
    "A2+pt": lambda f: Algebra(f, Quiver(3, [("a", 0, 1)]), []),
}


def dense_arrow(M, a):
    """The matrix of arrow a on M, empty where the support format leaves
    it out."""
    s, t = M.algebra.quiver.source(a), M.algebra.quiver.target(a)
    m = M.mats.get(a)
    return Mat.zeros(M.algebra.field, M.dims[s], M.dims[t]) if m is None \
        else m


def dense_blocks(F):
    """The blocks of a module map at every vertex, with the empty ones
    that the support format leaves out."""
    f = F.source.algebra.field
    return [Mat.zeros(f, F.source.dims[v], F.target.dims[v])
            if F.block(v) is None else F.block(v)
            for v in range(F.source.algebra.quiver.n)]


def from_dense(source, target, blocks):
    """The module map with blocks[v] at every vertex v; the empty blocks
    are left out, as the support format asks."""
    return ModuleMap(source, target, {v: b for v, b in enumerate(blocks)
                                      if b.nrows and b.ncols})


def reference_sum(algebra, mods):
    """The sum module and its (inclusion, projection) pairs, assembled
    entry by entry as direct_sum_modules did before offsets."""
    f = algebra.field
    n = algebra.quiver.n
    if len(mods) == 1:
        ident = ModuleMap.identity(mods[0])
        return mods[0], [(ident, ident)]
    dims = tuple(sum(m.dims[v] for m in mods) for v in range(n))
    mats = {}
    for a, (_, s, t) in enumerate(algebra.quiver.arrows):
        big = [[f.zero()] * dims[t] for _ in range(dims[s])]
        ro = co = 0
        for m in mods:
            blk = dense_arrow(m, a)
            for r in range(blk.nrows):
                for c in range(blk.ncols):
                    big[ro + r][co + c] = blk[r, c]
            ro += m.dims[s]
            co += m.dims[t]
        mats[a] = Mat(f, big, ncols=dims[t])
    total = Module(algebra, dims, {a: m for a, m in mats.items()
                                   if m.nrows and m.ncols})
    maps = []
    offs = [0] * n
    for m in mods:
        inc_blocks = []
        for v in range(n):
            rows = [[f.one() if c == offs[v] + r else f.zero()
                     for c in range(dims[v])] for r in range(m.dims[v])]
            inc_blocks.append(Mat(f, rows, ncols=dims[v]))
        maps.append((from_dense(m, total, inc_blocks),
                     from_dense(total, m, [b.transpose() for b in inc_blocks])))
        offs = [o + d for o, d in zip(offs, m.dims)]
    return total, maps


def random_indecomposables(A, rng):
    kinds = [rng.choice("PIS") for _ in range(rng.randint(2, 4))]
    return [tag_module(A, Summand(k, rng.randrange(A.quiver.n))) for k in kinds]


def random_linear_map(source, target, rng):
    """Vertexwise random matrices; not a module map in general, so every
    entry of a block tells where it was read from."""
    f = source.algebra.field
    return from_dense(source, target, [
        Mat(f, [[f.of(rng.randrange(-3, 4)) for _ in range(target.dims[v])]
                for _ in range(source.dims[v])], ncols=target.dims[v])
        for v in range(source.algebra.quiver.n)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_slice_and_placement_match_inclusion_and_projection(
        seed, field_key, algebra_key):
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    src_mods = random_indecomposables(A, rng)
    tgt_mods = random_indecomposables(A, rng)
    S, src_offsets = direct_sum_modules(A, src_mods)
    T, tgt_offsets = direct_sum_modules(A, tgt_mods)
    S_ref, src_maps = reference_sum(A, src_mods)
    T_ref, tgt_maps = reference_sum(A, tgt_mods)
    assert S == S_ref and T == T_ref
    assert all(inc.commutes() for inc, _ in src_maps)

    F = random_linear_map(S, T, rng)
    for k, (inc, _) in enumerate(src_maps):
        for l, (_, proj) in enumerate(tgt_maps):
            got = map_slice(F, src_mods[k], src_offsets[k],
                            tgt_mods[l], tgt_offsets[l])
            assert got == inc.then(F).then(proj)

    blocks = {(k, l): random_linear_map(src_mods[k], tgt_mods[l], rng)
              for k in range(len(src_mods)) for l in range(len(tgt_mods))
              if rng.random() < 0.6}
    placed = map_placement(S, src_offsets, T, tgt_offsets, blocks)
    want = ModuleMap.zero(S, T)
    for (k, l), b in blocks.items():
        want = want.add(src_maps[k][1].then(b).then(tgt_maps[l][0]))
    assert placed == want
    for k in range(len(src_mods)):
        for l in range(len(tgt_mods)):
            back = map_slice(placed, src_mods[k], src_offsets[k],
                             tgt_mods[l], tgt_offsets[l])
            assert back == blocks.get(
                (k, l), ModuleMap.zero(src_mods[k], tgt_mods[l]))


def random_complex(A, rng):
    """A direct sum of shifted stalks and cut projective resolutions."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        shift = rng.randint(-1, 1)
        tag = Summand(rng.choice("PIS"), rng.randrange(A.quiver.n))
        X = stalk_complex(A, tag, shift)
        if rng.random() < 0.5:
            X = resolve_complex(X, bottom=shift - 2).complex
        pieces.append(X)
    return direct_sum_complexes(pieces)


def random_chain_map(X, Y, rng):
    f = X.algebra.field
    maps, _ = h0_chain_maps(X, Y)
    if X is Y:
        maps.append(ChainMap.identity(X))
    acc = ChainMap.zero(X, Y)
    for m in maps:
        acc = acc.add(m.scale(f.of(rng.randrange(-2, 3))))
    return acc


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_minimize_without_witnesses_reaches_the_same_complex(
        seed, field_key, algebra_key):
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    X = random_complex(A, rng)
    Y = X if rng.random() < 0.3 else random_complex(A, rng)
    C = cone(random_chain_map(X, Y, rng))
    if rng.random() < 0.5:
        Z = random_complex(A, rng)
        C = cone(random_chain_map(Z, C, rng))

    fast = minimize(C, verify=False)
    assert (fast.to_min, fast.from_min, fast.homotopy) == (None, None, None)
    full = minimize(C)  # raises when a witness fails its check
    assert fast.complex == full.complex
    assert full.to_min.commutes() and full.from_min.commutes()


# The elimination as minimize ran it before it worked in place: every
# cancellation built a new Complex over every degree.  Kept verbatim as
# the reference for the cancelled blocks and the result.

def _find_cancellable(X: Complex, start):
    """The first iso block (n, k, l) in degrees n >= start, if any."""
    for n in sorted(m for m in X.blocks if m >= start):
        grid = X.blocks[n]
        # row by row: which block is cancelled first decides the result
        for k, l in sorted(grid):
            blk = grid[k, l]
            if blk.is_iso():
                return n, k, l
    return None


def _drop_index(parts, idx):
    return tuple(p for i, p in enumerate(parts) if i != idx)


def _cancel_step(X: Complex, n, k, l):
    """Cancel summand k of degree n against summand l of degree n+1.

    Returns the smaller complex and phi_inv, a function that gives the
    inverse of the cancelled block.  The inverse is computed on the first
    call only, and the step itself calls it only for a Schur correction
    (a block in column l and one in row k besides the cancelled one)."""
    algebra = X.algebra
    phi_inv = functools.cache(X.blocks[n][k, l].inverse)
    minus_one = algebra.field.of(-1)

    new_parts = dict(X.parts)
    new_parts[n] = _drop_index(X.parts[n], k)
    new_parts[n + 1] = _drop_index(X.parts[n + 1], l)

    def drop(i, gone):
        return i - (i > gone)

    grid = X.blocks[n]
    new_blocks = dict(X.blocks)
    new_blocks[n] = {(drop(a, k), drop(b, l)): blk
                     for (a, b), blk in grid.items() if a != k and b != l}
    column = [(a, gamma) for (a, b), gamma in grid.items() if b == l and a != k]
    row = [(b, beta) for (a, b), beta in grid.items() if a == k and b != l]
    for a, gamma in column:
        for b, beta in row:
            corr = gamma.then(phi_inv()).then(beta).scale(minus_one)
            key = (drop(a, k), drop(b, l))
            delta = new_blocks[n].get(key)
            new_blocks[n][key] = corr if delta is None else delta.add(corr)
    if n - 1 in X.blocks:
        new_blocks[n - 1] = {(a, drop(b, k)): blk for (a, b), blk
                             in X.blocks[n - 1].items() if b != k}
    if n + 1 in X.blocks:
        new_blocks[n + 1] = {(drop(a, l), b): blk for (a, b), blk
                             in X.blocks[n + 1].items() if a != l}
    # the constructor drops the dicts of degrees that lost all summands
    Y = Complex(algebra, new_parts, new_blocks, approx_above=X.approx_above,
                approx_below=X.approx_below)
    return Y, phi_inv


def reference_minimize(X):
    """minimize(X, verify=False) by the reference: after each
    cancellation the search for an iso block restarts at the lowest
    degree.  Returns the minimal complex and the (n, k, l) cancelled."""
    steps = []
    while True:
        found = _find_cancellable(X, min(X.blocks, default=0))
        if found is None:
            return X, steps
        steps.append(found)
        X, _ = _cancel_step(X, *found)


def recording_cancel(record):
    """complexes._cancel, reporting to record each cancellation's state
    before it runs: (n, k, l) in the positions of the complex that the
    cancellations so far leave, and the dict of degree n."""
    cancel = complexes._cancel

    def recording(grids, ids, n, k, l, inverse):
        record((n, ids[n].index(k), ids[n + 1].index(l)), grids[n], k, l)
        return cancel(grids, ids, n, k, l, inverse)
    return recording


def block_value(blk):
    return blk.source.dims, tuple(b.data for b in blk.blocks.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_minimize_cancels_what_a_scan_from_the_lowest_degree_finds(
        seed, field_key, algebra_key):
    A = ALGEBRAS[algebra_key](FIELDS[field_key])
    rng = random.Random(seed)
    X = random_complex(A, rng)
    C = cone(random_chain_map(X, random_complex(A, rng), rng))
    if rng.random() < 0.5:
        C = cone(random_chain_map(random_complex(A, rng), C, rng))
    want, want_steps = reference_minimize(C)

    steps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_cancel", recording_cancel(
            lambda step, grid, k, l: steps.append(step)))
        got = minimize(C, verify=False).complex
    assert steps == want_steps
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(sorted(FIELDS)),
       st.sampled_from(sorted(ALGEBRAS)))
def test_minimize_inverts_a_cancelled_block_only_where_it_is_read(
        seed, field_key, algebra_key):
    """Without witnesses a cancelled block is inverted only for a Schur
    correction, when its column and its row each hold another block;
    with them, for every cancellation.  The algebra inverts each block
    value once, so on a fresh algebra the inversions are the distinct
    values among those blocks."""
    inverse = ModuleMap.inverse
    for verify in (False, True):
        A = ALGEBRAS[algebra_key](FIELDS[field_key])
        rng = random.Random(seed)
        C = cone(random_chain_map(random_complex(A, rng),
                                  random_complex(A, rng), rng))
        cancelled, corrected, inversions = set(), set(), []

        def record(step, grid, k, l):
            value = block_value(grid[k, l])
            cancelled.add(value)
            if any(b == l and a != k for a, b in grid) and \
                    any(a == k and b != l for a, b in grid):
                corrected.add(value)

        def counting(m):
            inversions.append(m)
            return inverse(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes, "_cancel", recording_cancel(record))
            mp.setattr(ModuleMap, "inverse", counting)
            minimize(C, verify=verify)
        assert len(inversions) == len(cancelled if verify else corrected)


def test_minimize_scans_each_degree_row_by_row():
    """The first iso block row by row is cancelled first: here (0, 1),
    which comes after (1, 0) column by column."""
    A = ALGEBRAS["A2"](QQ)
    P = Summand("P", 0)
    ident = ModuleMap.identity(A.projective(0))
    C = Complex(A, {0: (P, P), 1: (P, P)}, {0: {(1, 0): ident, (0, 1): ident}})
    steps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_cancel", recording_cancel(
            lambda step, grid, k, l: steps.append(step)))
        assert minimize(C, verify=False).complex.is_zero()
    assert steps == reference_minimize(C)[1] == [(0, 0, 1), (0, 0, 0)]


def test_minimize_returns_a_minimal_complex_itself():
    A = ALGEBRAS["A3/ab"](QQ)
    X = resolve_complex(stalk_complex(A, Summand("S", 0))).complex
    assert X.blocks
    assert minimize(X, verify=False).complex is X
    res = minimize(X)
    assert res.complex is X and res.homotopy == {}


@pytest.mark.parametrize("verify", [False, True])
def test_minimize_tells_equal_rows_on_different_vertices_apart(verify):
    """The identities of S_1 and of S_2 have the same rows, at different
    vertices; the memo must keep their tests and inverses apart."""
    A = ALGEBRAS["A2"](QQ)
    pieces = []
    for v in (0, 1, 0):
        S = stalk_complex(A, Summand("S", v), v)
        pieces.append(cone(ChainMap.identity(S)))
    C = direct_sum_complexes(pieces)
    assert minimize(C, verify=verify).complex.is_zero()

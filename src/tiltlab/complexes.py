"""Bounded complexes of modules, tagged by indecomposable summand.

Every complex in the pipeline is a direct sum of projectives, injectives
and simples in each degree, and remembers which.  Differentials are kept
as block matrices of module maps between those summands, which is what
makes Gaussian minimization and the blockwise functor transport work.
A direct sum is its sum module plus, for each summand, the offset where
the summand starts at every vertex (Complex.offsets).  A summand block
of a map is read with algebra.map_slice, and a map is assembled from
blocks with algebra.map_placement; no inclusion or projection matrices
are multiplied.  A differential is stored in the format map_placement
reads: the dict {(k, l): block} of its nonzero summand blocks.  These
dicts are shared between complexes (an even shift, the degrees a
cancellation leaves alone, a copied period of a resolution), so nothing
writes into one after the complex that holds it is built.

The terms of every complex are sums drawn from the same few
indecomposables, so the algebra keeps a memo: one sum module per tag
tuple (summand_sum), one hom basis with its coordinate solver per
pair of tag tuples (hom_block), minimize's iso test and inverse per
block value and its Schur correction per value of the three blocks it
is formed from, and extend_along's solution, with its summand blocks,
per degree state.  It lives as long as the algebra, so every job on
the algebra reads what earlier ones built; over a self-injective
algebra, whose coresolutions never stop but repeat, each periodic
piece of the cone iteration is solved once per algebra.

Constructing a Complex or a ChainMap never checks it: Complex.validate
(block keys, block shapes, module maps, d^2 = 0) and ChainMap.commutes
are the checks, and a caller that needs one calls it.

A complex may carry approx_above = t, meaning: the stored complex is the
brutal truncation to degrees <= t of an object that truly continues
higher (a cut coresolution).  Stored components are genuine; what is
missing is everything above, so homology at the cut edge cannot be
trusted.  approx_below = b is the mirror marker for cut resolutions.
Operations propagate the markers and re-cut so the convention holds.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .algebra import (
    Algebra,
    AlgebraError,
    Module,
    ModuleMap,
    direct_sum_modules,
    hom_basis,
    map_placement,
    map_slice,
)
from .linalg import Echelon, Mat, Subquotient, homology_dims

Summand = namedtuple("Summand", ["kind", "vertex"])  # kind: "P" | "I" | "S"


def tag_module(algebra: Algebra, tag: Summand) -> Module:
    if tag.kind == "P":
        return algebra.projective(tag.vertex)
    if tag.kind == "I":
        return algebra.injective(tag.vertex)
    if tag.kind == "S":
        return algebra.simple(tag.vertex)
    raise AlgebraError(f"unknown summand kind {tag.kind!r}")


def summand_sum(algebra: Algebra, tags):
    """(sum module, offsets) of the tagged summands, shared per tag tuple
    through the algebra's memo."""
    got = algebra.sum_memo.get(tags)
    if got is None:
        got = algebra.sum_memo[tags] = direct_sum_modules(
            algebra, [tag_module(algebra, t) for t in tags])
    return got


def hom_block(algebra: Algebra, src, tgt):
    """(hom_basis of the sums of two tag tuples, Echelon of the flattened
    basis maps, or None when the basis is empty), shared per pair of tag
    tuples through the algebra's memo.  The basis maps are
    independent, so the Echelon keeps each one under its own index."""
    key = (src, tgt)
    got = algebra.hom_memo.get(key)
    if got is None:
        maps = hom_basis(summand_sum(algebra, src)[0],
                         summand_sum(algebra, tgt)[0])
        got = algebra.hom_memo[key] = (maps, Echelon(Mat(
            algebra.field, [_flatten_map(h) for h in maps])) if maps else None)
    return got


def extend_along(iota, maps):
    """Chain maps I -> T extending each g: X -> T along iota: X -> I.

    X is a stalk in degree s, iota its coaugmentation into a
    coresolution I (exact in every degree but its top), and every map
    in maps goes into one complex of injectives T.  The extension is
    built degree by degree (the comparison theorem, Weibel, An
    Introduction to Homological Algebra, 2.3): in degree s it solves
    iota^s then e^s = g^s, and above s it solves d_I then e^k =
    e^{k-1} then d_T, over the hom_block basis of (I^k, T^k), one solve
    for all maps.  The solve cannot fail: iota^s is injective, and above
    s the right side vanishes on the kernel of d_I, which is the image
    of iota^s (X has no differential) or of d_I (d_T^2 = 0) since I is
    exact there; T^k is injective, so the right side extends.  A
    failure therefore means a caller broke these conditions, and it
    raises.

    Above s, step k reads only its state: the tags of I and T in
    degrees k - 1 and k, the degree-(k - 1) block dicts of d_I and d_T,
    and every map's component e^{k-1}.  The tags fix the hom_block
    basis and the modules, the blocks fix d_I and d_T, and the solve
    and the sum of basis maps are deterministic, so one state always
    gives the same e^k, in every call on the algebra.  Each distinct
    state is therefore solved once per algebra, through its memo, and a
    repeat copies the e^k it gave (the same ModuleMap objects), as
    resolve_complex copies a recurring syzygy's period.  States are
    compared by value (the rows of every vertex block), so a period of I
    or T repeats even where its block dicts are not shared.  Over
    kZ_n/rad^r a coresolution repeats with a short period, and most of
    the degrees up to the cut repeat a state; so do the rounds and
    companions of a cone iteration, which extend along the same few
    coresolutions into targets that share their periods.

    Each solution also keeps every e^k's nonzero summand blocks, sliced
    once, and the chain maps carry them (ChainMap.grid), so cone reads
    them instead of slicing the components again.
    """
    X, I = iota.source, iota.target
    T = maps[0].target
    A = I.algebra
    (s,) = X.parts
    comps = [{} for _ in maps]
    grids = [{} for _ in maps]
    for k in range(s, I.max_deg() + 1):
        if k == s:
            got = _extension_step(A, k, I, T, iota.comp(s),
                                  [g.comp(s) for g in maps])
        else:
            state = (I.parts.get(k - 1, ()), I.parts.get(k, ()),
                     T.parts.get(k - 1, ()), T.parts.get(k, ()),
                     _grid_value(I.blocks.get(k - 1, {})),
                     _grid_value(T.blocks.get(k - 1, {})),
                     tuple(_map_value(c[k - 1]) if k - 1 in c else None
                           for c in comps))
            got = A.extension_memo.get(state)
            if got is None:
                pre = I.d_full(k - 1)
                d_T = T.d_full(k - 1)
                rhs = [c[k - 1].then(d_T) if k - 1 in c
                       else ModuleMap.zero(pre.source, d_T.target)
                       for c in comps]
                got = A.extension_memo[state] = _extension_step(
                    A, k, I, T, pre, rhs)
        for c, grid, (e, blocks) in zip(comps, grids, got):
            if e is not None:
                c[k], grid[k] = e, blocks
    return [ChainMap(I, T, c, grid) for c, grid in zip(comps, grids)]


def _extension_step(A, k, I, T, pre, rhs):
    """The maps e: I^k -> T^k with pre then e = r, one per r in rhs, as
    combinations of the hom_block basis, each with its nonzero summand
    blocks; (None, None) for a zero map."""
    f = A.field
    basis, _ = hom_block(A, I.parts.get(k, ()), T.parts.get(k, ()))
    cols = [_flatten_map(r) for r in rhs]
    if not basis:
        if any(x for col in cols for x in col):
            raise AlgebraError(f"no extension along the coaugmentation "
                               f"in degree {k}")
        return [(None, None)] * len(rhs)
    M = Mat(f, [_flatten_map(pre.then(h)) for h in basis])
    sol = M.transpose().solve(Mat(f, list(zip(*cols)), ncols=len(cols)))
    if sol is None:
        raise AlgebraError(f"no extension along the coaugmentation "
                           f"in degree {k}")
    es = []
    for i in range(len(rhs)):
        acc = None
        for b, h in enumerate(basis):
            x = sol[b, i]
            if x:
                acc = h.scale(x) if acc is None else acc.add(h.scale(x))
        blocks = None if acc is None else _nonzero_blocks(
            A, acc, I.parts.get(k, ()), T.parts.get(k, ()))
        es.append((acc, blocks))
    return es


def _nonzero_blocks(A, m, src, tgt):
    """The nonzero summand blocks {(k, l): block} of m, a map between the
    sums of the tag tuples src and tgt, sliced in the order of their
    positions."""
    rows, cols = summand_sum(A, src)[1], summand_sum(A, tgt)[1]
    sliced = (((k, l), map_slice(m, tag_module(A, u), rows[k],
                                 tag_module(A, v), cols[l]))
              for k, u in enumerate(src) for l, v in enumerate(tgt))
    return {kl: b for kl, b in sliced if not b.is_zero()}


def _map_value(m: ModuleMap):
    """A module map by value: the rows of its vertex blocks.  Maps
    between the same two modules have the same vertices, so the rows
    fix the map."""
    return tuple(b.data for b in m.blocks.values())


def _grid_value(grid):
    """A block dict by value."""
    return tuple(sorted((kl, _map_value(b)) for kl, b in grid.items()))


def zero_module(algebra: Algebra) -> Module:
    return Module(algebra, (0,) * algebra.quiver.n, {})


def _combine_approx(*vals):
    finite = [v for v in vals if v is not None]
    return min(finite) if finite else None


def _combine_below(*vals):
    finite = [v for v in vals if v is not None]
    return max(finite) if finite else None


class Complex:
    """parts: {degree: tuple of Summand}; blocks: {degree: block dict}.

    blocks[n][(k, l)] is the ModuleMap from summand k of degree n to
    summand l of degree n+1; an absent key is a zero block.  A degree's
    dict is kept only when it is nonempty and both its degrees have
    summands.  The dicts are kept as given, not copied, and may be shared
    with other complexes, so they are never written after construction.
    Construction does not check the blocks; validate() does.
    """

    def __init__(self, algebra, parts, blocks, approx_above=None,
                 approx_below=None):
        self.algebra = algebra
        self.parts = {int(n): tuple(p) for n, p in parts.items() if p}
        self.blocks = {int(n): grid for n, grid in blocks.items()
                       if grid and int(n) in self.parts
                       and int(n) + 1 in self.parts}
        self.approx_above = approx_above
        self.approx_below = approx_below
        self._sums = {}
        self._dfull = {}
        self._homology = None
        self._negated = {}  # id of a block dict held here -> its negation

    # ---- structure access ----

    def support(self):
        return sorted(self.parts)

    def min_deg(self):
        return min(self.parts) if self.parts else 0

    def max_deg(self):
        return max(self.parts) if self.parts else 0

    def is_zero(self):
        return not self.parts

    def module(self, n):
        """The sum module of degree n.  It is summand_sum's module for the
        degree's tag tuple, held in the algebra's memo for as long as the
        algebra lives, so complexes over one algebra share it, and so do
        their maps."""
        return self._sum(n)[0]

    def offsets(self, n):
        """offsets(n)[k][v]: where summand k of degree n starts at vertex v."""
        return self._sum(n)[1]

    def _sum(self, n):
        got = self._sums.get(n)
        if got is None:
            got = self._sums[n] = summand_sum(self.algebra,
                                              self.parts.get(n, ()))
        return got

    def block(self, n, k, l):
        """The (k, l) block of the degree-n differential; None for zero."""
        return self.blocks.get(n, {}).get((k, l))

    def negated(self, n):
        """The block dict of -d in degree n, never to be written into:
        one per dict object, so degrees that share a dict share it."""
        grid = self.blocks.get(n)
        if grid is not None and id(grid) not in self._negated:
            self._negated[id(grid)] = {
                kl: b.scale(-1) for kl, b in grid.items()}
        return {} if grid is None else self._negated[id(grid)]

    def d_full(self, n):
        """Differential as one ModuleMap; zero map when a side is absent."""
        if n in self._dfull:
            return self._dfull[n]
        acc = map_placement(self.module(n), self.offsets(n), self.module(n + 1),
                            self.offsets(n + 1), self.blocks.get(n, {}))
        self._dfull[n] = acc
        return acc

    def dims_at(self, n):
        return self.module(n).dims

    def total_dim(self):
        return sum(self.module(n).total for n in self.parts)

    def validate(self):
        for n, grid in self.blocks.items():
            src_tags = self.parts[n]
            tgt_tags = self.parts[n + 1]
            for (k, l), blk in grid.items():
                if not (0 <= k < len(src_tags) and 0 <= l < len(tgt_tags)):
                    raise AlgebraError(
                        f"block key {(k, l)} outside degree {n}")
                sm = tag_module(self.algebra, src_tags[k])
                tm = tag_module(self.algebra, tgt_tags[l])
                if blk.source.dims != sm.dims or blk.target.dims != tm.dims:
                    raise AlgebraError("block shape does not match its tags")
                if not blk.commutes():
                    raise AlgebraError("differential block is not a module map")
        for n in self.parts:
            if (n + 1) in self.parts and (n + 2) in self.parts:
                comp = self.d_full(n).then(self.d_full(n + 1))
                if not comp.is_zero():
                    raise AlgebraError(f"d^2 != 0 at degree {n}")
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and other.algebra is self.algebra
            and other.parts == self.parts
            and other.blocks == self.blocks
            and other.approx_above == self.approx_above
            and other.approx_below == self.approx_below
        )

    def describe(self):
        out = []
        for n in self.support():
            tags = ",".join(f"{t.kind}{t.vertex + 1}" for t in self.parts[n])
            out.append(f"[{n}: {tags}]")
        return " ".join(out) if out else "[0]"

    # ---- operations ----

    def shift(self, m):
        """Degree shift: result at n is this complex at n + m.  An odd
        shift negates d, and records that the negations of its dicts are
        this complex's: a cone or a second odd shift reads them back."""
        if m == 0:
            return self
        parts = {n - m: p for n, p in self.parts.items()}
        read = self.negated if m % 2 else self.blocks.get
        blocks = {n - m: read(n) for n in self.blocks}
        above = None if self.approx_above is None else self.approx_above - m
        below = None if self.approx_below is None else self.approx_below - m
        Y = Complex(self.algebra, parts, blocks, approx_above=above,
                    approx_below=below)
        if m % 2:
            Y._negated.update((id(blocks[n - m]), grid)
                              for n, grid in self.blocks.items())
        return Y

    def cut_above(self, t):
        """Drop degrees above t and record the cut."""
        if t is None:
            return self
        parts = {n: p for n, p in self.parts.items() if n <= t}
        blocks = {n: g for n, g in self.blocks.items() if n + 1 <= t}
        above = _combine_approx(self.approx_above, t)
        return Complex(self.algebra, parts, blocks, approx_above=above,
                       approx_below=self.approx_below)

    def cut_below(self, b):
        if b is None:
            return self
        parts = {n: p for n, p in self.parts.items() if n >= b}
        blocks = {n: g for n, g in self.blocks.items() if n >= b}
        below = _combine_below(self.approx_below, b)
        return Complex(self.algebra, parts, blocks, approx_above=self.approx_above,
                       approx_below=below)

    def homology_dims(self):
        """{n: dimension vector of H^n} over the support, from the ranks
        of the differential's vertex blocks (untrustworthy outside
        (approx_below, approx_above)).

        A complex is fixed at construction, so the dict is computed on
        the first call and kept, as the sum modules and differentials
        are; every later call returns the same dict, never to be written
        into.
        """
        if self._homology is not None:
            return self._homology
        d = {n: self.d_full(n) for n in self.blocks}
        for n in d:
            if n + 1 in d and not d[n].then(d[n + 1]).is_zero():
                raise AlgebraError("homology: image not inside kernel")
        degrees = self.support()
        # an empty vertex block has rank 0, as an absent degree has
        per_vertex = [
            homology_dims({n: self.dims_at(n)[v] for n in degrees},
                          {n: b for n, dn in d.items()
                           if (b := dn.block(v)) is not None})
            for v in range(self.algebra.quiver.n)]
        out = {}
        for n in degrees:
            dims = tuple(h.get(n, 0) for h in per_vertex)
            if any(dims):
                out[n] = dims
        self._homology = out
        return out


def stalk_complex(algebra, tag, degree=0, approx_above=None):
    return Complex(algebra, {degree: (tag,)}, {}, approx_above=approx_above)


def zero_complex(algebra):
    return Complex(algebra, {}, {})


def direct_sum_complexes(complexes):
    if not complexes:
        raise AlgebraError("empty direct sum")
    algebra = complexes[0].algebra
    parts = {}
    blocks = {}
    for X in complexes:
        # each member's keys move past the summands of the members before it
        for n, grid in X.blocks.items():
            dk, dl = len(parts.get(n, ())), len(parts.get(n + 1, ()))
            blocks.setdefault(n, {}).update(
                ((k + dk, l + dl), b) for (k, l), b in grid.items())
        for n, p in X.parts.items():
            parts.setdefault(n, []).extend(p)
    above = _combine_approx(*[X.approx_above for X in complexes])
    below = _combine_below(*[X.approx_below for X in complexes])
    S = Complex(algebra, {n: tuple(p) for n, p in parts.items()},
                blocks, approx_above=above, approx_below=below)
    return S.cut_above(above).cut_below(below)


class ChainMap:
    """Degreewise module maps commuting with the differentials: comps is
    {degree: ModuleMap}, an absent degree a zero component.  Construction
    does not check that they commute; commutes() does.

    grids, when the builder has them (extend_along), is {degree: the
    nonzero summand blocks {(k, l): block} of that component}, in the
    format of Complex.blocks; grid() reads it, or slices a component
    when it is None."""

    def __init__(self, source: Complex, target: Complex, comps, grids=None):
        self.source = source
        self.target = target
        self.comps = {int(n): c for n, c in comps.items()}
        self.grids = grids

    def comp(self, n):
        c = self.comps.get(n)
        if c is None:
            return ModuleMap.zero(self.source.module(n), self.target.module(n))
        return c

    def commutes(self):
        degrees = set(self.source.parts) | set(self.target.parts)
        for n in degrees:
            lhs = self.comp(n).then(self.target.d_full(n))
            rhs = self.source.d_full(n).then(self.comp(n + 1))
            if lhs.blocks != rhs.blocks:
                return False
        return True

    def grid(self, n):
        """The nonzero summand blocks {(k, l): block} of the degree-n
        component, never to be written into."""
        if self.grids is not None:
            return self.grids.get(n, {})
        if n not in self.comps:
            return {}
        return _nonzero_blocks(self.source.algebra, self.comps[n],
                               self.source.parts.get(n, ()),
                               self.target.parts.get(n, ()))

    def then(self, other):
        if other.source is not self.target:
            raise AlgebraError("chain map composition mismatch")
        degrees = set(self.comps) | set(other.comps)
        comps = {n: self.comp(n).then(other.comp(n)) for n in degrees}
        return ChainMap(self.source, other.target, comps)

    def add(self, other):
        degrees = set(self.comps) | set(other.comps)
        return ChainMap(self.source, self.target,
                        {n: self.comp(n).add(other.comp(n)) for n in degrees})

    def scale(self, c):
        return ChainMap(self.source, self.target,
                        {n: m.scale(c) for n, m in self.comps.items()})

    def is_zero(self):
        return all(c.is_zero() for c in self.comps.values())

    def is_degreewise_iso(self):
        degrees = set(self.source.parts) | set(self.target.parts)
        return all(self.comp(n).is_iso() for n in degrees)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {})

    @classmethod
    def identity(cls, X):
        return cls(X, X, {n: ModuleMap.identity(X.module(n)) for n in X.parts})


def cone(f: ChainMap):
    """Mapping cone of f: X -> Y.

    Degree n is X^{n+1} followed by Y^n; the differential is
    (-d_X, f) on the X^{n+1} part and d_Y on the Y^n part.  f's blocks
    are read from f.grid: kept by extend_along, sliced for any other
    map.
    """
    X, Y = f.source, f.target
    algebra = X.algebra
    above = _combine_approx(
        None if X.approx_above is None else X.approx_above - 1, Y.approx_above)
    below = _combine_below(
        None if X.approx_below is None else X.approx_below - 1, Y.approx_below)
    parts = {n: X.parts.get(n + 1, ()) + Y.parts.get(n, ())
             for n in sorted({n - 1 for n in X.parts} | set(Y.parts))
             if (above is None or n <= above) and (below is None or n >= below)}
    blocks = {}
    for n in parts:
        if (n + 1) not in parts:
            continue
        xp = len(X.parts.get(n + 1, ()))
        xq = len(X.parts.get(n + 2, ()))
        # -d_X, then the nonzero blocks of f from the X rows to the Y
        # columns, then d_Y
        grid = dict(X.negated(n + 1))
        grid.update(((k, xq + l), b) for (k, l), b in f.grid(n + 1).items())
        grid.update(((xp + k, xq + l), b)
                    for (k, l), b in Y.blocks.get(n, {}).items())
        blocks[n] = grid
    return Complex(algebra, parts, blocks, approx_above=above,
                   approx_below=below)


# ---- minimization ----

MinimizeResult = namedtuple("MinimizeResult", ["complex", "to_min", "from_min", "homotopy"])


def minimize(X: Complex, verify=True) -> MinimizeResult:
    """Strip all cancellable summand pairs, by block Gaussian elimination.

    The elimination works on the ids of each degree's surviving summands
    (their positions in X) and block dicts keyed by them.  Cancelling
    id k of degree n against id l of degree n + 1 replaces the dicts of
    degrees n - 1, n and n + 1 (X's are never written), and one Complex
    is built at the end: ids renumbered once, untouched dicts kept, X
    itself when nothing cancels.  The first iso block of the lowest
    degree, row by row, is cancelled first, which decides the result;
    ids keep their order, so the scan meets the blocks in the order of
    their positions in the complex the cancellations so far leave.  A
    degree is scanned until it holds no iso block: dicts below it only
    lose blocks.

    Each block value's iso test and inverse are read from the algebra's
    memo (keyed by the dims and vertex block rows), which lives as long
    as the algebra: values recur from call to call, and over kZ_n/rad^r
    a few fill every cone of the iteration.  So does each Schur
    correction -gamma phi^-1 beta (the cancelled block phi's column
    holds gamma and its row beta), formed once per algebra for each
    value of (gamma, phi, beta).  An inverse is read only for a
    correction the memo does not hold or for the witnesses.

    With verify, each step's witnesses are built from its dict and
    surviving tags, composed and checked: to_min: X -> Xmin, from_min:
    Xmin -> X with to_min after from_min the identity, and identity
    minus (from_min then to_min) equal to dh + hd.  Without verify,
    to_min, from_min and homotopy are None.
    """
    A = X.algebra
    grids = dict(X.blocks)
    ids = {}  # degree -> surviving ids, once a summand of it is cancelled
    g, fm, h = {}, {}, {}  # the witnesses' components, built with verify
    for n in sorted(grids):
        while (found := next(((k, l) for k, l in sorted(grids[n])
                              if _is_iso(A, grids[n][k, l])), None)):
            for m in (n, n + 1):
                ids.setdefault(m, list(range(len(X.parts[m]))))
            inverse = functools.partial(_iso_inverse, A, grids[n][found])
            if verify:
                _step_witnesses(X, grids[n], ids, n, *found, inverse(),
                                g, fm, h)
            _cancel(grids, ids, n, *found, inverse)
    Y = X
    if ids:
        at = {m: {k: p for p, k in enumerate(kept)} for m, kept in ids.items()}
        Y = Complex(A, {m: _surviving(X, ids, m) for m in X.parts}, {
            m: grid if grid is X.blocks[m] else {
                (at.get(m, {}).get(k, k), at.get(m + 1, {}).get(l, l)): b
                for (k, l), b in grid.items()}
            for m, grid in grids.items()},
            approx_above=X.approx_above, approx_below=X.approx_below)
    if not verify:
        return MinimizeResult(Y, None, None, None)
    # g and fm are the identity in every degree no cancellation touched
    kept = {m: ModuleMap.identity(X.module(m)) for m in X.parts if m not in g}
    g, fm = ChainMap(X, Y, {**kept, **g}), ChainMap(Y, X, {**kept, **fm})
    _verify_minimize(X, Y, g, fm, h)
    return MinimizeResult(Y, g, fm, h)


def _is_iso(algebra, blk):
    """Whether blk is an isomorphism, rank-tested once per value."""
    if blk.source.dims != blk.target.dims:
        return False
    key = blk.source.dims, _map_value(blk)
    got = algebra.iso_memo.get(key)
    if got is None:
        got = algebra.iso_memo[key] = blk.is_iso()
    return got


def _iso_inverse(algebra, blk):
    """The inverse of the iso blk: vertex blocks inverted once per value,
    around blk's own modules."""
    key = blk.source.dims, _map_value(blk)
    got = algebra.inverse_memo.get(key)
    if got is None:
        got = algebra.inverse_memo[key] = blk.inverse().blocks
    return ModuleMap(blk.target, blk.source, got)


def _correction(gamma, phi, beta, inverse):
    """The Schur correction -gamma phi^-1 beta, its vertex blocks formed
    once per value of (gamma, phi, beta) through the algebra's memo,
    around gamma's source and beta's target; inverse() gives phi^-1."""
    algebra = phi.source.algebra
    key = (gamma.source.dims, phi.source.dims, beta.target.dims,
           _map_value(gamma), _map_value(phi), _map_value(beta))
    got = algebra.correction_memo.get(key)
    if got is None:
        got = algebra.correction_memo[key] = \
            gamma.then(inverse()).then(beta).scale(-1).blocks
    return ModuleMap(gamma.source, beta.target, got)


def _surviving(X, ids, m):
    """The tags of degree m that no cancellation has removed."""
    return tuple(X.parts[m][k] for k in ids[m]) if m in ids \
        else X.parts.get(m, ())


def _cancel(grids, ids, n, k, l, inverse):
    """Cancel id k of degree n against id l of degree n + 1; inverse()
    gives the cancelled block's inverse, read for a Schur correction
    that the algebra's memo does not hold."""
    grid = grids[n]
    phi = grid[k, l]
    new = {(a, b): blk for (a, b), blk in grid.items() if a != k and b != l}
    column = [(a, gamma) for (a, b), gamma in grid.items() if b == l and a != k]
    row = [(b, beta) for (a, b), beta in grid.items() if a == k and b != l]
    for a, gamma in column:
        for b, beta in row:
            corr = _correction(gamma, phi, beta, inverse)
            delta = new.get((a, b))
            new[a, b] = corr if delta is None else delta.add(corr)
    grids[n] = new
    if n - 1 in grids:
        grids[n - 1] = {ab: b for ab, b in grids[n - 1].items() if ab[1] != k}
    if n + 1 in grids:
        grids[n + 1] = {ab: b for ab, b in grids[n + 1].items() if ab[0] != l}
    ids[n].remove(k)
    ids[n + 1].remove(l)


def _step_witnesses(X, grid, ids, n, k, l, phi_inv, g, fm, h):
    """Compose one cancellation's witnesses into g (X -> current), fm
    (current -> X), each the identity in an absent degree, and h (X ->
    X[-1]); grid and ids are the state before the step."""
    A = X.algebra
    at = {n: ids[n].index(k), n + 1: ids[n + 1].index(l)}
    tags = {m: _surviving(X, ids, m) for m in at}
    cur = {m: summand_sum(A, tags[m]) for m in at}
    # h += g h_step fm, h_step: current^{n+1} -> current^n by phi_inv
    term = map_placement(*cur[n + 1], *cur[n], {(at[n + 1], at[n]): phi_inv})
    term = g[n + 1].then(term) if n + 1 in g else term
    term = term.then(fm[n]) if n in fm else term
    h[n + 1] = h[n + 1].add(term) if n + 1 in h else term
    for m, drop in at.items():
        nxt = summand_sum(A, tags[m][:drop] + tags[m][drop + 1:])
        g_blocks, f_blocks = {}, {}
        for new, old in enumerate(p for p in range(len(tags[m])) if p != drop):
            g_blocks[old, new] = f_blocks[new, old] = \
                ModuleMap.identity(tag_module(A, tags[m][old]))
            # -phi_inv beta from the cancelled summand of degree n + 1,
            # -gamma phi_inv into the cancelled one of degree n
            beta = grid.get((k, ids[m][old])) if m > n else None
            gamma = grid.get((ids[m][old], l)) if m == n else None
            if beta is not None:
                g_blocks[drop, new] = phi_inv.then(beta).scale(-1)
            if gamma is not None:
                f_blocks[new, drop] = gamma.then(phi_inv).scale(-1)
        step_g = map_placement(*cur[m], *nxt, g_blocks)
        step_f = map_placement(*nxt, *cur[m], f_blocks)
        g[m] = g[m].then(step_g) if m in g else step_g
        fm[m] = step_f.then(fm[m]) if m in fm else step_f


def _verify_minimize(X, Y, g, fm, h):
    if not g.commutes() or not fm.commutes():
        raise AlgebraError("minimize witnesses are not chain maps")
    for n in Y.parts:
        comp = fm.comp(n).then(g.comp(n))
        if comp.blocks != ModuleMap.identity(Y.module(n)).blocks:
            raise AlgebraError("minimize: g f != id on the minimal complex")
    # identity - g f - (h d + d h) must vanish in every degree of X
    for n in X.parts:
        terms = [g.comp(n).then(fm.comp(n))]
        if n in h:
            terms.append(h[n].then(X.d_full(n - 1)))
        if n + 1 in h:
            terms.append(X.d_full(n).then(h[n + 1]))
        err = ModuleMap.identity(X.module(n))
        for t in terms:
            err = err.add(t.scale(-1))
        if not err.is_zero():
            raise AlgebraError("minimize: homotopy witness fails")


# ---- hom complexes ----

class HomComplex:
    """Total hom complex of two tagged complexes, with basis bookkeeping.

    Degree n is the direct sum over k of module homs X^k -> Y^{k+n}; the
    differential sends f to (f then d_Y) - (-1)^n (d_X then f).  The
    (n, k) block of the basis, and the solver that gives coordinates on
    it, come from hom_block for the tag tuples of X^k and Y^{k+n}, so
    hom complexes over one algebra share them.  On coordinates it is the
    complex of vector spaces dims (degree -> dimension of the basis) and
    diffs (degree n -> matrix to degree n + 1), checked for shape and
    d^2 = 0 when built.

    degrees = (lo, hi) builds only the hom degrees lo..hi, so H^n can be
    read for lo < n < hi and bases and coordinates for lo <= n <= hi; a
    read outside raises.  The number of degrees grows with the length of
    both complexes, and a caller that needs H^0 needs only -1..1.  None
    builds every degree.
    """

    def __init__(self, X: Complex, Y: Complex, degrees=None):
        self.X = X
        self.Y = Y
        self.degrees = degrees
        A = X.algebra
        self.field = A.field
        self.bases = {}
        self._valid = self._valid_range()
        # (n, k) -> (index of the block's first entry, its Echelon)
        self._solvers = {}
        lo, hi = 0, -1
        if X.parts and Y.parts:
            lo, hi = Y.min_deg() - X.max_deg(), Y.max_deg() - X.min_deg()
        if degrees is not None:
            lo, hi = max(lo, degrees[0]), min(hi, degrees[1])
        for n in range(lo, hi + 1):
            entries = []
            for k in sorted(X.parts):
                if (k + n) not in Y.parts:
                    continue
                maps, ech = hom_block(A, X.parts[k], Y.parts[k + n])
                self._solvers[(n, k)] = (len(entries), ech)
                entries.extend((k, h) for h in maps)
            if entries:
                self.bases[n] = entries
        self.dims = {n: len(e) for n, e in self.bases.items()}
        self.diffs = {}
        for n in self.bases:
            if (n + 1) not in self.bases:
                continue
            rows = []
            for (k, h) in self.bases[n]:
                img = {}
                t1 = h.then(self.Y.d_full(k + n))
                if not t1.is_zero():
                    img[k] = t1
                t2 = self.X.d_full(k - 1).then(h)
                if not t2.is_zero():
                    if n % 2 == 0:
                        t2 = t2.scale(-1)
                    img[k - 1] = img[k - 1].add(t2) if (k - 1) in img else t2
                rows.append(self.coords(n + 1, img))
            self.diffs[n] = Mat(self.field, rows, ncols=self.dims[n + 1])
        for n, m in self.diffs.items():
            if (m.nrows, m.ncols) != (self.dims[n], self.dims[n + 1]):
                raise AlgebraError(f"hom complex: diff shape mismatch at {n}")
            nxt = self.diffs.get(n + 1)
            if nxt is not None and not m.mul(nxt).is_zero():
                raise AlgebraError(f"hom complex: d^2 != 0 at {n}")

    def _require(self, lo, hi):
        """Refuse a read that needs hom degrees outside the built ones."""
        if self.degrees is not None and not (
                self.degrees[0] <= lo and hi <= self.degrees[1]):
            raise AlgebraError(
                f"hom complex: degrees {lo}..{hi} were not built "
                f"(built {self.degrees[0]}..{self.degrees[1]})")

    def coords(self, n, img):
        """Coordinates of {k: ModuleMap} over the degree-n basis."""
        self._require(n, n)
        out = [0] * len(self.bases.get(n, []))
        for k, m in img.items():
            if m.is_zero():
                continue
            solver = self._solvers.get((n, k))
            if solver is None:
                raise AlgebraError("hom complex: image outside basis support")
            first, ech = solver
            # no map is in the span of an empty basis
            comb = None if ech is None else ech.coords(_flatten_map(m))
            if comb is None:
                raise AlgebraError("hom complex: map not in hom basis span")
            for r, c in comb.items():
                out[first + r] = c
        return out

    def element(self, n, coords):
        """Rebuild {k: ModuleMap} from coordinates at degree n."""
        self._require(n, n)
        entries = self.bases.get(n, [])
        acc = {}
        for c, (k, h) in zip(coords, entries):
            if not c:
                continue
            term = h.scale(c)
            acc[k] = acc[k].add(term) if k in acc else term
        return acc

    def valid_range(self):
        """(lo, hi) bounds on hom degrees n whose H^n is trustworthy.

        Each cut marker on a factor contributes one bound, read off the
        long exact sequence of the truncation triangle: the error term
        Hom(discarded part, Y) or Hom(X, discarded part) is concentrated
        in hom degrees computable from the supports.  None = unbounded.
        Both complexes and their markers are fixed at construction, so
        the bounds are computed once, when the hom complex is built.
        """
        return self._valid

    def _valid_range(self):
        lo, hi = None, None
        if self.X.parts and self.Y.parts:
            xlo, xhi = min(self.X.parts), max(self.X.parts)
            ylo, yhi = min(self.Y.parts), max(self.Y.parts)
            ty = self.Y.approx_above
            if ty is not None:
                v = ty - xhi - 1
                hi = v if hi is None else min(hi, v)
            bx = self.X.approx_below
            if bx is not None:
                v = ylo - bx - 1
                hi = v if hi is None else min(hi, v)
            tx = self.X.approx_above
            if tx is not None:
                v = yhi - tx + 1
                lo = v if lo is None else max(lo, v)
            by = self.Y.approx_below
            if by is not None:
                v = by - xlo + 1
                lo = v if lo is None else max(lo, v)
        return lo, hi

    def is_valid_degree(self, n):
        lo, hi = self._valid
        return (lo is None or n >= lo) and (hi is None or n <= hi)

    def h_dim(self, n):
        self._require(n - 1, n + 1)
        return homology_dims({n: self.dims.get(n, 0)}, self.diffs).get(n, 0)

    def cycles(self, n):
        """Rows spanning the degree-n coordinates of the cycles."""
        self._require(n, n + 1)
        d = self.diffs.get(n)
        if d is None:
            return Mat.identity(self.field, self.dims.get(n, 0))
        return d.left_kernel_basis()

    def chain_classes(self, n=0):
        """Representative cycles at degree n as {k: ModuleMap} dicts,
        and H^n as a Subquotient of the degree-n coordinates; no
        representatives and None for H when degree n is empty."""
        self._require(n - 1, n + 1)
        if n not in self.bases:
            return [], None
        d_in = self.diffs.get(n - 1)
        boundaries = (Mat.zeros(self.field, 0, self.dims[n])
                      if d_in is None else d_in.row_space_basis())
        H = Subquotient(self.cycles(n), boundaries)
        return [self.element(n, list(r)) for r in H.reps.data], H


def _flatten_map(m: ModuleMap):
    out = []
    for v in range(m.source.algebra.quiver.n):
        b = m.block(v)
        if b is not None:
            for row in b.data:
                out.extend(row)
    return out


def h0_chain_maps(X: Complex, Y: Complex):
    """Chain maps X -> Y, one per homotopy class; plus the hom complex
    (built in degrees -1..1)."""
    hc = HomComplex(X, Y, degrees=(-1, 1))
    classes, _ = hc.chain_classes(0)
    return [ChainMap(X, Y, cls) for cls in classes], hc


ISO_SEARCH_TRIES = 200


def complex_iso_search(X: Complex, Y: Complex):
    """Invertible chain map X -> Y, or None.  Sufficient certificate."""
    import random as _random

    if {n: X.dims_at(n) for n in X.parts} != {n: Y.dims_at(n) for n in Y.parts}:
        return None
    if X.is_zero():
        return ChainMap.zero(X, Y)
    hc = HomComplex(X, Y, degrees=(-1, 1))
    Z = hc.cycles(0)
    cands = [ChainMap(X, Y, hc.element(0, list(Z.data[i])))
             for i in range(Z.nrows)]
    for c in cands:
        if c.is_degreewise_iso():
            return c
    f = X.algebra.field
    rng = _random.Random(0)
    # randrange draws what choice over range(p) or range(-3, 4) would,
    # with no list of p scalars
    bounds = (f.p,) if hasattr(f, "p") else (-3, 4)
    for _ in range(ISO_SEARCH_TRIES):
        acc = ChainMap.zero(X, Y)
        for c in cands:
            acc = acc.add(c.scale(rng.randrange(*bounds)))
        if acc.is_degreewise_iso():
            return acc
    return None

"""Resolutions, derived hom tables, and simple-minded collection checks.

Projective resolutions of complexes are built top-down: at each degree
the next projective covers the pullback of "cycles seen so far", which
keeps the result minimal.  Each step slices its differential into the
block dict of complexes.Complex as soon as the degree is covered.  Below
the source each step reads only the last syzygy, so once a syzygy recurs
the run is periodic, and the rest down to the cut is copied from one
period instead of computed, block dicts included (over kZ_n/rad^r every
simple recurs this way).  The algebra's memo keeps each period under
every syzygy of its cycle, so a later resolution on the algebra that
meets one copies it at once: each period is solved once per algebra.
A complex in one degree (a stalk) reads the memo from its first step,
so a stalk whose module lies in a kept cycle costs one cover.
Injective coresolutions are the dual run over the opposite algebra,
whose blocks are the transposed ones and whose memo keeps their
periods.  A run that terminates yields an honest quasi-isomorphic
replacement; one that hits its length cap carries a cut marker, and
every hom computed through it reports the degree window on which it can
be trusted.
"""

from collections import namedtuple

from .linalg import is_unimodular
from .algebra import (
    AlgebraError,
    ModuleMap,
    direct_sum_modules,
    dual_map,
    kernel_module,
    map_placement,
    map_slice,
    projective_cover,
    summand_offsets,
)
from .complexes import (
    Complex,
    ChainMap,
    Summand,
    HomComplex,
    cone,
    h0_chain_maps,
    minimize,
    tag_module,
    zero_complex,
    zero_module,
)


Resolution = namedtuple("Resolution", ["complex", "aug", "exact"])

_DUAL_KIND = {"P": "I", "I": "P", "S": "S"}


def default_depth(algebra, span):
    """Length cap for resolutions when the caller gives none."""
    return 2 * algebra.dim + span + 2


def _default_limit(X: Complex, side):
    """The bottom resolve_complex (side "P") or the top coresolve_complex
    (side "I") takes for X when the caller gives none."""
    depth = default_depth(X.algebra, X.max_deg() - X.min_deg())
    return X.min_deg() - depth if side == "P" else X.max_deg() + depth


# ---- duality between a complex and its opposite-algebra counterpart ----

def dual_complex(X: Complex) -> Complex:
    """Vector-space dual, a complex over the opposite algebra.

    Degree n of the result is the dual of degree -n; projective summands
    dualize to injectives and back, simples stay simples, and the block
    from summand k to summand l dualizes to the transposed block from l to
    k.  Cut markers swap sides with negated degree.  A block dict that
    several degrees share (the copied period of a resolution) is
    dualized once, and its dual is shared the same way; so is the dual
    of each distinct tag tuple.
    """
    op = X.algebra.op()
    parts = {}
    dual_tags = {}
    for n, p in X.parts.items():
        if p not in dual_tags:
            dual_tags[p] = tuple(Summand(_DUAL_KIND[t.kind], t.vertex)
                                 for t in p)
        parts[-n] = dual_tags[p]
    duals = {}
    blocks = {}
    for n, grid in X.blocks.items():
        key = (id(grid), X.parts[n], X.parts[n + 1])
        if key not in duals:
            duals[key] = {(l, k): dual_map(
                b, tag_module(op, parts[-n - 1][l]),
                tag_module(op, parts[-n][k])) for (k, l), b in grid.items()}
        blocks[-n - 1] = duals[key]
    above = None if X.approx_below is None else -X.approx_below
    below = None if X.approx_above is None else -X.approx_above
    return Complex(op, parts, blocks, approx_above=above, approx_below=below)


# ---- projective resolution of a bounded complex ----

def resolve_complex(X: Complex, bottom=None) -> Resolution:
    """Complex of projectives mapping quasi-isomorphically onto X.

    bottom caps how deep the construction may run.  If the run stops on
    its own the triple is exact everywhere; if it is cut, the complex
    carries approx_below at its lowest degree.  Each step covers a
    module W (kernel with its arrow matrices).  Two degrees or more
    below the source W is the last syzygy, and when X has one degree W
    fixes every degree below its step from the first step on, so there
    a W that was met before makes the run periodic.  Its period (the
    projectives and block dicts of the degrees below it, the
    augmentation being zero there) is kept in the algebra's memo under
    every W of the cycle, so each period is found once per algebra: a
    stalk whose module lies in a kept cycle computes one cover, and a
    run that meets one of those modules, first or again, stops
    computing there and copies the period down to bottom, its copies
    sharing the period's block dicts and tag tuples.  Each computed
    degree slices its differential into blocks as soon as it is
    covered.  A source that is itself cut from above cannot be resolved
    (the construction starts at the top, where nothing is trustworthy).
    Complex.validate and ChainMap.commutes on the augmentation check the
    result.
    """
    A = X.algebra
    if X.approx_above is not None:
        raise AlgebraError("cannot resolve a complex that is cut from above")
    if X.is_zero():
        Z = zero_complex(A)
        return Resolution(Z, ChainMap(Z, X, {}), True)
    xhi, xlo = X.max_deg(), X.min_deg()
    if bottom is None:
        bottom = _default_limit(X, "P")
    origin = (0,) * A.quiver.n  # offsets of a module that is one summand

    verts = {}
    phis = {}
    blocks = {}
    seen = {}  # covered module that fixes the degrees below -> its step
    cur_verts, cur_offsets = [], []
    cur_P = zero_module(A)
    cur_phi = ModuleMap.zero(cur_P, X.module(xhi + 1))
    cur_d = ModuleMap.zero(cur_P, zero_module(A))
    exact = False
    n = xhi
    while True:
        if n < bottom:
            break
        K, kinc = kernel_module(cur_d)
        Xn = X.module(n)
        Sum, sum_offsets = direct_sum_modules(A, [Xn, K])
        # pairs (x, k) with d(x) = phi(k)
        t = map_placement(Sum, sum_offsets, X.module(n + 1), [origin], {
            (0, 0): X.d_full(n),
            (1, 0): kinc.then(cur_phi).scale(-1)})
        W, winc = kernel_module(t)
        if W.total == 0 and n <= xlo:
            exact = True
            break
        vlist, P, c = projective_cover(W)
        verts[n] = vlist
        offs, _ = summand_offsets(A, [A.projective(v) for v in vlist])
        cw = c.then(winc)
        phis[n] = map_slice(cw, P, origin, Xn, sum_offsets[0])
        d = map_slice(cw, P, origin, K, sum_offsets[1]).then(kinc)
        # the nonzero blocks of d: P_n -> P_{n+1}, between indecomposables
        sliced = (((k, l), map_slice(d, A.projective(u), offs[k],
                                     A.projective(v), cur_offsets[l]))
                  for k, u in enumerate(vlist)
                  for l, v in enumerate(cur_verts))
        blocks[n] = {kl: b for kl, b in sliced if not b.is_zero()}
        cur_verts, cur_offsets = vlist, offs
        cur_P, cur_phi, cur_d = P, phis[n], d
        if n <= xlo - 2 or xhi == xlo:
            # Step n covers W by c: P -> W, and every degree from n - 1
            # down depends on W alone.  Below xlo - 1, X is zero in
            # degrees n and n + 1, so W is K by value and d_n is c then
            # the inclusion i of K.  ker(c i) = ker(c) as i is injective;
            # kernel_module reads its basis off the reduced echelon form
            # of the transposed block, which is unique and depends only
            # on the block's column space, and c i has the column space
            # of c.  So the next syzygy, with its action and its
            # inclusion into P_n, is ker(c).  When X has the one degree
            # xlo, step xlo covers W = X_xlo and d_xlo is zero, so the
            # next K is all of P_xlo; step xlo - 1 covers the kernel of
            # the augmentation, c then the injective W -> X_xlo, which
            # is ker(c) again, and its d is the cover then the inclusion
            # into K = P_xlo.  There too the degrees below read W, not
            # K, from the first step on.  Either way the degrees from
            # n - 1 down are the period the algebra's memo keeps under
            # W, in this run or an earlier one.  Degree n itself is
            # computed: d_n lands in P_{n+1}, which depends on the run.
            # The copies share the block dicts of the period.
            period = A.period_memo.get(W)
            if period is None and W in seen:
                period = _keep_period(A, seen, W, n, verts, blocks)
            if period is not None:
                for i, m in enumerate(range(n - 1, bottom - 1, -1)):
                    verts[m], blocks[m] = period[i % len(period)]
                n = bottom - 1
                break
            seen[W] = n
        n -= 1

    # one tag tuple per distinct vertex tuple, so a copied period shares
    # its tags as it shares its block dicts
    tags = {}
    parts = {m: tags.setdefault(tuple(vs), tuple(Summand("P", v) for v in vs))
             for m, vs in verts.items() if vs}
    lowest = n + 1
    below = X.approx_below
    if not exact:
        below = lowest if below is None else max(below, lowest)
    P_cx = Complex(A, parts, blocks, approx_below=below)
    # below X the augmentation lands in zero modules; no such component
    # is kept
    aug = ChainMap(P_cx, X, {m: f for m, f in phis.items()
                             if m in parts and f.blocks})
    return Resolution(P_cx, aug, exact)


def _keep_period(A, seen, K, n, verts, blocks):
    """Keep in the algebra's memo the period of a run whose covered
    module K, first met at step seen[K], recurs at step n, and return
    K's.

    The degrees from seen[K] - 1 down repeat with period p = seen[K] - n,
    and the module covered at step j of the cycle (n < j <= seen[K])
    fixes the degrees from j - 1 down: its period is the p degrees
    j - 1, ..., j - p, read one period up where they lie below n.
    """
    first = seen[K]
    cycle = [(tuple(verts[m]), blocks[m]) for m in range(first - 1, n - 1, -1)]
    for syzygy, j in seen.items():
        if n < j <= first:
            A.period_memo[syzygy] = tuple(cycle[first - j:]
                                          + cycle[:first - j])
    return A.period_memo[K]


def coresolve_complex(X: Complex, top=None) -> Resolution:
    """Complex of injectives under X, by resolving the dual and dualizing back."""
    if X.approx_below is not None:
        raise AlgebraError("cannot coresolve a complex that is cut from below")
    DX = dual_complex(X)
    res = resolve_complex(DX, bottom=None if top is None else -top)
    I = dual_complex(res.complex)
    comps = {-m: dual_map(phi, X.module(-m), I.module(-m))
             for m, phi in res.aug.comps.items()}
    aug = ChainMap(X, I, comps)
    return Resolution(I, aug, res.exact)


def member_resolution(X: Complex, side, limit=None) -> Resolution:
    """resolve_complex(X, bottom=limit) for side "P" and
    coresolve_complex(X, top=limit) for side "I", kept in the algebra's
    resolution memo when X has no differential.  limit None is the
    default bottom or top those take, and is keyed as that degree, so
    the two spellings share one entry.

    Such a complex (every member a job builds is a stalk) is fixed by its
    terms and cut markers.  Both builders are translation invariant on
    it: every step reads degrees only relative to X's (the default
    limit too), and with no differential there is no sign to move.  So
    the memo is keyed by the side and by the terms, markers and limit
    taken relative to X's lowest degree (the terms by _relative_terms,
    which keys the collection check's memo too), and an entry serves X
    at any degree: it is re-indexed by the distance between the two,
    its degrees, cut markers and augmentation moved and nothing else,
    not signed as Complex.shift would sign an odd shift.  The result is the
    very resolution the call would build, for every later member with
    that key, in this job or another on the algebra.  Each call gets its
    own Complex over the entry's terms and blocks, so the differentials
    a caller assembles (Complex.d_full) go with the caller and the memo
    keeps only the resolution, and its own augmentation, which maps from
    or to X itself; its components read the algebra's sum modules, as X
    does.
    """
    build = resolve_complex if side == "P" else coresolve_complex
    if X.blocks:
        return build(X, limit)
    if limit is None:
        limit = _default_limit(X, side)
    low, terms = _relative_terms(X)
    key = (side, terms, _moved(X.approx_above, -low),
           _moved(X.approx_below, -low), _moved(limit, -low))
    memo = X.algebra.resolution_memo
    got = memo.get(key)
    if got is None:
        got = memo[key] = (low, build(X, limit))
    at, res = got
    step = low - at
    R = res.complex
    R = Complex(R.algebra, {n + step: p for n, p in R.parts.items()},
                {n + step: grid for n, grid in R.blocks.items()},
                approx_above=_moved(R.approx_above, step),
                approx_below=_moved(R.approx_below, step))
    comps = {n + step: c for n, c in res.aug.comps.items()}
    aug = ChainMap(R, X, comps) if side == "P" else ChainMap(X, R, comps)
    return Resolution(R, aug, res.exact)


def _relative_terms(X: Complex):
    """(X's lowest degree, X's terms in degree order, each degree taken
    relative to the lowest).

    With the cut markers, this fixes a complex with no differential up
    to a translation of its degrees, which moves no hom dimension
    between two such complexes when both move.  member_resolution and
    validate_simple_minded key their memos by it.
    """
    low = X.min_deg()
    return low, tuple((n - low, p) for n, p in sorted(X.parts.items()))


def _moved(n, step):
    """A degree or cut marker moved by step; None stays None."""
    return None if n is None else n + step


def shift_coresolution(res, U, m, top):
    """The coaugmentation U -> I' of U = X[m], m < 0, from res, the
    coresolution of X to top.

    I' is res's complex cut at top + 1 + m and shifted by m: a
    coresolution to a lower top is a prefix of one to a higher top, so
    I' is the coresolution of U to top + 1, and a cone of a map out of
    I' into a complex cut at top keeps its cut marker at top.  An exact
    coresolution that ends below top + 1 + m is shifted whole, as the
    coresolution of U to top + 1 then stops below top + 1.
    """
    I = res.complex
    if not (res.exact and I.max_deg() <= top + m):
        I = I.cut_above(top + 1 + m)
    return ChainMap(U, I.shift(m),
                    {k - m: c for k, c in res.aug.comps.items()})


def all_tags(X: Complex, kind):
    return all(t.kind == kind for p in X.parts.values() for t in p)


def injective_form(X: Complex, top=None) -> Complex:
    """Minimal complex of injectives quasi-isomorphic to X (up to any cut).

    A complex of injectives, such as the cone of a map extended along a
    coresolution (complexes.extend_along), is only minimized; anything
    else is coresolved to top first.
    """
    if not (X.parts and all_tags(X, "I")):
        X = coresolve_complex(X, top=top).complex
    return minimize(X, verify=False).complex


# ---- derived hom tables ----

class HomTable:
    """Dimensions of maps-to-shifts, with the certified degree window.

    entries[m] = dim of degree-m maps in the derived category; only
    degrees inside [valid_lo, valid_hi] (None = unbounded) are stored.
    """

    def __init__(self, entries, valid_lo, valid_hi):
        self.entries = dict(entries)
        self.valid_lo = valid_lo
        self.valid_hi = valid_hi

    def covers(self, m):
        return ((self.valid_lo is None or m >= self.valid_lo)
                and (self.valid_hi is None or m <= self.valid_hi))

    def dim(self, m):
        if not self.covers(m):
            raise AlgebraError(f"hom degree {m} outside certified window")
        if m not in self.entries:
            raise AlgebraError(f"hom degree {m} was not computed")
        return self.entries[m]

    def __repr__(self):
        rng = f"[{self.valid_lo},{self.valid_hi}]"
        return f"HomTable({self.entries}, valid={rng})"


def derived_hom(X: Complex, Y: Complex, lo, hi) -> HomTable:
    """dim Hom(X, Y shifted by m) in the derived category, for lo <= m <= hi.

    Dispatch: against a bounded complex of injectives (or from one of
    projectives) plain chain-map homotopy classes are already the right
    answer; otherwise the source is resolved deep enough that every
    requested degree lands in the certified window.
    """
    if lo > hi:
        raise AlgebraError("empty hom degree range")
    if not ((Y.parts and all_tags(Y, "I")) or (X.parts and all_tags(X, "P"))
            or X.is_zero() or Y.is_zero()):
        X = resolve_complex(X, bottom=Y.min_deg() - hi - 2).complex
    hc = HomComplex(X, Y, degrees=(lo - 1, hi + 1))
    entries = {}
    for m in range(lo, hi + 1):
        if hc.is_valid_degree(m):
            entries[m] = hc.h_dim(m)
    vlo, vhi = hc.valid_range()
    return HomTable(entries, vlo, vhi)


# ---- class vectors and generation ----

def homology_class_vector(X: Complex):
    """Alternating sum of homology dimension vectors, one entry per vertex."""
    n = X.algebra.quiver.n
    row = [0] * n
    for deg, dims in X.homology_dims().items():
        s = -1 if deg % 2 else 1
        for j, d in enumerate(dims):
            row[j] += s * d
    return row


def class_matrix(objects):
    return [homology_class_vector(X) for X in objects]


def simple_stalk_profile(X: Complex):
    """(vertex, degree) when X has one-dimensional homology in one degree.

    Over an admissible quiver algebra every one-dimensional module is a
    simple (loops must act nilpotently, hence by zero), and a minimal
    complex with homology concentrated in one degree is the shifted
    stalk of that homology, so this test is decisive.
    """
    hd = X.homology_dims()
    if len(hd) != 1:
        return None
    (deg, dims), = hd.items()
    if sum(dims) != 1:
        return None
    return dims.index(1), deg


GENERATION_HOM_CAP = 6  # classes coned per pair of reached objects and shift


def _class_maps(reached):
    """The chain maps the generation search cones, in search order.

    Each round runs over the objects reached before it: for each pair
    (U, V) and shift s of V within their spread, the first
    GENERATION_HOM_CAP class representatives U -> V[s], all nonzero.
    The search grows reached; a round in which it did not grow is the
    last.
    """
    while True:
        snapshot = list(reached)
        span = max((C.max_deg() - C.min_deg() for C in snapshot),
                   default=0) + 1
        for U in snapshot:
            for V in snapshot:
                for s in range(-span, span + 1):
                    maps, _ = h0_chain_maps(U, V.shift(s))
                    yield from maps[:GENERATION_HOM_CAP]
        if len(reached) == len(snapshot):
            return


def generation_certificate(objects, cone_budget=48):
    """Search for the simples inside the triangulated closure of the objects.

    Breadth-first over cones of the maps of _class_maps; a cone joins
    the reached objects unless it is zero, beyond a size cap, or reached
    before (same terms and homology).  The search stops after the cone
    that spends cone_budget or reaches every simple, or after a round
    that reached nothing new (a saturated search).
    Returns (all_found, sorted vertex list, cones_used).

    Finding every simple certifies that the objects generate, as the
    simples generate.  A saturated search proves only that these cones
    reach nothing more, not that the objects fail to generate: its maps
    are homotopy classes of chain maps between the complexes as given,
    not all maps of the derived category (between stalks of modules that
    are not projective most Ext classes have no chain map), capped per
    pair and shift, and it drops large cones.  A spent budget proves
    nothing either.
    """
    A = objects[0].algebra
    want = set(range(A.quiver.n))
    found = set()
    reached = []
    sigs = set()

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
        prof = simple_stalk_profile(C)
        if prof is not None:
            found.add(prof[0])

    for X in objects:
        add(minimize(X, verify=False).complex)
    size_cap = 6 * max(A.dim, max((X.total_dim() for X in reached),
                                  default=A.dim))
    cones_used = 0
    search = _class_maps(reached)
    while not found >= want and cones_used < cone_budget:
        f = next(search, None)
        if f is None:
            break
        cones_used += 1
        C = minimize(cone(f), verify=False).complex
        if C.total_dim() <= size_cap:
            add(C)
    return found >= want, sorted(found), cones_used


# ---- simple-minded collection validation ----

def _homology_window(X: Complex):
    hd = X.homology_dims()
    if not hd:
        return None
    return min(hd), max(hd)


def validate_simple_minded(objects, cone_budget=48):
    """Check the three collection axioms; returns a report dict.

    Negative-shift vanishing below the checked window is automatic
    (maps out of low homological degrees into strictly higher ones
    vanish), so the finite check is complete.  Generation is certified
    by the cone search when it reaches every simple; unimodularity of
    the class matrix is reported as the necessary part otherwise.

    Conditions 1 and 2 read dim Hom(X_i, X_j[m]) for
    min(floor, 0) <= m <= 0 for each ordered pair of members, floor the
    distance between X_j's lowest and X_i's highest homology degree.  A
    pair of members with no differential and no cut marker (every
    member a job builds) is fixed by its relative terms and the offset
    between its lowest degrees (_relative_terms), and so are those
    dimensions and floor: moving both members by one degree changes
    none of them.  The algebra's validation memo keeps them under that
    key once every one was certified, so a pair met before, in this job
    or another on the algebra, is read, not computed.  A pair that
    misses is one derived_hom over X_i's resolution.  Each member that
    is not a complex of projectives is resolved at its first miss, to
    the default bottom of resolve_complex, or to the deepest bottom any
    target needs (the lowest target degree minus two) where that is
    deeper, and that resolution is the source of every hom out of it: a
    deeper cut agrees with a shallower one in every degree the
    shallower one computes, so it only widens the certified window.
    The resolution comes from member_resolution, at the default limit
    unless a target starts more than 2 dim A + span(X_i) degrees below
    X_i's lowest degree, so validation, ainfinity.collection_ext_model
    and every later job on the algebra share one entry, and a stalk
    resolved before is not resolved again.  A member with no miss is
    not resolved.  Each member's homology is computed once
    (Complex.homology_dims) and read for its window, its class vector,
    its stalk profile and its generation signature.
    """
    A = objects[0].algebra
    mins = [minimize(X, verify=False).complex for X in objects]
    windows = [_homology_window(X) for X in mins]
    bottom = min((X.min_deg() for X, w in zip(mins, windows) if w is not None),
                 default=0) - 2
    fixed = [None if X.blocks or X.approx_above is not None
             or X.approx_below is not None else _relative_terms(X)
             for X in mins]

    report = {"objects": [X.describe() for X in mins]}
    report["count"] = {
        "objects": len(mins),
        "vertices": A.quiver.n,
        "status": "PASS" if len(mins) == A.quiver.n else "FAIL",
    }

    fail1 = []
    fail2 = []
    for i, Xi in enumerate(mins):
        wi = windows[i]
        if wi is None:
            # acyclic member: no negative maps to check, endo check
            # below will fail it
            continue
        source = None  # Xi's resolution, built at its first miss
        for j, Xj in enumerate(mins):
            wj = windows[j]
            if wj is None:
                continue
            floor = wj[0] - wi[1]
            key = None
            if fixed[i] is not None and fixed[j] is not None:
                (li, ti), (lj, tj) = fixed[i], fixed[j]
                key = (ti, tj, lj - li)
            dims = None if key is None else A.validation_memo.get(key)
            if dims is None:
                if source is None:
                    source = Xi if all_tags(Xi, "P") else member_resolution(
                        Xi, "P", min(bottom, _default_limit(Xi, "P"))).complex
                # one hom complex for the negative shifts and shift zero
                tab = derived_hom(source, Xj, min(floor, 0), 0)
                dims = {m: tab.dim(m) for m in range(min(floor, 0), 1)}
                if key is not None:
                    A.validation_memo[key] = dims
            for m in range(floor, 0):
                if dims[m]:
                    fail1.append({"source": i, "target": j,
                                  "shift": m, "dim": dims[m]})
            want = 1 if i == j else 0
            if dims[0] != want:
                fail2.append({"source": i, "target": j, "dim": dims[0],
                              "expected": want})
    for i, w in enumerate(windows):
        if w is None:
            fail2.append({"source": i, "target": i, "dim": 0, "expected": 1})
    report["cond1"] = {
        "status": "PASS" if not fail1 else "FAIL",
        "failures": fail1,
    }
    report["cond2"] = {
        "status": "PASS" if not fail2 else "FAIL",
        "failures": fail2,
    }

    cm = class_matrix(mins)
    cond3 = {"class_matrix": cm}
    if not (len(mins) == A.quiver.n and is_unimodular(cm)):
        cond3["status"] = "FAIL"
    else:
        ok, _, used = generation_certificate(mins, cone_budget=cone_budget)
        cond3["cones_used"] = used
        cond3["status"] = "VERIFIED" if ok else "PASS_NECESSARY"
    report["cond3"] = cond3

    report["is_smc"] = (
        report["count"]["status"] == "PASS"
        and report["cond1"]["status"] == "PASS"
        and report["cond2"]["status"] == "PASS"
        and cond3["status"] != "FAIL"
    )
    return report

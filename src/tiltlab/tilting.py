"""Cone iteration: from a hom-orthogonal family to its dual objects.

Given objects X_1..X_r (normally a validated simple-minded family), the
engine grows one companion T_i per object.  T_i starts as the minimal
injective form of X_i and is repeatedly corrected by coning off every
homotopy class of maps from negatively shifted members, nearest shift
first, until the inspected window is clean.  Each member is coresolved
once, at the cut tau (two degrees past the window, deepened to the old
cut only when the result is not certified), and a class map out of a
shifted stalk is extended along the stalk's coresolution
(complexes.extend_along), so
each round cones the lifted map into a complex of injectives that only
needs minimizing: nothing is re-coresolved.  A member that is not a
stalk hands its class maps over as they are, and its cones are
coresolved as a whole.  Each companion's final complex is then
checked once against the defining property

    dim Hom(X_j, T_i shifted by m) = 1 when (i, m) = (j, 0), else 0,

which certifies the output independently of how it was found.  Over
algebras of infinite global dimension the intermediate complexes carry
cut markers; a certificate that passes on a gap-trimmed candidate
upgrades the result to an exact one, and that certificate is the
companion's one check.

The Nakayama twist (projectives to injectives and back) is implemented
by extracting the algebra element behind each map between projectives,
so it is exact on the nose, not up to homotopy.
"""

import functools
from collections import namedtuple

from .algebra import (AlgebraError, FiniteAlgebra, ModuleMap, dual_map,
                      generator_map, is_self_injective, map_placement,
                      summand_offsets)
from .complexes import (ISO_SEARCH_TRIES, ChainMap, Complex, HomComplex,
                        Summand, complex_iso_search, cone,
                        direct_sum_complexes, extend_along, minimize)
from .derived import (all_tags, derived_hom, injective_form,
                      member_resolution, shift_coresolution)


# ---- maps between projectives as algebra elements ----

def hom_to_element(f: ModuleMap, u, v):
    """The element of e_v A e_u acting as f, for a module map P_u -> P_v.

    Every map between these projectives is left multiplication by the
    image of the generator, so reading off that image is a bijection.
    """
    A = f.source.algebra
    Pv = A.projective(v)
    vec = [0] * A.dim
    # e_u, trivial paths coming first, is P_u's first path at u; f has no
    # block at u only when P_v is zero there, and then the loop is empty
    blk = f.block(u)
    for c, i in enumerate(Pv._proj_basis[u]):
        vec[i] = blk[0, c]
    return tuple(vec)


def left_mult_map(A, lam, u, v):
    """x -> lam * x as a module map P_u -> P_v, for lam in e_v A e_u: the
    map that sends the generator of P_u to lam, which lies in the block
    of P_v at u."""
    corner = A.projective(v)._proj_basis[u]
    if any(c for i, c in enumerate(lam) if i not in corner):
        raise AlgebraError("left multiplication needs an element of e_v A e_u")
    return generator_map(A.projective(v), [(u, [lam[i] for i in corner])])


def nu_map(f: ModuleMap, u, v) -> ModuleMap:
    """The twist of a map P_u -> P_v, as a map I_u -> I_v.

    The element lam behind f is carried through the anti-isomorphism to
    the opposite algebra, acts there as a map between opposite-side
    projectives, and comes back through vector-space duality.
    """
    A = f.source.algebra
    op = A.op()
    lam = hom_to_element(f, u, v)
    mu = A.to_op(lam)
    ghat = left_mult_map(op, mu, v, u)
    return dual_map(ghat, A.injective(u), A.injective(v))


def nu_inv_map(g: ModuleMap, u, v) -> ModuleMap:
    """Inverse twist of a map I_u -> I_v, as a map P_u -> P_v."""
    A = g.source.algebra
    op = A.op()
    ghat = dual_map(g, op.projective(v), op.projective(u))
    mu = hom_to_element(ghat, v, u)
    lam = op.to_op(mu)
    return left_mult_map(A, lam, u, v)


def _twist_complex(X: Complex, kind_out, block_fn):
    parts = {n: tuple(Summand(kind_out, t.vertex) for t in p)
             for n, p in X.parts.items()}
    blocks = {n: {(k, l): block_fn(b, X.parts[n][k].vertex,
                                   X.parts[n + 1][l].vertex)
                  for (k, l), b in grid.items()}
              for n, grid in X.blocks.items()}
    return Complex(X.algebra, parts, blocks, approx_above=X.approx_above,
                   approx_below=X.approx_below)


def nu_complex(X: Complex) -> Complex:
    """Twist a complex of projectives into the matching injective complex."""
    if not all_tags(X, "P"):
        raise AlgebraError("the twist is defined on complexes of projectives")
    return _twist_complex(X, "I", nu_map)


def nu_inverse_complex(X: Complex) -> Complex:
    """Untwist a complex of injectives into the matching projective complex."""
    if not all_tags(X, "I"):
        raise AlgebraError("the untwist is defined on complexes of injectives")
    return _twist_complex(X, "P", nu_inv_map)


# ---- the iteration ----

ObjectRun = namedtuple(
    "ObjectRun",
    ["complex", "status", "cones", "rounds", "b_tables", "certified_exact",
     "dual_basis"])


def _fingerprint(T: Complex, btab):
    tags = tuple(sorted(
        (n, tuple(sorted((t.kind, t.vertex) for t in p)))
        for n, p in T.parts.items()))
    return (tags, T.approx_above, tuple(sorted(btab.items())))


def _assemble_evaluation(pieces, T: Complex):
    """One chain map (direct sum of the sources) -> T from several maps.

    A single piece is returned as it is: the direct sum of one complex,
    placed at the origin offsets, is that complex, and the placed map
    is that map.  Over a self-injective algebra every round usually
    cones one class.  The summand blocks of several pieces are their
    own, each piece's rows moved past the summands of the pieces before
    it, so cone slices no more than it would for the pieces alone."""
    if len(pieces) == 1:
        return pieces[0]
    A = T.algebra
    U = direct_sum_complexes([p[0] for p in pieces])
    origin = (0,) * A.quiver.n
    comps, grids = {}, {}
    for n in U.parts:
        offsets, _ = summand_offsets(A, [Ui.module(n) for Ui, _ in pieces])
        comps[n] = map_placement(U.module(n), offsets, T.module(n), [origin],
                                 {(i, 0): gi.comp(n) for i, (_, gi) in enumerate(pieces)})
        grids[n], dk = {}, 0
        for Ui, gi in pieces:
            grids[n].update(((k + dk, l), b) for (k, l), b in gi.grid(n).items())
            dk += len(Ui.parts.get(n, ()))
    return U, ChainMap(U, T, comps, grids)


def _b_table(sources, T):
    """Homotopy classes of maps from each shifted member into T.

    sources holds (j, X_j, shifted) per member, with shifted the
    (m, U, iota) of each shifted member U = X_j[m]; iota is None when
    X_j is not a stalk, and otherwise a function of no arguments that
    returns the coaugmentation of U's coresolution.  Returns (table,
    pieces) with table[(j, m)] = class count and pieces the (source,
    map) pairs to cone, nearest shift only: a stalk's class map g: U ->
    T is extended along iota() to the coresolution, so that the cone is
    already a complex of injectives; any other member hands over (U, g)
    unchanged.  iota is called only for the shift that is coned.
    Classes are only collected where the hom window certifies degree
    zero; anything else is a setup error.

    Hom^0(X_j[m], T) is Hom^(-m)(X_j, T) entry for entry, with degree k
    of X_j at k - m in X_j[m], and with the same differential: the
    shift's sign (-1)^m on d is the hom differential's (-1)^(-m).  So
    one hom complex per member serves every shift and window check.
    """
    btab = {}
    by_shift = {}
    for j, X, shifted in sources:
        hom = [-m for m, _, _ in shifted]
        hc = HomComplex(X, T, degrees=(min(hom) - 1, max(hom) + 1))
        for m, U, iota in shifted:
            if not hc.is_valid_degree(-m):
                raise AlgebraError(
                    "hom window too shallow for the requested shift; "
                    "increase the resolution depth")
            reps, _ = hc.chain_classes(-m)
            if reps:
                maps = [ChainMap(U, T, {k - m: c for k, c in rep.items()})
                        for rep in reps]
                btab[(j, m)] = len(maps)
                by_shift.setdefault(m, []).append((U, iota, maps))
    if not by_shift:
        return btab, []
    pieces = []
    for U, iota, maps in by_shift[max(by_shift)]:
        if iota is None:
            pieces.extend((U, g) for g in maps)
        else:
            coaug = iota()
            pieces.extend((coaug.target, g) for g in extend_along(coaug, maps))
    return btab, pieces


def _iterate_object(T, sources, budget, tau):
    cones = 0
    rounds = 0
    b_tables = []
    seen = set()
    while True:
        btab, pieces = _b_table(sources, T)
        b_tables.append(btab)
        if not pieces:
            status = "terminated"
            break
        fp = _fingerprint(T, btab)
        if fp in seen:
            status = "window_stable"
            break
        seen.add(fp)
        if cones + len(pieces) > budget:
            status = "budget_exceeded"
            break
        U, f = _assemble_evaluation(pieces, T)
        T = injective_form(cone(f), top=tau)
        cones += len(pieces)
        rounds += 1
    return T, status, cones, rounds, b_tables


def _strip_above(X: Complex) -> Complex:
    return Complex(X.algebra, X.parts, X.blocks, approx_above=None,
                   approx_below=X.approx_below)


def _exactness_candidates(T: Complex):
    """Trimmed versions of a cut complex that might be globally correct.

    The cut edge of a complex cut at tau can retain a stub that the
    true object does not have.  Every support gap (and a trailing gap
    below the marker) marks a trim point; candidates are yielded
    largest first.  Adopting one requires the certificate to pass.
    """
    if T.approx_above is None or not T.parts:
        return
    degs = T.support()
    cuts = set()
    if degs[-1] < T.approx_above:
        cuts.add(degs[-1])
    for a, b in zip(degs, degs[1:]):
        if b - a >= 2:
            cuts.add(a)
    for c in sorted(cuts, reverse=True):
        yield _strip_above(T.cut_above(c))


def _pair_range(X: Complex, T: Complex):
    """Degrees m where Hom(X, T[m]) can be nonzero for support reasons."""
    if X.is_zero() or T.is_zero():
        return 0, 0
    return T.min_deg() - X.max_deg(), T.max_deg() - X.min_deg()


def _dual_basis_table(objects, T, i):
    """Companion T_i's rows (j, m, dim Hom(X_j, T_i[m]) or None where
    uncertified, expected dim) over the structural range of every
    pair, one derived_hom call per member."""
    rows = []
    for j, Xj in enumerate(objects):
        lo, hi = _pair_range(Xj, T)
        lo, hi = min(lo, 0), max(hi, 0)
        tab = derived_hom(Xj, T, lo, hi)
        rows.extend((j, m, tab.entries.get(m), 1 if (i == j and m == 0) else 0)
                    for m in range(lo, hi + 1))
    return rows


def verify_dual_basis(tables):
    """Aggregate the companions' dual-basis tables into one report.

    tables[i] is companion T_i's one table (_dual_basis_table): exact
    companions are checked over their whole structural range, cut ones
    only inside the certified window, with the skipped degrees reported.
    status: certified / windowed / failed.
    """
    failures = []
    unchecked = []
    for i, rows in enumerate(tables):
        for j, m, got, want in rows:
            if got is None:
                unchecked.append({"source": j, "target": i, "shift": m})
            elif got != want:
                failures.append({"source": j, "target": i, "shift": m,
                                 "dim": got, "expected": want})
    if failures:
        status = "failed"
    elif unchecked:
        status = "windowed"
    else:
        status = "certified"
    return {"status": status, "failures": failures, "unchecked": unchecked}


def _dual_family(objects, window, budget, tau):
    """The cone iteration for every member of the checked, minimized
    family, every coresolution cut at tau: (runs, verification)."""
    cores = [member_resolution(X, "I", tau) for X in objects]
    sources = []
    for j, X in enumerate(objects):
        shifted = []
        for m in range(-window, 0):
            U = X.shift(m)
            iota = (functools.cache(functools.partial(
                shift_coresolution, cores[j], U, m, tau))
                if len(X.parts) == 1 else None)
            shifted.append((m, U, iota))
        if shifted:
            sources.append((j, X, shifted))
    runs = []
    for i in range(len(objects)):
        T0 = minimize(cores[i].complex, verify=False).complex
        T, status, cones, rounds, b_tables = _iterate_object(
            T0, sources, budget, tau)
        table = None
        if status == "terminated":
            for cand in _exactness_candidates(T):
                rows = _dual_basis_table(objects, cand, i)
                if all(got == want for _, _, got, want in rows):
                    T, table = cand, rows
                    break
        if table is None:
            table = _dual_basis_table(objects, T, i)
        runs.append(ObjectRun(T, status, cones, rounds, b_tables,
                              status == "terminated"
                              and T.approx_above is None, table))
    return runs, verify_dual_basis([r.dual_basis for r in runs])


def build_dual_objects(objects, window=4, budget=64, depth=None):
    """Run the cone iteration for every member of the family.

    window: how many negative shifts are inspected each round.
    budget: total cones allowed per object.
    depth: extra coresolution length beyond the window, so that every
    coresolution is cut at tau = (highest degree of a member) + window +
    depth.  None first cuts at depth 2 and keeps that result only when it
    is certified end to end; otherwise it reruns at depth 2 dim A + 4 and
    returns that run, certified or not.

    Returns {"runs": [ObjectRun], "verification": report, "certified":
    flag, "tau": the cut of the returned runs, ...}.  A run that
    terminated is certified exact when its final complex carries no cut
    marker, or when its trimmed candidate passes the full orthogonality
    check; a run that stopped early (budget_exceeded, window_stable)
    never is.  certified: every run is certified exact and the
    verification is certified.
    Each companion's dual-basis table is computed once, for its final
    complex (an adopted candidate keeps the table that adopted it), and
    kept on its run as dual_basis; verification only aggregates them.

    The shallow cut loses nothing a certified result shows.  Everything
    from degree window + 1 down is built the same at either cut: minimize
    cancels lowest degree first and never rewrites a lower degree,
    extend_along builds upward, and a shallower coresolution is a prefix
    of a deeper one.  The dual-basis certificate proves a companion
    whatever the cut; the tail above reaches only the window_stable stop
    rule and the degrees end_homology cannot check, and both appear only
    in results that are not certified, which the deeper cut recomputes.

    Every member is coresolved once per cut, to top tau, by
    derived.member_resolution, which keeps a stalk's coresolution for
    every later job on the algebra with the same stalk and tau.  A run
    starts from the minimized coresolution of its member, and a shifted
    stalk X_j[m] is mapped into its coresolution by
    derived.shift_coresolution, along which _b_table extends its class
    maps.  That coaugmentation is built the first time a round cones a
    class out of X_j[m] and kept for every later round of every run at
    that cut; a shift that no round cones is never built.
    """
    if not objects:
        raise AlgebraError("empty object family")
    A = objects[0].algebra
    for X in objects:
        if X.algebra is not A:
            raise AlgebraError("objects live over different algebras")
        if X.approx_above is not None or X.approx_below is not None:
            raise AlgebraError("input objects must be exact complexes")
    objects = [minimize(X, verify=False).complex for X in objects]
    if any(X.is_zero() for X in objects):
        raise AlgebraError("zero object in the input family")
    maxd = max(X.max_deg() for X in objects)
    for d in ((2, 2 * A.dim + 4) if depth is None else (depth,)):
        tau = maxd + window + d
        runs, verification = _dual_family(objects, window, budget, tau)
        certified = (all(r.certified_exact for r in runs)
                     and verification["status"] == "certified")
        if certified:
            break
    return {
        "objects": objects,
        "runs": runs,
        "verification": verification,
        "certified": certified,
        "window": window,
        "budget": budget,
        "tau": tau,
    }


# ---- endomorphisms of the total object ----

def total_complex(runs):
    return direct_sum_complexes([r.complex for r in runs])


def end_homology(T: Complex):
    """Dims of shifted self-maps, plus the degrees the window hid."""
    dims = {}
    unchecked = []
    if T.is_zero():
        return dims, unchecked, HomComplex(T, T)
    hc = HomComplex(T, T)
    span = T.max_deg() - T.min_deg()
    for m in range(-span, span + 1):
        if hc.is_valid_degree(m):
            d = hc.h_dim(m)
            if d:
                dims[m] = d
        else:
            unchecked.append(m)
    return dims, unchecked, hc


def h0_endomorphism_algebra(runs, hc):
    """Degree-zero self-maps of the total object, as a finite algebra.

    hc is the hom complex HomComplex(T, T) of the total object T of the
    runs, as end_homology returns it.  Basis: homotopy classes of chain
    endomorphisms.  The product of two classes applies the right factor
    first, so the resulting Peirce block e_i A e_j collects maps from
    the j-th companion to the i-th.  Returns (algebra, info) where info
    carries the class count and the per-companion idempotent
    coordinates.

    A product is formed only when a target companion of the first factor
    is a source companion of the second, read off T = (+) T_i from the
    nonzero entries of each class; any other is zero block by block.
    Nothing assumes the class basis adapted to the idempotents.
    """
    T = hc.X
    A = T.algebra
    f = A.field
    summands = [r.complex for r in runs]
    if not hc.is_valid_degree(0):
        raise AlgebraError("degree zero fell outside the certified window")
    reps, H = hc.chain_classes(0)
    dim = len(reps)

    def coords_of(comps):
        # only a zero T has an empty degree 0, with no classes and no H
        out = H.coords(hc.coords(0, comps)) if H is not None else ()
        if out is None:
            raise AlgebraError("composite of cycles failed to be a cycle")
        return out

    pieces = {n: [S.module(n) for S in summands] for n in T.parts}
    offsets = {n: summand_offsets(A, mods)[0] for n, mods in pieces.items()}
    # owner[(n, v)][p]: the companion that position p of T^n at v lies in
    owner = {(n, v): [i for i, M in enumerate(mods) for _ in range(M.dims[v])]
             for n, mods in pieces.items() for v in range(A.quiver.n)}
    # each class's (source, target) companion pairs with a nonzero entry
    support = [{(owner[(n, v)][r], owner[(n, v)][c])
                for n, m in rep.items() for v, b in m.blocks.items()
                for r, row in enumerate(b.data) for c, x in enumerate(row) if x}
               for rep in reps]
    sources = [{i for i, _ in pairs} for pairs in support]
    targets = [{j for _, j in pairs} for pairs in support]

    maps = [ChainMap(T, T, rep) for rep in reps]
    block = {}
    for a in range(dim):
        for b in range(dim):
            if targets[b].isdisjoint(sources[a]):
                continue
            prod = coords_of(maps[b].then(maps[a]).comps)
            coords = tuple((k, c) for k, c in enumerate(prod) if c)
            if coords:
                block[(a, b)] = coords
    unit = coords_of({n: ModuleMap.identity(T.module(n)) for n in T.parts})

    # companion i's idempotent is the identity on its block of T
    idems = []
    for i in range(len(summands)):
        comps = {n: map_placement(T.module(n), offsets[n], T.module(n), offsets[n],
                                  {(i, i): ModuleMap.identity(pieces[n][i])})
                 for n in T.parts}
        idems.append(coords_of(comps))

    gamma = FiniteAlgebra(f, {(0, 0): block}, unit, idems)
    info = {"dim": dim, "idempotents": idems}
    return gamma, info


def nu_stability(runs, tau):
    """Does the Nakayama untwist permute the companions?

    Over a self-injective algebra this property certifies the windowed
    verdict.
    """
    return _twist_check(runs, tau) == "stable"


def _twist_check(runs, tau):
    """"stable" when the injective form of every companion's untwist is
    isomorphic to a distinct companion, compared degreewise after
    cutting both sides to the shared trusted window.  A companion T_j is
    a candidate for the untwist of T_i when their degreewise dimensions
    agree; j = i is tried first, since the Nakayama permutation often
    fixes the vertices.  Matching greedily loses nothing, because
    isomorphism is an equivalence.  "unstable" when a companion is not a
    complex of injectives or an untwist has no candidate left;
    "exhausted" when complex_iso_search missed on every candidate, so
    nothing is decided.
    """
    Ts = [r.complex for r in runs]
    if any(T.is_zero() or not all_tags(T, "I") for T in Ts):
        return "unstable"
    free = list(range(len(Ts)))
    for i, T in enumerate(Ts):
        back = injective_form(nu_inverse_complex(T), top=tau)
        tried = False
        for j in sorted(free, key=lambda j: j != i):
            lim = min((v for v in (Ts[j].approx_above, back.approx_above)
                       if v is not None), default=None)
            Tc, Bc = Ts[j].cut_above(lim), back.cut_above(lim)
            if {n: Tc.dims_at(n) for n in Tc.parts} != \
                    {n: Bc.dims_at(n) for n in Bc.parts}:
                continue
            tried = True
            if complex_iso_search(Tc, Bc) is not None:
                free.remove(j)
                break
        else:
            return "exhausted" if tried else "unstable"
    return "stable"


# ---- the verdict ----

def check_tilting(objects, window=4, budget=64, depth=None):
    """Full pipeline: iterate, verify, inspect self-maps, pass a verdict.

    TILTING: every negative-degree self-map class of the total object
    vanishes, certified on the whole structural range (or through the
    twist-stability argument over a self-injective algebra).
    NOT_TILTING: a certified nonzero negative class, reported as a
    witness.  INCONCLUSIVE: the window hid the deciding degrees.
    INTERNAL_INVARIANT_VIOLATION: the construction contradicted itself;
    the output cannot be trusted.

    certified: the construction is trustworthy end to end: every run is
    certified exact (so it terminated), and so is the verification.  It
    is build_dual_objects' flag, which also decides the cut: depth None
    cuts two degrees past the window and deepens to 2 dim A + 4 only when
    that result is not certified, so every uncertified report comes from
    the deep cut; an explicit depth is used as given.
    """
    built = build_dual_objects(objects, window=window, budget=budget,
                               depth=depth)
    runs = built["runs"]
    ver = built["verification"]
    T = total_complex(runs)
    end_dims, end_unchecked, hc = end_homology(T)

    gamma = None
    gamma_info = None
    gamma_error = None
    try:
        gamma, gamma_info = h0_endomorphism_algebra(runs, hc)
    except AlgebraError as e:
        gamma_error = str(e)

    neg = sorted(m for m in end_dims if m < 0)
    pos = sorted(m for m in end_dims if m > 0)
    witness = None
    nu_ok = None
    unfinished = sorted({r.status for r in runs if r.status != "terminated"})

    if ver["failures"]:
        inside = [fl for fl in ver["failures"]
                  if -window <= fl["shift"] <= window
                  and runs[fl["target"]].status == "terminated"]
        if inside:
            verdict = "INTERNAL_INVARIANT_VIOLATION"
            reason = ("the verified orthogonality table contradicts the "
                      "terminated iteration inside its own window")
        elif unfinished:
            verdict = "INCONCLUSIVE"
            reason = ("the iteration stopped early (" +
                      ", ".join(unfinished) +
                      ") before the family was orthogonalized")
        else:
            verdict = "INCONCLUSIVE"
            reason = ("nonzero maps appear beyond the inspected shifts; "
                      "rerun with a larger window")
    elif unfinished:
        verdict = "INCONCLUSIVE"
        reason = ("the iteration stopped early (" + ", ".join(unfinished) +
                  "); the window shows no failure but completion is not "
                  "certified")
    elif pos:
        verdict = "INTERNAL_INVARIANT_VIOLATION"
        witness = (pos[0], end_dims[pos[0]])
        reason = ("positive-degree self-maps survived although every "
                  "orthogonality check passed")
    elif neg:
        verdict = "NOT_TILTING"
        witness = (neg[0], end_dims[neg[0]])
        reason = (f"self-maps of degree {neg[0]} have dimension "
                  f"{end_dims[neg[0]]}")
    elif not end_unchecked and ver["status"] == "certified":
        verdict = "TILTING"
        reason = "no negative-degree self-maps, certified everywhere"
    else:
        twist = (_twist_check(runs, built["tau"])
                 if is_self_injective(objects[0].algebra) else None)
        nu_ok = twist == "stable"
        if nu_ok:
            verdict = "TILTING"
            reason = ("window-clean and twist-stable over a self-injective "
                      "algebra")
        elif twist == "exhausted":
            verdict = "INCONCLUSIVE"
            reason = ("twist stability unproven: iso search exhausted "
                      f"({ISO_SEARCH_TRIES} tries)")
        else:
            verdict = "INCONCLUSIVE"
            reason = "the cut hid degrees that the verdict needs"

    return {
        "objects": built["objects"],
        "runs": runs,
        "verification": ver,
        "window": window,
        "budget": budget,
        "tau": built["tau"],
        "total": T,
        "end_homology": end_dims,
        "end_unchecked": end_unchecked,
        "gamma": gamma,
        "gamma_info": gamma_info,
        "gamma_error": gamma_error,
        "nu_stable": nu_ok,
        "certified": built["certified"],
        "verdict": verdict,
        "verdict_reason": reason,
        "witness": witness,
    }

"""Non-positive dg algebras and their perfect modules.

Everything is finite-dimensional over an exact field and fully
validated on construction: differentials square to zero, the Leibniz
rule and associativity are checked on every basis pair and triple where
a product, or a product with a differential, is nonzero (on the others
both sides vanish), units and idempotent decompositions are verified.
These checks are algebra's, written once for algebras and modules
alike.  Structure constants come in the one sparse format that algebra
defines (algebra.sparse_structure), nonzero products only, and every
producer here builds that table directly.  A right dg module's action
is such a table too, with module basis elements as first arguments and
outputs and algebra basis elements as second arguments, and every
reader multiplies through algebra.sparse_product.  Degrees follow the
cochain convention (differentials raise degree by one); elements of a
fixed degree are row vectors in the chosen basis of that degree.

The toolkit covers strictly perfect modules, with the standard
truncation t-structure and the Nakayama functor on them; strict_perfect
builds a presentation's module once, from its pieces' left-tag slices,
and keeps it.  A bounded complex of modules over a path algebra can be
packaged into its endomorphism dg algebra, which is where the truncated
endomorphism algebra of a dual family comes from; before truncation it
may have a positive part (DgAlgebra.nonpositive), which the non-positive
theory refuses.
"""

from collections import namedtuple

from .algebra import (ModuleMap, check_idempotents, check_unit,
                      is_associative, peirce_tags, satisfies_leibniz,
                      sparse_product, sparse_structure)
from .complexes import HomComplex
from .linalg import Mat, Subquotient, homology_dims


class DgError(Exception):
    pass


def _sparse(vec):
    """The nonzero coordinates of a vector, as (index, coefficient) pairs."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


def _dense(n, coords):
    """The vector of length n with the coordinates {index: coefficient}."""
    out = [0] * n
    for k, c in coords.items():
        out[k] = c
    return tuple(out)


def _span_coords(rows: Mat):
    """Coordinates over independent rows: coords(vec, what) solves through
    one echelon form held for every query and raises outside the span."""
    span = Subquotient(rows, Mat.zeros(rows.field, 0, rows.ncols))

    def coords(vec, what):
        out = span.coords(vec)
        if out is None:
            raise DgError(f"{what} is not in the expected span")
        return out
    return coords


def _check_differential(d, dims, what):
    for k, m in d.items():
        if (m.nrows, m.ncols) != (dims.get(k, 0), dims.get(k + 1, 0)):
            raise DgError(f"{what} shape mismatch")
        if k + 1 in d and not m.mul(d[k + 1]).is_zero():
            raise DgError(f"{what} does not square to zero")


# ---- dg algebras ----

class DgAlgebra:
    """Finite-dimensional dg algebra with chosen basis.

    dims: {degree: dimension}; d[i]: matrix of the differential from
    degree i to i+1.  mult[(i, j)][(a, b)] = ((k, c), ...) lists
    the nonzero coordinates, inside degree i+j, of each nonzero product
    of the a-th degree-i and b-th degree-j basis elements (see
    algebra.sparse_structure).  unit and idempotents live in degree 0.
    """

    def __init__(self, field, dims, d, mult, unit, idempotents):
        self.field = field
        self.dims = {k: n for k, n in dims.items() if n}
        self.d = {k: m for k, m in d.items() if not m.is_zero()}
        self.unit = tuple(unit)
        self.idempotents = [tuple(e) for e in idempotents]
        self.mult = sparse_structure(mult, self.dims, DgError)
        self.validate()

    @property
    def nonpositive(self):
        """No degree is positive.  Endomorphism dg algebras of complexes
        usually have a positive part, and are truncated (truncate_algebra)
        before any use that needs the non-positive theory."""
        return all(k <= 0 for k in self.dims)

    def dim_at(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def elem_d(self, i, x):
        if i not in self.d:
            return (0,) * self.dim_at(i + 1)
        return tuple(Mat(self.field, [list(x)]).mul(self.d[i]).data[0])

    def validate(self):
        f = self.field
        if self.dim_at(0) == 0:
            raise DgError("the degree-zero part must contain the unit")
        _check_differential(self.d, self.dims, "differential")
        if not satisfies_leibniz(f, self.mult, self.d, self.d):
            raise DgError("Leibniz rule fails")
        if not is_associative(f, self.mult):
            raise DgError("multiplication is not associative")
        if any(self.elem_d(0, self.unit)):
            raise DgError("the unit must be a cycle")
        check_unit(f, self.mult, self.dims, self.unit, DgError)
        check_idempotents(f, self.mult, self.idempotents, self.unit, DgError)

    def cohomology_dims(self):
        return homology_dims(self.dims, self.d)

    def peirce_tags(self):
        """(left, right) idempotent tags per basis element (see
        algebra.peirce_tags)."""
        return peirce_tags(self.field, self.mult, self.dims,
                           self.idempotents, DgError)


def dg_from_path_algebra(A) -> DgAlgebra:
    """An ordinary path-algebra quotient viewed as a dg algebra in degree 0."""
    idems = [A.idempotent(v) for v in range(A.quiver.n)]
    return DgAlgebra(A.field, {0: A.dim}, {}, A.products, A.one(), idems)


# ---- dg modules ----

class DgModule:
    """Bounded right dg module over a DgAlgebra, basis chosen per degree.

    action[(k, i)][(m, a)] = ((t, c), ...) lists the nonzero coordinates,
    in degree k+i of the module, of the m-th degree-k module basis
    element times the a-th degree-i algebra basis element: the sparse
    format of algebra.sparse_structure, with the module's dims for the
    first argument and the output and the algebra's for the second.
    """

    def __init__(self, algebra: DgAlgebra, dims, d, action):
        self.algebra = algebra
        self.field = algebra.field
        self.dims = {k: n for k, n in dims.items() if n}
        self.d = {k: m for k, m in d.items() if not m.is_zero()}
        self.action = sparse_structure(action, self.dims, DgError,
                                       acting=algebra.dims)
        self.validate()

    def dim_at(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def elem_d(self, k, x):
        if k not in self.d:
            return (0,) * self.dim_at(k + 1)
        return tuple(Mat(self.field, [list(x)]).mul(self.d[k]).data[0])

    def validate(self):
        f = self.field
        A = self.algebra
        _check_differential(self.d, self.dims, "module differential")
        check_unit(f, self.action, self.dims, A.unit, DgError, left=False)
        # d(x a) = d(x) a + (-1)^k x d(a) for x of degree k
        if not satisfies_leibniz(f, self.action, self.d, A.d):
            raise DgError("module Leibniz rule fails")
        # (x a) b = x (a b)
        if not is_associative(f, self.action, A.mult):
            raise DgError("module action is not associative")

    def cohomology_dims(self):
        return homology_dims(self.dims, self.d)


# ---- free summands and strictly perfect modules ----

StrictPerfect = namedtuple("StrictPerfect",
                           ["algebra", "pieces", "delta", "module"])
StrictPerfect.__doc__ = """Iterated extension of shifted free summands.

pieces: tuple of (shift, idempotent index).  delta[(t, u)] (t < u only)
is an algebra element of degree 1 - shift_t + shift_u, in e_{i_u} A
e_{i_t}, acting by left multiplication as the connecting component of
the differential from piece t to piece u.  This presentation is the
perfection certificate; operations that need one take this type.
module is the underlying dg module, built and validated once by
strict_perfect.
"""


def _delta_degree(pieces, t, u):
    return 1 - pieces[t][0] + pieces[u][0]


def _perfect_module(A: DgAlgebra, tags, pieces, delta) -> DgModule:
    """The dg module of the pieces (shift, i) glued by delta, as a
    StrictPerfect describes them; tags are A's Peirce tags.

    Piece t = (s, i) holds, in module degree m, the slice of A^(m + s)
    whose left tag is i, which is (e_i A)^(m + s).  The differential is
    the internal one of each piece, signed by (-1)^s, plus left
    multiplication by delta[(t, u)] from piece t into piece u; the
    action is block diagonal over the pieces.  The module is validated
    once, by DgModule.
    """
    f = A.field
    # pos[t][k]: the basis elements of A^k in piece t's slice, each with
    # its position inside the slice
    pos = [{k: {a: r for r, a in enumerate(
        a for a, (l, _) in enumerate(row) if l == i)}
        for k, row in tags.items()} for _, i in pieces]
    dims, offs = {}, {}
    for t, (s, _) in enumerate(pieces):
        for k, p in pos[t].items():
            if p:
                offs[(k - s, t)] = dims.get(k - s, 0)
                dims[k - s] = offs[(k - s, t)] + len(p)
    rows = {m: [[0] * dims[m + 1] for _ in range(n)]
            for m, n in dims.items() if m + 1 in dims}

    def put(m, t, r, u, b, coef, what):
        """Add coef at row r of piece t in degree m, column b of A's
        basis inside piece u's slice in degree m + 1."""
        c = pos[u].get(m + 1 + pieces[u][0], {}).get(b)
        if c is None:
            raise DgError(f"{what} left its slice")
        row = rows[m][offs[(m, t)] + r]
        c += offs[(m + 1, u)]
        row[c] = f.norm(row[c] + coef)

    for t, (s, _) in enumerate(pieces):
        for k, p in pos[t].items():
            for a, r in (p.items() if k in A.d else ()):
                for b, c in enumerate(A.d[k].data[a]):
                    if c:
                        put(k - s, t, r, t, b, -c if s % 2 else c,
                            "differential")
    for (t, u), x in delta.items():
        deg = _delta_degree(pieces, t, u)
        s = pieces[t][0]
        for k, p in pos[t].items():
            for a, r in p.items():
                img = sparse_product(f, A.mult, deg, _sparse(x), k,
                                     ((a, 1),))
                for b, coef in img.items():
                    put(k - s, t, r, u, b, coef, "connecting map")
    d = {m: Mat(f, r, ncols=dims[m + 1]) for m, r in rows.items()}
    action = {}
    for (k, j), block in A.mult.items():
        for t, (s, _) in enumerate(pieces):
            src, tgt = pos[t].get(k, {}), pos[t].get(k + j, {})
            for (a, b), prod in block.items():
                if a not in src:
                    continue
                if any(c not in tgt for c, _ in prod):
                    raise DgError("action left its slice")
                out = action.setdefault((k - s, j), {})
                out[(offs[(k - s, t)] + src[a], b)] = tuple(
                    (offs[(k + j - s, t)] + tgt[c], v) for c, v in prod)
    return DgModule(A, dims, d, action)


def strict_perfect(A: DgAlgebra, pieces, delta=None) -> StrictPerfect:
    """Validated constructor: checks triangularity, degrees and tags, then
    builds the module, which checks d^2 = 0 and all module laws."""
    if not A.nonpositive:
        raise DgError("strictly perfect modules need a non-positive algebra")
    pieces = tuple((int(s), int(i)) for s, i in pieces)
    delta = dict(delta or {})
    tags = A.peirce_tags()
    for (t, u), x in delta.items():
        if not (0 <= t < u < len(pieces)):
            raise DgError("connecting entries must be strictly upper "
                          "triangular")
        deg = _delta_degree(pieces, t, u)
        if A.dim_at(deg) != len(x):
            raise DgError("connecting entry has the wrong degree")
        iu, it = pieces[u][1], pieces[t][1]
        for a, c in enumerate(x):
            if c and tags[deg][a] != (iu, it):
                raise DgError("connecting entry outside its corner")
    return StrictPerfect(A, pieces, delta,
                         _perfect_module(A, tags, pieces, delta))


def materialize(sp: StrictPerfect) -> DgModule:
    """The underlying dg module of a strictly perfect presentation."""
    return sp.module


# ---- truncation t-structure ----

def _subquotient_action(M: DgModule, reps, coords):
    """The action table of a subquotient of M: reps[k] holds the
    representatives in M^k of its degree-k basis, and coords(k, vec) the
    coordinates of a vector of M^k in that basis."""
    f = M.field
    A = M.algebra
    action = {}
    for k, rows in reps.items():
        for i in A.degrees():
            if k + i not in reps:
                continue
            block = {}
            for m, row in enumerate(rows.data):
                x = _sparse(row)
                for a in range(A.dim_at(i)):
                    prod = sparse_product(f, M.action, k, x, i, ((a, 1),))
                    img = _sparse(coords(k + i, _dense(
                        M.dim_at(k + i), prod))) if prod else ()
                    if img:
                        block[(m, a)] = img
            if block:
                action[(k, i)] = block
    return action


def truncate(M: DgModule):
    """(tau_{<=0} M, tau_{>=1} M, inclusion mats, projection mats).

    The lower piece keeps all negative degrees and the kernel of d^0;
    the upper piece is M^1 / im d^0 in degree 1 and everything above.
    Cohomology splits accordingly.
    """
    A = M.algebra
    f = A.field
    d0 = M.d.get(0)
    if d0 is None:
        ker = Mat.identity(f, M.dim_at(0))
        img = Mat.zeros(f, 0, M.dim_at(1))
    else:
        ker = d0.left_kernel_basis().row_space_basis()
        img = Mat(f, list(d0.data), ncols=d0.ncols).row_space_basis()

    inc = {}
    lo_dims, lo_d = {}, {}
    for k in M.degrees():
        if k < 0:
            lo_dims[k] = M.dim_at(k)
            inc[k] = Mat.identity(f, M.dim_at(k))
        elif k == 0 and ker.nrows:
            lo_dims[0] = ker.nrows
            inc[0] = ker
    lo_coords = {k: _span_coords(inc[k]) for k in lo_dims}
    for k in lo_dims:
        if k + 1 in lo_dims and k in M.d:
            big = inc[k].mul(M.d[k])
            rows = [lo_coords[k + 1](r, "truncated differential")
                    for r in big.data]
            lo_d[k] = Mat(f, [list(r) for r in rows], ncols=lo_dims[k + 1])
    lo = DgModule(A, lo_dims, lo_d, _subquotient_action(
        M, inc, lambda k, vec: lo_coords[k](vec, "truncated action")))

    proj = {}
    hi_dims, hi_d = {}, {}
    quo = Subquotient(Mat.identity(f, M.dim_at(1)), img) \
        if M.dim_at(1) else None
    for k in M.degrees():
        if k > 1:
            hi_dims[k] = M.dim_at(k)
            proj[k] = Mat.identity(f, M.dim_at(k))
        elif k == 1 and quo is not None and quo.dim:
            hi_dims[1] = quo.dim
            rows = [list(quo.coords(u))
                    for u in Mat.identity(f, M.dim_at(1)).data]
            proj[1] = Mat(f, rows, ncols=quo.dim)
    rep = {k: (quo.reps if k == 1 and quo is not None
               else Mat.identity(f, M.dim_at(k)))
           for k in hi_dims}
    for k in hi_dims:
        if k + 1 in hi_dims and k in M.d:
            hi_d[k] = rep[k].mul(M.d[k]).mul(proj[k + 1])
    hi = DgModule(A, hi_dims, hi_d, _subquotient_action(
        M, rep, lambda k, vec: Mat(f, [list(vec)]).mul(proj[k]).data[0]))
    return lo, hi, inc, proj


HomData = namedtuple("HomData", ["field", "dims", "d", "basis"])
HomData.__doc__ = """Cochain data of a hom space out of a strictly
perfect module: graded dimensions, differential matrices, and the
basis labels (piece index, slice position) per degree."""


def _right_slice_rows(N: DgModule, k, i):
    """Rows spanning (N^k) e_i, the fixed space of the right action: the
    row space of x e_i over the basis elements x of N^k."""
    f = N.field
    n = N.dim_at(k)
    if n == 0:
        return Mat.zeros(f, 0, 0)
    e = _sparse(N.algebra.idempotents[i])
    rows = [list(_dense(n, sparse_product(f, N.action, k, ((m, 1),), 0, e)))
            for m in range(n)]
    return Mat(f, rows, ncols=n).row_space_basis()


def hom_perfect_module(sp: StrictPerfect, N: DgModule) -> HomData:
    """The hom complex Hom_A(M, N) for strictly perfect M.

    Degree-k maps are recorded by their values on the piece
    generators; the value at piece (s, i) lies in (N^{k-s}) e_i.
    Because M is strictly perfect this complex computes the derived
    hom space.
    """
    A = sp.algebra
    f = A.field
    slices, slice_coords = {}, {}
    degs = set()
    # (N^kN) e_i and its solver depend on (kN, i) only, so pieces with
    # the same idempotent share them
    spans = {}
    for t, (s, i) in enumerate(sp.pieces):
        for kN in N.degrees():
            if (kN, i) not in spans:
                slc = _right_slice_rows(N, kN, i)
                spans[(kN, i)] = (slc, _span_coords(slc) if slc.nrows
                                  else None)
            slc, coords = spans[(kN, i)]
            if slc.nrows:
                slices[(t, kN + s)] = slc
                slice_coords[(t, kN + s)] = coords
                degs.add(kN + s)
    dims, basis = {}, {}
    for k in sorted(degs):
        labels = []
        for t in range(len(sp.pieces)):
            if (t, k) in slices:
                labels.extend((t, r) for r in range(slices[(t, k)].nrows))
        if labels:
            dims[k] = len(labels)
            basis[k] = labels
    d = {}
    for k in sorted(dims):
        if dims.get(k + 1, 0) == 0:
            continue
        rows = []
        for (t, r) in basis[k]:
            s_t, i_t = sp.pieces[t]
            v = tuple(slices[(t, k)].data[r])
            out = {q: [0] * slices[(q, k + 1)].nrows
                   for q in range(len(sp.pieces)) if (q, k + 1) in slices}
            dv = N.elem_d(k - s_t, v)
            if any(dv):
                if (t, k + 1) not in slices:
                    raise DgError("hom differential left its slice")
                cr = slice_coords[(t, k + 1)](dv, "hom value")
                for c, coef in enumerate(cr):
                    out[t][c] += coef
            # the generator of piece p maps to x_{pt} inside piece t,
            # so the value at p picks up v . x_{pt}
            for (p, u), x in sp.delta.items():
                if u != t:
                    continue
                deg = _delta_degree(sp.pieces, p, u)
                w = sparse_product(f, N.action, k - s_t, _sparse(v), deg,
                                   _sparse(x))
                if not w:
                    continue
                if (p, k + 1) not in slices:
                    raise DgError("hom differential left its slice")
                cr = slice_coords[(p, k + 1)](
                    _dense(N.dim_at(k - s_t + deg), w), "hom value")
                for c, coef in enumerate(cr):
                    out[p][c] += coef if k % 2 else -coef
            rows.append([f.norm(out[q][rr]) for (q, rr) in basis[k + 1]])
        m = Mat(f, rows, ncols=dims[k + 1])
        if not m.is_zero():
            d[k] = m
    _check_differential(d, dims, "hom complex differential")
    return HomData(f, dims, d, basis)


def hom_cohomology(sp: StrictPerfect, N: DgModule):
    h = hom_perfect_module(sp, N)
    return homology_dims(h.dims, h.d)


# ---- the Nakayama functor on strictly perfect modules ----

def dg_nakayama(sp: StrictPerfect) -> DgModule:
    """The dual of Hom_A(M, A), as a validated right dg module.

    Hom_A(M, A) is a left module; its graded dual carries the right
    action (psi . a)(y) = psi(a y) on matched degrees, and the
    differential (d psi)(y) = -(-1)^{|psi|} psi(d y).  With this
    differential a sign (-1)^{|a|} in the action would break the Leibniz
    rule wherever d(a) != 0.  On a free summand e_i A this produces the
    dual of A e_i.
    """
    A = sp.algebra
    f = A.field
    tags = A.peirce_tags()
    ybasis = {}
    for k in range(min(A.degrees()) + min(s for s, _ in sp.pieces),
                   max(A.degrees()) + max(s for s, _ in sp.pieces) + 1):
        labels = []
        for t, (s, i) in enumerate(sp.pieces):
            for a, (_, r) in enumerate(tags.get(k - s, [])):
                if r == i:
                    labels.append((t, a))
        if labels:
            ybasis[k] = labels
    ypos = {k: {lab: c for c, lab in enumerate(v)}
            for k, v in ybasis.items()}

    def y_d(k):
        """Differential matrix of Y = Hom(M, A) from degree k to k+1."""
        rows = []
        for (t, a) in ybasis[k]:
            s_t, _ = sp.pieces[t]
            out = [0] * len(ybasis.get(k + 1, []))
            da = A.d[k - s_t].data[a] if k - s_t in A.d else ()
            for b, coef in enumerate(da):
                if coef:
                    out[ypos[k + 1][(t, b)]] = coef
            for (p, u), x in sp.delta.items():
                if u != t:
                    continue
                prod = sparse_product(f, A.mult, k - s_t, ((a, 1),),
                                      _delta_degree(sp.pieces, p, u),
                                      _sparse(x))
                for b, coef in prod.items():
                    c = ypos[k + 1][(p, b)]
                    out[c] += coef if k % 2 else -coef
            rows.append([f.norm(x) for x in out])
        return Mat(f, rows, ncols=len(ybasis.get(k + 1, [])))

    dims = {-k: len(v) for k, v in ybasis.items()}
    d = {}
    for m in dims:
        if dims.get(m + 1, 0) == 0:
            continue
        d[m] = y_d(-m - 1).transpose().scale(1 if m % 2 else -1)
    # psi in degree m times a in degree j is the functional
    # y -> psi(a y) in degree m + j, on the y of degree -m - j; the c-th
    # such y, times a, has coordinate coef at the b-th element of degree
    # -m, which makes coordinate c of psi_b . a equal to coef
    action = {}
    for m in dims:
        for j in A.degrees():
            k = -m - j
            if k not in ybasis:
                continue
            block = {}
            for c, (t, a2) in enumerate(ybasis[k]):
                s_t = sp.pieces[t][0]
                for a in range(A.dim_at(j)):
                    prod = sparse_product(f, A.mult, j, ((a, 1),),
                                          k - s_t, ((a2, 1),))
                    for b2, coef in prod.items():
                        b = ypos[-m][(t, b2)]
                        block.setdefault((b, a), []).append((c, coef))
            if block:
                action[(m, j)] = {key: tuple(v) for key, v in block.items()}
    return DgModule(A, dims, d, action)


# ---- endomorphism dg algebras of complexes over a path algebra ----

def endomorphism_dg_algebra(pieces):
    """The endomorphism dg algebra of a finite list of complexes.

    Degree-m elements are families of module maps X_p^n -> X_q^{n+m};
    block (p, q) is the hom complex HomComplex(X_p, X_q), so the
    differential f . d - (-1)^m d . f is the block diagonal of theirs.
    Degree m lists the blocks' bases, p outer and q inner.  The product
    of two families applies the right factor first, so the degree-0
    identity families are orthogonal idempotents adapted to the pieces.
    The result usually has positive components; pass it through
    gamma_tilde for the truncated algebra.
    """
    if not pieces:
        raise DgError("no complexes given")
    alg = pieces[0].algebra
    for X in pieces:
        if X.algebra is not alg:
            raise DgError("complexes live over different algebras")
        if X.approx_above is not None or X.approx_below is not None:
            raise DgError("endomorphisms need fully known complexes")
    if any(X.is_zero() for X in pieces):
        raise DgError("zero complexes have no endomorphism algebra")
    f = alg.field
    blocks = {(p, q): HomComplex(X, Y)
              for p, X in enumerate(pieces) for q, Y in enumerate(pieces)}
    basis = {}      # m -> list of (p, q, n, ModuleMap)
    offsets = {}    # (m, p, q) -> first index of block (p, q) in degree m
    for (p, q), hc in blocks.items():
        for m, entries in hc.bases.items():
            row = basis.setdefault(m, [])
            offsets[(m, p, q)] = len(row)
            row.extend((p, q, n, h) for n, h in entries)
    dims = {m: len(basis[m]) for m in sorted(basis)}

    def coords_of(m, p, q, comps):
        """comps: {n: ModuleMap} inside block (p, q), as the (index,
        coefficient) pairs of the nonzero coordinates in degree m."""
        vec = blocks[(p, q)].coords(m, comps)
        off = offsets.get((m, p, q), 0)
        return tuple((off + t, c) for t, c in enumerate(vec) if c)

    d = {}
    for m in sorted(dims):
        if m + 1 not in dims:
            continue
        rows = []
        for (p, q), hc in blocks.items():
            dm = hc.diffs.get(m)
            for a in range(len(hc.bases.get(m, ()))):
                row = [0] * dims[m + 1]
                if dm is not None:
                    off = offsets[(m + 1, p, q)]
                    row[off:off + dm.ncols] = dm.data[a]
                rows.append(row)
        d[m] = Mat(f, rows, ncols=dims[m + 1])
    mult = {}
    for i in sorted(dims):
        for j in sorted(dims):
            if i + j not in dims:
                continue
            block = {}
            for a, (p, q, n, h) in enumerate(basis[i]):
                for b, (p2, q2, n2, h2) in enumerate(basis[j]):
                    # product x·y applies y first: only pairs where y
                    # lands where x starts, in matching degrees, compose
                    if q2 != p or n2 + j != n:
                        continue
                    prod = coords_of(i + j, p2, q, {n2: h2.then(h)})
                    if prod:
                        block[(a, b)] = prod
            mult[(i, j)] = block

    idems = []
    unit = [0] * dims[0]
    for p, X in enumerate(pieces):
        e = [0] * dims[0]
        for t, c in coords_of(0, p, p, {n: ModuleMap.identity(X.module(n))
                                        for n in X.parts}):
            e[t] = unit[t] = c
        idems.append(tuple(e))
    return DgAlgebra(f, dims, d, mult, tuple(unit), idems)


def gamma_tilde(pieces):
    """Truncate the endomorphism dg algebra of the pieces at degree 0.

    Returns (truncated dg algebra, full cohomology dims of the
    untruncated one).  Raises when the untruncated algebra has
    cohomology in positive degrees, because then the truncation loses
    information and the construction upstream must be revisited.
    """
    E = endomorphism_dg_algebra(pieces)
    h = E.cohomology_dims()
    bad = sorted(m for m in h if m > 0)
    if bad:
        raise DgError(
            f"endomorphism algebra has cohomology in positive degree "
            f"(witness degree {bad[0]})")
    return truncate_algebra(E), h


def truncate_algebra(E: DgAlgebra) -> DgAlgebra:
    """The sub-dg-algebra with degree 0 replaced by the cycles there.

    Non-positive by construction; quasi-isomorphic to E below degree
    one, so it has the same cohomology in degrees <= 0.
    """
    f = E.field
    ker = E.d[0].left_kernel_basis().row_space_basis() if 0 in E.d \
        else Mat.identity(f, E.dim_at(0))
    dims = {k: n for k, n in E.dims.items() if k < 0}
    if ker.nrows:
        dims[0] = ker.nrows
    ker_coords = _span_coords(ker)

    def coords(k, prod):
        """The nonzero coordinates, in ascending order, of a nonzero
        {index: coefficient} vector of E^k in the basis of degree k."""
        if k == 0:
            return _sparse(ker_coords(_dense(E.dim_at(0), prod),
                                      "degree-zero cycle"))
        return tuple(sorted(prod.items()))

    d = {}
    for k, m in E.d.items():
        if k < 0 and dims.get(k + 1):
            rows = [ker_coords(r, "degree-zero cycle") if k + 1 == 0 else r
                    for r in m.data]
            d[k] = Mat(f, [list(r) for r in rows], ncols=dims[k + 1])
    basis = {k: [_sparse(r) for r in ker.data] if k == 0
             else [((a, 1),) for a in range(n)] for k, n in dims.items()}
    mult = {}
    for i in dims:
        for j in dims:
            if i + j not in dims:
                continue
            block = {}
            for a, x in enumerate(basis[i]):
                for b, y in enumerate(basis[j]):
                    prod = sparse_product(f, E.mult, i, x, j, y)
                    if prod:
                        block[(a, b)] = coords(i + j, prod)
            mult[(i, j)] = block
    unit = ker_coords(E.unit, "degree-zero cycle")
    idems = [ker_coords(e, "degree-zero cycle") for e in E.idempotents]
    return DgAlgebra(f, dims, d, mult, unit, idems)

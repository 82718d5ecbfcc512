"""Non-positive dg algebras and their perfect modules.

Everything is finite-dimensional over an exact field and fully
validated on construction: differentials square to zero, the Leibniz
rule and associativity are checked on every basis pair and triple where
a product, or a product with a differential, is nonzero (on the others
both sides vanish), units and idempotent decompositions are verified.
Structure constants come in the one sparse format that algebra defines
(algebra.sparse_structure), nonzero products only, and every producer
here builds that table directly.  Degrees
follow the cochain convention (differentials raise degree by one);
elements of a fixed degree are row vectors in the chosen basis of that
degree.

The toolkit covers strictly perfect modules, with the standard
truncation t-structure and the Nakayama functor on them.  A bounded
complex of modules over a path algebra can be packaged into its
endomorphism dg algebra, which is where the truncated endomorphism
algebra of a dual family comes from.
"""

from collections import namedtuple

from .algebra import (ModuleMap, dense_product, is_associative,
                      peirce_tags, sparse_product, sparse_structure)
from .complexes import HomComplex
from .linalg import Mat, Subquotient, homology_dims


class DgError(Exception):
    pass


def _zeros(f, n):
    return tuple([f.zero()] * n)


def _unit_vec(f, n, k):
    z = f.zero()
    return tuple(f.one() if i == k else z for i in range(n))


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


# ---- dg algebras ----

class DgAlgebra:
    """Finite-dimensional non-positive dg algebra with chosen basis.

    dims: {degree <= 0: dimension}; d[i]: matrix of the differential
    from degree i to i+1.  mult[(i, j)][(a, b)] = ((k, c), ...) lists
    the nonzero coordinates, inside degree i+j, of each nonzero product
    of the a-th degree-i and b-th degree-j basis elements (see
    algebra.sparse_structure).  unit and idempotents live in degree 0.
    """

    def __init__(self, field, dims, d, mult, unit, idempotents,
                 nonpositive=True):
        self.field = field
        self.dims = {k: n for k, n in dims.items() if n}
        self.d = {k: m for k, m in d.items() if not m.is_zero()}
        self.unit = tuple(unit)
        self.idempotents = [tuple(e) for e in idempotents]
        # endomorphism dg algebras of complexes carry positive parts;
        # they set nonpositive=False and are truncated before any use
        # that needs the non-positive theory
        self.nonpositive = nonpositive
        # before the table is checked, so that a table shaped for a
        # positive part is reported as one
        self._check_degrees()
        self.mult = sparse_structure(mult, self.dims, DgError)
        self.validate()

    def dim_at(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def elem_mult(self, i, x, j, y):
        return dense_product(self.field, self.mult, i, x, j, y,
                             self.dim_at(i + j))

    def elem_d(self, i, x):
        if i not in self.d:
            return _zeros(self.field, self.dim_at(i + 1))
        return tuple(Mat(self.field, [list(x)]).mul(self.d[i]).data[0])

    def _check_degrees(self):
        if self.nonpositive and any(k > 0 for k in self.dims):
            raise DgError("a non-positive dg algebra has no positive part")
        if self.dim_at(0) == 0:
            raise DgError("the degree-zero part must contain the unit")

    def validate(self):
        f = self.field
        self._check_degrees()
        for k, m in self.d.items():
            if (m.nrows, m.ncols) != (self.dim_at(k), self.dim_at(k + 1)):
                raise DgError("differential shape mismatch")
            if k + 1 in self.d and not m.mul(self.d[k + 1]).is_zero():
                raise DgError("differential does not square to zero")
        one = f.one()
        basis = [(k, a) for k in self.degrees() for a in range(self.dims[k])]
        # d of each basis element, by its nonzero coordinates
        dbasis = {(k, a): tuple((t, c) for t, c in enumerate(row) if c)
                  for k, m in self.d.items() for a, row in enumerate(m.data)}

        def mul(i, x, j, y):
            return sparse_product(f, self.mult, i, x, j, y)

        def diff(i, x):
            out = {}
            for a, ca in x:
                for t, c in dbasis.get((i, a), ()):
                    v = f.mul(ca, c)
                    out[t] = f.add(out[t], v) if t in out else v
            return {t: c for t, c in out.items() if c}

        # Leibniz rule d(ab) = d(a) b + (-1)^i a d(b) on the basis pairs
        # with ab != 0, with cb != 0 for some c in the support of d(a), or
        # with ac != 0 for some c in the support of d(b).  On any other
        # pair every term is zero, so this accepts and rejects exactly
        # what the check over all basis pairs does.
        right, left = {}, {}  # x -> the y with xy != 0, and y -> the x
        for (i, j), block in self.mult.items():
            for a, b in block:
                right.setdefault((i, a), []).append((j, b))
                left.setdefault((j, b), []).append((i, a))
        pairs = {(x, y) for x, ys in right.items() for y in ys}
        for (i, a), dx in dbasis.items():
            for c, _ in dx:
                pairs.update(((i, a), y) for y in right.get((i + 1, c), ()))
                pairs.update((y, (i, a)) for y in left.get((i + 1, c), ()))
        for (i, a), (j, b) in pairs:
            lhs = diff(i + j, self.mult.get((i, j), {}).get((a, b), ()))
            rhs = mul(i + 1, dbasis.get((i, a), ()), j, ((b, one),))
            for t, c in mul(i, ((a, one),), j + 1,
                            dbasis.get((j, b), ())).items():
                v = c if i % 2 == 0 else f.neg(c)
                rhs[t] = f.add(rhs[t], v) if t in rhs else v
            if lhs != {t: c for t, c in rhs.items() if c}:
                raise DgError("Leibniz rule fails")
        if not is_associative(f, self.mult):
            raise DgError("multiplication is not associative")
        if self.elem_d(0, self.unit) != _zeros(f, self.dim_at(1)):
            raise DgError("the unit must be a cycle")
        unit = [(a, c) for a, c in enumerate(self.unit) if c]
        for i, a in basis:
            if mul(0, unit, i, ((a, one),)) != {a: one}:
                raise DgError("unit fails on the left")
            if mul(i, ((a, one),), 0, unit) != {a: one}:
                raise DgError("unit fails on the right")
        acc = list(_zeros(f, self.dim_at(0)))
        for s, e in enumerate(self.idempotents):
            for t, e2 in enumerate(self.idempotents):
                want = e if s == t else _zeros(f, self.dim_at(0))
                if self.elem_mult(0, e, 0, e2) != tuple(want):
                    raise DgError("idempotents are not orthogonal")
            acc = [f.add(p, q) for p, q in zip(acc, e)]
        if tuple(acc) != self.unit:
            raise DgError("idempotents do not sum to the unit")

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

    action[(k, i)][m][a]: coordinates, in degree k+i, of the action of
    the a-th degree-i algebra basis element on the m-th degree-k
    module basis element.
    """

    def __init__(self, algebra: DgAlgebra, dims, d, action, right_tags=None):
        self.algebra = algebra
        self.field = algebra.field
        self.dims = {k: n for k, n in dims.items() if n}
        self.d = {k: m for k, m in d.items() if not m.is_zero()}
        self.action = action
        # right_tags[k][m] = idempotent index that fixes the basis element
        self.right_tags = right_tags
        self.validate()

    def dim_at(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def act_basis(self, k, m, i, a):
        t = self.action.get((k, i))
        if t is None:
            return _zeros(self.field, self.dim_at(k + i))
        return tuple(t[m][a])

    def elem_act(self, k, x, i, y):
        f = self.field
        out = list(_zeros(f, self.dim_at(k + i)))
        for m, cm in enumerate(x):
            if not cm:
                continue
            for a, ca in enumerate(y):
                if not ca:
                    continue
                img = self.act_basis(k, m, i, a)
                for t, c in enumerate(img):
                    out[t] = f.add(out[t], f.mul(f.mul(cm, ca), c))
        return tuple(out)

    def elem_d(self, k, x):
        if k not in self.d:
            return _zeros(self.field, self.dim_at(k + 1))
        return tuple(Mat(self.field, [list(x)]).mul(self.d[k]).data[0])

    def validate(self):
        f = self.field
        A = self.algebra
        for k, m in self.d.items():
            if (m.nrows, m.ncols) != (self.dim_at(k), self.dim_at(k + 1)):
                raise DgError("module differential shape mismatch")
            if k + 1 in self.d and not m.mul(self.d[k + 1]).is_zero():
                raise DgError("module differential does not square to zero")
        for k in self.degrees():
            for m in range(self.dim_at(k)):
                xm = _unit_vec(f, self.dim_at(k), m)
                if self.elem_act(k, xm, 0, A.unit) != xm:
                    raise DgError("unit does not act as the identity")
                dxm = self.elem_d(k, xm)
                for i in A.degrees():
                    for a in range(A.dim_at(i)):
                        ya = _unit_vec(f, A.dim_at(i), a)
                        # Leibniz: d(x a) = d(x) a + (-1)^k x d(a)
                        lhs = self.elem_d(k + i, self.act_basis(k, m, i, a))
                        t1 = self.elem_act(k + 1, dxm, i, ya)
                        t2 = self.elem_act(k, xm, i + 1,
                                           A.elem_d(i, ya))
                        sgn = f.one() if k % 2 == 0 else f.neg(f.one())
                        rhs = tuple(f.add(p, f.mul(sgn, q))
                                    for p, q in zip(t1, t2))
                        if lhs != rhs:
                            raise DgError("module Leibniz rule fails")
                        # associativity: (x a) b = x (a b)
                        xa = self.act_basis(k, m, i, a)
                        for j in A.degrees():
                            if self.dim_at(k + i + j) == 0:
                                continue
                            for b in range(A.dim_at(j)):
                                zb = _unit_vec(f, A.dim_at(j), b)
                                l = self.elem_act(k + i, xa, j, zb)
                                r = self.elem_act(
                                    k, xm, i + j, A.elem_mult(i, ya, j, zb))
                                if l != r:
                                    raise DgError(
                                        "module action is not associative")

    def cohomology_dims(self):
        return homology_dims(self.dims, self.d)


# ---- free summands and strictly perfect modules ----

def free_dg_module(A: DgAlgebra, i: int, shift: int = 0) -> DgModule:
    """The summand e_i A of the regular module, shifted: degree k holds
    (e_i A)^(k + shift), and the differential is scaled by (-1)^shift."""
    f = A.field
    tags = A.peirce_tags()
    pick = {k: [a for a, (l, _) in enumerate(tags[k]) if l == i]
            for k in A.degrees()}
    dims = {k - shift: len(pick[k]) for k in A.degrees() if pick[k]}
    pos = {k: {a: r for r, a in enumerate(pick[k])} for k in A.degrees()}
    sgn = f.one() if shift % 2 == 0 else f.neg(f.one())
    d = {}
    for k in A.degrees():
        if not pick[k] or A.dim_at(k + 1) == 0:
            continue
        rows = []
        for a in pick[k]:
            img = A.elem_d(k, _unit_vec(f, A.dim_at(k), a))
            row = [f.zero()] * len(pick.get(k + 1, []))
            for b, c in enumerate(img):
                if not c:
                    continue
                if b not in pos.get(k + 1, {}):
                    raise DgError("differential left the idempotent slice")
                row[pos[k + 1][b]] = f.mul(sgn, c)
            rows.append(row)
        if rows and len(pick.get(k + 1, [])):
            d[k - shift] = Mat(f, rows, ncols=len(pick[k + 1]))
    action = {}
    for k in A.degrees():
        if not pick[k]:
            continue
        for j in A.degrees():
            if not pick.get(k + j):
                continue
            t = []
            for a in pick[k]:
                row = []
                for b in range(A.dim_at(j)):
                    vec = [f.zero()] * len(pick[k + j])
                    for c, coef in A.mult.get((k, j), {}).get((a, b), ()):
                        if c not in pos[k + j]:
                            raise DgError("action left the idempotent slice")
                        vec[pos[k + j][c]] = coef
                    row.append(tuple(vec))
                t.append(row)
            action[(k - shift, j)] = t
    rt = {k - shift: [tags[k][a][1] for a in pick[k]]
          for k in A.degrees() if pick[k]}
    return DgModule(A, dims, d, action, right_tags=rt)


StrictPerfect = namedtuple("StrictPerfect", ["algebra", "pieces", "delta"])
StrictPerfect.__doc__ = """Iterated extension of shifted free summands.

pieces: tuple of (shift, idempotent index).  delta[(t, u)] (t < u only)
is an algebra element of degree 1 - shift_t + shift_u, in e_{i_u} A
e_{i_t}, acting by left multiplication as the connecting component of
the differential from piece t to piece u.  This presentation is the
perfection certificate; operations that need one take this type.
"""


def _delta_degree(pieces, t, u):
    return 1 - pieces[t][0] + pieces[u][0]


def strict_perfect(A: DgAlgebra, pieces, delta=None) -> StrictPerfect:
    """Validated constructor: checks triangularity, degrees and tags."""
    if not A.nonpositive:
        raise DgError("strictly perfect modules need a non-positive algebra")
    pieces = tuple((int(s), int(i)) for s, i in pieces)
    delta = dict(delta or {})
    tags = A.peirce_tags()
    sp = StrictPerfect(A, pieces, delta)
    for (t, u), x in delta.items():
        if not (0 <= t < u < len(pieces)):
            raise DgError("connecting entries must be strictly upper "
                          "triangular")
        deg = _delta_degree(sp.pieces, t, u)
        if A.dim_at(deg) != len(x):
            raise DgError("connecting entry has the wrong degree")
        iu, it = pieces[u][1], pieces[t][1]
        for a, c in enumerate(x):
            if c and tags[deg][a] != (iu, it):
                raise DgError("connecting entry outside its corner")
    materialize(sp)  # d^2 = 0 and all module laws, checked once
    return sp


def materialize(sp: StrictPerfect) -> DgModule:
    """The underlying dg module of a strictly perfect presentation."""
    A = sp.algebra
    f = A.field
    frees = [free_dg_module(A, i, s) for s, i in sp.pieces]
    degs = sorted({k for M in frees for k in M.degrees()})
    dims = {k: sum(M.dim_at(k) for M in frees) for k in degs}
    offs = {k: [sum(M.dim_at(k) for M in frees[:t])
                for t in range(len(frees))] for k in degs}
    tags = A.peirce_tags()
    d = {}
    for k in degs:
        if dims.get(k + 1, 0) == 0 or dims[k] == 0:
            continue
        rows = [[f.zero()] * dims[k + 1] for _ in range(dims[k])]
        for t, M in enumerate(frees):
            # internal differential of the shifted free summand
            if k in M.d:
                for r in range(M.dim_at(k)):
                    for c in range(M.dim_at(k + 1)):
                        rows[offs[k][t] + r][offs[k + 1][t] + c] = \
                            M.d[k][r, c]
        for (t, u), x in sp.delta.items():
            deg = _delta_degree(sp.pieces, t, u)
            st, it_ = sp.pieces[t]
            su, iu = sp.pieces[u]
            # left multiplication by x: piece t degree k -> piece u, k+1
            pick_t = [a for a, (l, _) in enumerate(tags.get(k + st, []))
                      if l == it_]
            pick_u = [a for a, (l, _) in enumerate(tags.get(k + 1 + su, []))
                      if l == iu]
            pos_u = {a: c for c, a in enumerate(pick_u)}
            for r, a in enumerate(pick_t):
                img = A.elem_mult(deg, x, k + st,
                                  _unit_vec(f, A.dim_at(k + st), a))
                for b, coef in enumerate(img):
                    if not coef:
                        continue
                    if b not in pos_u:
                        raise DgError("connecting map left its slice")
                    rows[offs[k][t] + r][offs[k + 1][u] + pos_u[b]] = \
                        f.add(rows[offs[k][t] + r][offs[k + 1][u] + pos_u[b]],
                              coef)
        d[k] = Mat(f, rows, ncols=dims[k + 1])
    action = {}
    for k in degs:
        for j in A.degrees():
            if dims.get(k + j, 0) == 0:
                continue
            t_rows = []
            for t, M in enumerate(frees):
                for r in range(M.dim_at(k)):
                    row = []
                    for b in range(A.dim_at(j)):
                        img = M.act_basis(k, r, j, b)
                        vec = [f.zero()] * dims[k + j]
                        for c, coef in enumerate(img):
                            vec[offs[k + j][t] + c] = coef
                        row.append(tuple(vec))
                    t_rows.append(row)
            action[(k, j)] = t_rows
    rt = {k: [tag for M in frees for tag in M.right_tags.get(k, [])]
          for k in degs}
    rt = {k: v for k, v in rt.items() if v}
    return DgModule(A, dims, d, action, right_tags=rt)


# ---- truncation t-structure ----

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
    lo_dims, lo_d, lo_act = {}, {}, {}
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
        for i in A.degrees():
            if k + i not in lo_dims:
                continue
            t = []
            for m in range(lo_dims[k]):
                row = []
                for a in range(A.dim_at(i)):
                    vec = M.elem_act(k, tuple(inc[k].data[m]), i,
                                     _unit_vec(f, A.dim_at(i), a))
                    row.append(lo_coords[k + i](vec, "truncated action"))
                t.append(row)
            lo_act[(k, i)] = t
    lo = DgModule(A, lo_dims, lo_d, lo_act, right_tags=None)

    proj = {}
    hi_dims, hi_d, hi_act = {}, {}, {}
    quo = Subquotient(Mat.identity(f, M.dim_at(1)), img) \
        if M.dim_at(1) else None
    for k in M.degrees():
        if k > 1:
            hi_dims[k] = M.dim_at(k)
            proj[k] = Mat.identity(f, M.dim_at(k))
        elif k == 1 and quo is not None and quo.dim:
            hi_dims[1] = quo.dim
            rows = [list(quo.coords(_unit_vec(f, M.dim_at(1), m)))
                    for m in range(M.dim_at(1))]
            proj[1] = Mat(f, rows, ncols=quo.dim)
    rep = {k: (quo.reps if k == 1 and quo is not None
               else Mat.identity(f, M.dim_at(k)))
           for k in hi_dims}
    for k in hi_dims:
        if k + 1 in hi_dims and k in M.d:
            big = rep[k].mul(M.d[k]).mul(proj[k + 1])
            hi_d[k] = big
        for i in A.degrees():
            if k + i not in hi_dims:
                continue
            t = []
            for m in range(hi_dims[k]):
                row = []
                for a in range(A.dim_at(i)):
                    vec = M.elem_act(k, tuple(rep[k].data[m]), i,
                                     _unit_vec(f, A.dim_at(i), a))
                    row.append(tuple(
                        Mat(f, [list(vec)]).mul(proj[k + i]).data[0]))
                t.append(row)
            hi_act[(k, i)] = t
    hi = DgModule(A, hi_dims, hi_d, hi_act, right_tags=None)
    return lo, hi, inc, proj


HomData = namedtuple("HomData", ["field", "dims", "d", "basis"])
HomData.__doc__ = """Cochain data of a hom space out of a strictly
perfect module: graded dimensions, differential matrices, and the
basis labels (piece index, slice position) per degree."""


def _right_slice_rows(N: DgModule, k, i):
    """Rows spanning (N^k) e_i, the fixed space of the right action."""
    f = N.field
    n = N.dim_at(k)
    if n == 0:
        return Mat.zeros(f, 0, 0)
    if N.right_tags is not None:
        rows = [list(_unit_vec(f, n, m))
                for m, t in enumerate(N.right_tags[k]) if t == i]
        return Mat(f, rows, ncols=n)
    e = N.algebra.idempotents[i]
    rows = [list(N.elem_act(k, _unit_vec(f, n, m), 0, e))
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
    slices = {}
    degs = set()
    for t, (s, i) in enumerate(sp.pieces):
        for kN in N.degrees():
            k = kN + s
            slc = _right_slice_rows(N, kN, i)
            if slc.nrows:
                slices[(t, k)] = slc
                degs.add(k)
    slice_coords = {key: _span_coords(slc) for key, slc in slices.items()}
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
        sgn = f.one() if k % 2 == 0 else f.neg(f.one())
        rows = []
        for (t, r) in basis[k]:
            s_t, i_t = sp.pieces[t]
            v = tuple(slices[(t, k)].data[r])
            out = {q: list(_zeros(f, slices[(q, k + 1)].nrows))
                   for q in range(len(sp.pieces)) if (q, k + 1) in slices}
            dv = N.elem_d(k - s_t, v)
            if any(dv):
                if (t, k + 1) not in slices:
                    raise DgError("hom differential left its slice")
                cr = slice_coords[(t, k + 1)](dv, "hom value")
                for c, coef in enumerate(cr):
                    out[t][c] = f.add(out[t][c], coef)
            # the generator of piece p maps to x_{pt} inside piece t,
            # so the value at p picks up v . x_{pt}
            for (p, u), x in sp.delta.items():
                if u != t:
                    continue
                w = N.elem_act(k - s_t, v, _delta_degree(sp.pieces, p, u), x)
                if not any(w):
                    continue
                if (p, k + 1) not in slices:
                    raise DgError("hom differential left its slice")
                cr = slice_coords[(p, k + 1)](w, "hom value")
                for c, coef in enumerate(cr):
                    out[p][c] = f.sub(out[p][c], f.mul(sgn, coef))
            row = []
            for (q, rr) in basis[k + 1]:
                row.append(out[q][rr])
            rows.append(row)
        m = Mat(f, rows, ncols=dims[k + 1])
        if not m.is_zero():
            d[k] = m
    for k in d:
        if k + 1 in d and not d[k].mul(d[k + 1]).is_zero():
            raise DgError("hom complex differential does not square to zero")
    return HomData(f, dims, d, basis)


def hom_cohomology(sp: StrictPerfect, N: DgModule):
    h = hom_perfect_module(sp, N)
    return homology_dims(h.dims, h.d)


# ---- the Nakayama functor on strictly perfect modules ----

def dg_nakayama(sp: StrictPerfect) -> DgModule:
    """The dual of Hom_A(M, A), as a validated right dg module.

    Hom_A(M, A) is a left module; its graded dual carries the right
    action (psi . a)(y) = (-1)^{|a|} psi(a y) on matched degrees, and
    the differential (d psi)(y) = -(-1)^{|psi|} psi(d y).  On a free
    summand e_i A this produces the dual of A e_i.
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
            out = [f.zero()] * len(ybasis.get(k + 1, []))
            da = A.elem_d(k - s_t, _unit_vec(f, A.dim_at(k - s_t), a))
            for b, coef in enumerate(da):
                if coef:
                    out[ypos[k + 1][(t, b)]] = coef
            sgn = f.one() if k % 2 == 0 else f.neg(f.one())
            for (p, u), x in sp.delta.items():
                if u != t:
                    continue
                prod = A.elem_mult(
                    k - s_t, _unit_vec(f, A.dim_at(k - s_t), a),
                    _delta_degree(sp.pieces, p, u), x)
                for b, coef in enumerate(prod):
                    if not coef:
                        continue
                    c = ypos[k + 1][(p, b)]
                    out[c] = f.sub(out[c], f.mul(sgn, coef))
            rows.append(out)
        return Mat(f, rows, ncols=len(ybasis.get(k + 1, [])))

    def y_lmult(j, xvec, k):
        """Matrix of y -> x.y on Y, from degree k to k+j."""
        rows = []
        for (t, a) in ybasis[k]:
            s_t, _ = sp.pieces[t]
            out = [f.zero()] * len(ybasis.get(k + j, []))
            prod = A.elem_mult(j, xvec, k - s_t,
                               _unit_vec(f, A.dim_at(k - s_t), a))
            for b, coef in enumerate(prod):
                if coef:
                    out[ypos[k + j][(t, b)]] = coef
            rows.append(out)
        return Mat(f, rows, ncols=len(ybasis.get(k + j, [])))

    dims = {-k: len(v) for k, v in ybasis.items()}
    d = {}
    for m in dims:
        if dims.get(m + 1, 0) == 0:
            continue
        base = y_d(-m - 1).transpose()
        sgn = f.one() if m % 2 == 0 else f.neg(f.one())
        d[m] = base.scale(f.neg(sgn))
    action = {}
    for m in dims:
        for j in A.degrees():
            if dims.get(m + j, 0) == 0:
                continue
            sgn = f.one() if j % 2 == 0 else f.neg(f.one())
            t = []
            for b in range(dims[m]):
                row = []
                for a in range(A.dim_at(j)):
                    lm = y_lmult(j, _unit_vec(f, A.dim_at(j), a), -m - j)
                    col = [f.mul(sgn, lm[c, b]) for c in range(lm.nrows)]
                    row.append(tuple(col))
                t.append(row)
            action[(m, j)] = t
    rt = {-k: [tags[k - sp.pieces[t][0]][a][0] for (t, a) in v]
          for k, v in ybasis.items()}
    return DgModule(A, dims, d, action, right_tags=rt)


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
                row = list(_zeros(f, dims[m + 1]))
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
    unit = list(_zeros(f, dims[0]))
    for p, X in enumerate(pieces):
        e = list(_zeros(f, dims[0]))
        for t, c in coords_of(0, p, p, {n: ModuleMap.identity(X.module(n))
                                        for n in X.parts}):
            e[t] = unit[t] = c
        idems.append(tuple(e))
    return DgAlgebra(f, dims, d, mult, tuple(unit), idems, nonpositive=False)


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

    def coords(k, vec):
        return ker_coords(vec, "degree-zero cycle") if k == 0 else tuple(vec)

    def rep(k, a):
        if k == 0:
            return tuple(ker.data[a])
        return _unit_vec(f, E.dim_at(k), a)

    d = {}
    for k in E.d:
        if k >= 0 or dims.get(k + 1, 0) == 0:
            continue
        rows = [list(coords(k + 1, E.elem_d(k, rep(k, a))))
                for a in range(dims[k])]
        d[k] = Mat(f, rows, ncols=dims[k + 1])
    mult = {}
    for i in dims:
        for j in dims:
            if dims.get(i + j, 0) == 0:
                continue
            block = {}
            for a in range(dims[i]):
                for b in range(dims[j]):
                    prod = coords(i + j, E.elem_mult(i, rep(i, a), j, rep(j, b)))
                    prod = tuple((k, c) for k, c in enumerate(prod) if c)
                    if prod:
                        block[(a, b)] = prod
            mult[(i, j)] = block
    unit = coords(0, E.unit)
    idems = [coords(0, e) for e in E.idempotents]
    return DgAlgebra(f, dims, d, mult, unit, idems)

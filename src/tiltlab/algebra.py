"""Path algebras with relations, their modules, and structural tests.

Everything here is a right module described as a quiver representation:
a dimension per vertex and a matrix per arrow, acting on row vectors.
Composition of paths reads left to right, so the path "ab" means a then
b, and arrows carry elements of e_source * Lambda * e_target.

Modules and module maps are stored on their support (arrow_support,
vertex_support), which follows from the dimension vectors alone: the
empty matrices are not stored, and zero ones on the support are.  Only
this module reads the stored dicts; others use ModuleMap.block.

The quotient is taken by the relation ideal together with all paths of
length >= nilpotency_bound.  For acyclic quivers the default bound is
one more than the longest path, which changes nothing; for quivers with
cycles the bound is part of the input, and bound_certified, computed
when first read, tells whether raising it would change the algebra.

This module defines the one structure-constant format (see
sparse_structure): nonzero products by their nonzero coordinates.  The
path algebra, FiniteAlgebra and the dg algebras all read it, and the
code that produces an algebra builds it directly.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .linalg import Echelon, Field, Mat

PATH_CAP = 200_000


class AlgebraError(ValueError):
    pass


class Quiver:
    def __init__(self, num_vertices, arrows):
        """arrows: list of (label, source, target), vertices 0-based."""
        self.n = int(num_vertices)
        if self.n < 1:
            raise AlgebraError("quiver needs at least one vertex")
        self.arrows = []
        self.by_label = {}
        for label, s, t in arrows:
            label = str(label)
            s, t = int(s), int(t)
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise AlgebraError(f"arrow {label} has vertex out of range")
            if label in self.by_label:
                raise AlgebraError(f"duplicate arrow label {label}")
            self.by_label[label] = len(self.arrows)
            self.arrows.append((label, s, t))

    def source(self, a):
        return self.arrows[a][1]

    def target(self, a):
        return self.arrows[a][2]

    def label(self, a):
        return self.arrows[a][0]

    def is_acyclic(self):
        return self.longest_path_length() is not None

    def longest_path_length(self):
        """Length of the longest path, or None when a cycle exists.

        Kahn's order: a vertex is taken once every arrow into it has been
        read, and its depth is final by then; a cycle leaves vertices
        that are never taken."""
        indeg = [0] * self.n
        out = [[] for _ in range(self.n)]
        for _, s, t in self.arrows:
            out[s].append(t)
            indeg[t] += 1
        depth = [0] * self.n
        order = [v for v in range(self.n) if not indeg[v]]
        for v in order:  # grows while it is read
            for w in out[v]:
                depth[w] = max(depth[w], depth[v] + 1)
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
        return max(depth) if len(order) == self.n else None

    def reversed(self):
        return Quiver(self.n, [(lab, t, s) for lab, s, t in self.arrows])


class Algebra:
    """Finite-dimensional quotient of a path algebra.

    relations: list of lists of (coeff, [arrow labels]); every term must
    have length >= 2 so the ideal is admissible.
    """

    def __init__(self, field: Field, quiver: Quiver, relations, nilpotency_bound=None):
        self.field = field
        self.quiver = quiver
        self.relations_raw = [
            [(field.of(c) if not isinstance(c, str) else field.parse(c), list(p))
             for c, p in rel]
            for rel in relations
        ]
        for rel in self.relations_raw:
            for _, p in rel:
                if len(p) < 2:
                    raise AlgebraError("relation terms must have path length >= 2")

        if nilpotency_bound is None:
            L = quiver.longest_path_length()
            if L is None:
                raise AlgebraError("quiver has a cycle: nilpotency_bound is required")
            nilpotency_bound = L + 1
        self.bound = int(nilpotency_bound)
        if self.bound < 1:
            raise AlgebraError("nilpotency_bound must be positive")

        self.paths, self.path_index = self._enumerate_paths(self.bound)
        self._reduction = self._build_reduction(self.bound, self.paths, self.path_index)
        red_rows, pivot_cols = self._reduction
        pivset = set(pivot_cols)
        self.basis = [k for k in range(len(self.paths)) if k not in pivset]
        self.basis_index = {k: i for i, k in enumerate(self.basis)}
        self.dim = len(self.basis)

        self._op = None
        self._proj = {}
        self._inj = {}
        self._simple = {}
        # the memo, which lives as long as the algebra and serves every
        # job on it: tag tuple -> (direct sum module, offsets) and
        # (source tags, target tags) -> (hom basis, Echelon of its
        # flattened maps), filled by complexes; a module map between
        # modules of equal dims, by value (dims, rows of its vertex
        # blocks) -> whether it is an isomorphism, and -> its inverse's
        # vertex blocks, and three maps (gamma, phi, beta) by value ->
        # the vertex blocks of the Schur correction -gamma phi^-1 beta,
        # filled by complexes.minimize; a degree state of an extension
        # along a coresolution -> the components it gives, with their
        # summand blocks, filled by complexes.extend_along; (side,
        # terms, cut markers, limit) -> Resolution of a complex with no
        # differential, filled by derived.member_resolution; a
        # module a resolution step covers (a syzygy, or a stalk's term)
        # that recurs -> the period below it (vertex tuples and block
        # dicts), filled by
        # derived.resolve_complex (the opposite algebra keeps the
        # coresolutions' own); and a pair of complexes with no
        # differential and no cut marker, by (source's terms, target's
        # terms, both relative to their lowest degrees, offset between
        # those degrees) -> {m: dim Hom(source, target[m])} for the
        # certified m the collection check reads, filled by
        # derived.validate_simple_minded
        self.sum_memo = {}
        self.hom_memo = {}
        self.iso_memo = {}
        self.inverse_memo = {}
        self.correction_memo = {}
        self.extension_memo = {}
        self.resolution_memo = {}
        self.period_memo = {}
        self.validation_memo = {}

    # ---- construction internals ----

    def _enumerate_paths(self, bound):
        """All paths of length < bound as (source, arrow tuple)."""
        q = self.quiver
        out_arrows = [[] for _ in range(q.n)]
        for a, (_, s, _) in enumerate(q.arrows):
            out_arrows[s].append(a)
        paths = [(v, ()) for v in range(q.n)]
        frontier = list(paths)
        for _ in range(1, bound):
            nxt = []
            for (src, arrs) in frontier:
                end = q.target(arrs[-1]) if arrs else src
                for a in out_arrows[end]:
                    nxt.append((src, arrs + (a,)))
            paths.extend(nxt)
            frontier = nxt
            if len(paths) > PATH_CAP:
                raise AlgebraError("path count exceeds cap; algebra too large")
            if not frontier:
                break
        index = {p: i for i, p in enumerate(paths)}
        return paths, index

    def path_target(self, p):
        src, arrs = p
        return self.quiver.target(arrs[-1]) if arrs else src

    def _build_reduction(self, bound, paths, path_index):
        """Row-reduce the span of {p * rel * q} inside the path space."""
        f = self.field
        npaths = len(paths)
        rows = []
        for rel in self.relations_raw:
            # split into (source, target) components so each row is graded
            comps = {}
            for c, labs in rel:
                arrs = tuple(self.quiver.by_label[l] for l in labs)
                for x, y in zip(arrs, arrs[1:]):
                    if self.quiver.target(x) != self.quiver.source(y):
                        raise AlgebraError("relation path is not composable")
                key = (self.quiver.source(arrs[0]), self.quiver.target(arrs[-1]))
                comps.setdefault(key, []).append((c, arrs))
            for (rs, rt), terms in comps.items():
                for p in paths:
                    if self.path_target(p) != rs:
                        continue
                    for q in paths:
                        if q[0] != rt:
                            continue
                        vec = [0] * npaths
                        nonzero = False
                        for c, arrs in terms:
                            full = p[1] + arrs + q[1]
                            if len(full) >= bound:
                                continue
                            k = path_index[(p[0], full)]
                            vec[k] = f.norm(vec[k] + c)
                            nonzero = True
                        if nonzero and any(vec):
                            rows.append(vec)
        if not rows:
            return [], ()
        R, pivots = Mat(f, rows).rref()
        red_rows = [R.data[i] for i in range(len(pivots))]
        return list(zip(pivots, red_rows)), pivots

    def _reduce_path_vector(self, vec):
        """Coordinates over self.basis of a vector in the path space."""
        norm = self.field.norm
        vec = list(vec)
        for pc, row in self._reduction[0]:
            c = vec[pc]
            if c:
                vec = [norm(x - c * y) for x, y in zip(vec, row)]
        return tuple(vec[k] for k in self.basis)

    @cached_property
    def bound_certified(self):
        """True when raising the bound by one leaves the dimension fixed,
        None when the algebra at the raised bound is too large to build."""
        try:
            bigger = Algebra(self.field, self.quiver, self.relations_raw,
                             nilpotency_bound=self.bound + 1)
        except AlgebraError:
            return None
        return bigger.dim == self.dim

    # ---- elements ----

    def idempotent(self, v):
        vec = [0] * self.dim
        vec[self.basis_index[self.path_index[(v, ())]]] = 1
        return tuple(vec)

    def one(self):
        vec = [0] * self.dim
        for v in range(self.quiver.n):
            vec[self.basis_index[self.path_index[(v, ())]]] = 1
        return tuple(vec)

    def arrow_elem(self, label):
        a = self.quiver.by_label[label]
        s = self.quiver.source(a)
        k = self.path_index[(s, (a,))]
        vec = [0] * len(self.paths)
        vec[k] = 1
        return self._reduce_path_vector(vec)

    def _concat_reduce(self, pu, pv):
        """Reduction of the concatenation of two stored paths, or None."""
        if self.path_target(pu) != pv[0]:
            return None
        arrs = pu[1] + pv[1]
        if len(arrs) >= self.bound:
            return None
        vec = [0] * len(self.paths)
        vec[self.path_index[(pu[0], arrs)]] = 1
        return self._reduce_path_vector(vec)

    @cached_property
    def products(self):
        """Structure constants in the sparse format of sparse_structure:
        the degree-zero block, built once from path concatenation."""
        block = {}
        for a, u in enumerate(self.basis):
            pu = self.paths[u]
            for b, v in enumerate(self.basis):
                r = self._concat_reduce(pu, self.paths[v])
                coords = tuple((k, c) for k, c in enumerate(r or ()) if c)
                if coords:
                    block[(a, b)] = coords
        return {(0, 0): block}

    def mult(self, x, y):
        return dense_product(self.field, self.products, 0, x, 0, y, self.dim)

    def basis_source(self, i):
        return self.paths[self.basis[i]][0]

    def basis_target(self, i):
        return self.path_target(self.paths[self.basis[i]])

    def basis_name(self, i):
        src, arrs = self.paths[self.basis[i]]
        if not arrs:
            return f"e{src + 1}"
        return "*".join(self.quiver.label(a) for a in arrs)

    # ---- opposite and duality ----

    def op(self):
        if self._op is None:
            rels = []
            for rel in self.relations_raw:
                rels.append([(c, list(reversed(labs))) for c, labs in rel])
            opp = Algebra(self.field, self.quiver.reversed(), rels,
                          nilpotency_bound=self.bound)
            opp._op = self
            self._op = opp
        return self._op

    def to_op(self, x):
        """Image of an element under the anti-isomorphism onto the opposite."""
        opp = self.op()
        vec = [0] * len(opp.paths)
        for i, c in enumerate(x):
            if not c:
                continue
            src, arrs = self.paths[self.basis[i]]
            rsrc = self.path_target(self.paths[self.basis[i]])
            rev = (rsrc, tuple(reversed(arrs)))
            vec[opp.path_index[rev]] = c
        return opp._reduce_path_vector(vec)

    # ---- canonical modules ----

    def projective(self, v):
        if v not in self._proj:
            self._proj[v] = self._build_projective(v)
        return self._proj[v]

    def _build_projective(self, v):
        idx = [i for i in range(self.dim) if self.basis_source(i) == v]
        by_vertex = [[i for i in idx if self.basis_target(i) == t]
                     for t in range(self.quiver.n)]
        dims = tuple(len(b) for b in by_vertex)
        mats = {}
        for a, s, t in arrow_support(self.quiver, dims):
            # b_i a lies in e_v A e_t: the relations are split by their
            # ends, so the reduction keeps every path's ends
            elem = self.arrow_elem(self.quiver.label(a))
            mats[a] = Mat(self.field, [
                [img[k] for k in by_vertex[t]]
                for img in (self.mult(self._unit_coord(i), elem)
                            for i in by_vertex[s])])
        M = Module(self, dims, mats)
        M._proj_basis = by_vertex
        return M

    def _unit_coord(self, i):
        vec = [0] * self.dim
        vec[i] = 1
        return tuple(vec)

    def simple(self, v):
        if v not in self._simple:
            dims = tuple(1 if u == v else 0 for u in range(self.quiver.n))
            # only the loops at v act, by zero
            mats = {a: Mat.zeros(self.field, 1, 1)
                    for a, _, _ in arrow_support(self.quiver, dims)}
            self._simple[v] = Module(self, dims, mats)
        return self._simple[v]

    def injective(self, v):
        if v not in self._inj:
            self._inj[v] = dual_module(self.op().projective(v), self)
        return self._inj[v]


def arrow_support(quiver, dims):
    """(a, s, t) for each arrow a: s -> t whose two ends have nonzero
    dimension in dims, in ascending order: the arrows a module stores."""
    return [(a, s, t) for a, (_, s, t) in enumerate(quiver.arrows)
            if dims[s] and dims[t]]


@lru_cache(maxsize=1 << 12)
def vertex_support(dims, other):
    """The vertices where both dimension tuples are nonzero, as an
    ascending tuple: the vertices a map between such modules stores."""
    return tuple(v for v in range(len(dims)) if dims[v] and other[v])


class Module:
    """Right module: dims per vertex, and mats = {a: matrix of arrow a},
    kept as given, over exactly the arrows of arrow_support in ascending
    order, acting on row vectors."""

    def __init__(self, algebra: Algebra, dims, mats):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.quiver.n:
            raise AlgebraError("dimension vector length mismatch")
        if [(a, (m.nrows, m.ncols)) for a, m in mats.items()] != \
                [(a, (self.dims[s], self.dims[t])) for a, s, t
                 in arrow_support(algebra.quiver, self.dims)]:
            raise AlgebraError("arrow matrices must be given, in order and "
                               "of matching shapes, on the arrows of "
                               "arrow_support")
        self.mats = mats
        self.total = sum(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Module)
            and other.algebra is self.algebra
            and other.dims == self.dims
            and other.mats == self.mats
        )

    def __hash__(self):
        # equal modules list their arrows in the same order
        return hash((self.dims, tuple(self.mats.items())))

    def __repr__(self):
        return f"Module(dims={self.dims})"

    def path_action(self, src, arrs):
        """Matrix of the action of the path from src along arrs, whose
        ends must have nonzero dimension.  A path that meets a vertex of
        dimension zero acts by zero."""
        f = self.algebra.field
        m = Mat.identity(f, self.dims[src])
        for a in arrs:
            step = self.mats.get(a)
            if step is None:
                end = self.algebra.quiver.target(arrs[-1])
                return Mat.zeros(f, self.dims[src], self.dims[end])
            m = m.mul(step)
        return m

    def validate(self):
        """Action factors through the algebra: each pair of composable
        basis paths acts as its reduced product.  Pairs with an end of
        dimension zero act by empty matrices and are skipped."""
        A = self.algebra
        for i in range(A.dim):
            pi = A.paths[A.basis[i]]
            for j in range(A.dim):
                pj = A.paths[A.basis[j]]
                src, tgt = pi[0], A.path_target(pj)
                if A.path_target(pi) != pj[0] or \
                        not (self.dims[src] and self.dims[tgt]):
                    continue
                # the product lies in e_src A e_tgt, as the basis is graded
                prod = Mat.zeros(A.field, self.dims[src], self.dims[tgt])
                for k, c in enumerate(A.mult(A._unit_coord(i),
                                             A._unit_coord(j))):
                    if c:
                        prod = prod.add(self.path_action(
                            *A.paths[A.basis[k]]).scale(c))
                if self.path_action(src, pi[1] + pj[1]) != prod:
                    raise AlgebraError(
                        f"module does not satisfy the relations at basis pair "
                        f"({A.basis_name(i)}, {A.basis_name(j)})"
                    )
        return True


class ModuleMap:
    """Vertex-blockwise linear map: x -> x @ blocks[v] at vertex v.

    blocks = {v: matrix}, kept as given, over exactly the vertices of
    vertex_support of the two modules, in ascending order.  commutes()
    tells whether it is a module map."""

    def __init__(self, source: Module, target: Module, blocks):
        self.source = source
        self.target = target
        self.blocks = blocks
        sd, td = source.dims, target.dims
        if tuple(blocks) != vertex_support(sd, td):
            raise AlgebraError("module map blocks must be given, in order, "
                               "on the vertices of vertex_support")
        for v, b in blocks.items():
            if b.nrows != sd[v] or b.ncols != td[v]:
                raise AlgebraError("module map block shape mismatch")

    def block(self, v):
        """The block at vertex v, or None where it is empty."""
        return self.blocks.get(v)

    def commutes(self):
        M, N = self.source, self.target
        for a, (_, s, t) in enumerate(M.algebra.quiver.arrows):
            # (x a) F_t = (x F_s) a in Hom(M_s, N_t); a side is zero when
            # the module it passes through is zero
            if not (M.dims[s] and N.dims[t]):
                continue
            zero = Mat.zeros(M.algebra.field, M.dims[s], N.dims[t])
            lhs = M.mats[a].mul(self.blocks[t]) if M.dims[t] else zero
            rhs = self.blocks[s].mul(N.mats[a]) if N.dims[s] else zero
            if lhs != rhs:
                return False
        return True

    def then(self, other):
        if other.source is not self.target and other.source != self.target:
            raise AlgebraError("composition mismatch")
        M, N = self.source, other.target
        f = M.algebra.field
        # a vertex where the middle module is zero gives a zero block
        return ModuleMap(M, N, {
            v: self.blocks[v].mul(other.blocks[v]) if v in self.blocks
            else Mat.zeros(f, M.dims[v], N.dims[v])
            for v in vertex_support(M.dims, N.dims)})

    def add(self, other):
        return ModuleMap(self.source, self.target,
                         {v: b.add(other.blocks[v])
                          for v, b in self.blocks.items()})

    def scale(self, c):
        return ModuleMap(self.source, self.target,
                         {v: b.scale(c) for v, b in self.blocks.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and other.source == self.source
            and other.target == self.target
            and other.blocks == self.blocks
        )

    def is_iso(self):
        return self.source.dims == self.target.dims and \
            all(b.is_invertible() for b in self.blocks.values())

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def inverse(self):
        return ModuleMap(self.target, self.source,
                         {v: b.inverse() for v, b in self.blocks.items()})

    @classmethod
    def zero(cls, source, target):
        f = source.algebra.field
        return cls(source, target,
                   {v: Mat.zeros(f, source.dims[v], target.dims[v])
                    for v in vertex_support(source.dims, target.dims)})

    @classmethod
    def identity(cls, module):
        f = module.algebra.field
        return cls(module, module,
                   {v: Mat.identity(f, d) for v, d in enumerate(module.dims)
                    if d})


def hom_basis(M: Module, N: Module):
    """Basis of the space of module maps M -> N."""
    A = M.algebra
    f = A.field
    support = vertex_support(M.dims, N.dims)
    offs = {}
    total = 0
    for v in support:
        offs[v] = total
        total += M.dims[v] * N.dims[v]
    if total == 0:
        return []
    rows = []
    for a, (_, s, t) in enumerate(A.quiver.arrows):
        # sum_k AM[p][k] F_t[k][q] - sum_l F_s[p][l] AN[l][q] = 0, with
        # F_v[i][j] at offs[v] + i * N.dims[v] + j; a sum whose arrow
        # matrix is not stored is empty, and the two meet only on a loop
        AM, AN = M.mats.get(a), N.mats.get(a)
        for p in range(M.dims[s]):
            for q in range(N.dims[t]):
                row = [0] * total
                if AM is not None:
                    for k, x in enumerate(AM.data[p]):
                        row[offs[t] + k * N.dims[t] + q] = x
                if AN is not None:
                    for l, y in enumerate(AN.data):
                        j = offs[s] + p * N.dims[s] + l
                        row[j] = f.norm(row[j] - y[q])
                if any(row):
                    rows.append(row)
    out = []
    for vec in Mat(f, rows, ncols=total)._null_vectors():
        blocks = {}
        for v in support:
            w = N.dims[v]
            blocks[v] = Mat._trusted(f, tuple(
                vec[o:o + w] for o in range(offs[v], offs[v] + M.dims[v] * w, w)), w)
        out.append(ModuleMap(M, N, blocks))
    return out


def summand_offsets(algebra, mods):
    """(offsets, dims) of the direct sum of mods: summand k starts at
    offsets[k][v] at vertex v, and the sum has dimension dims[v] there."""
    offsets = []
    dims = (0,) * algebra.quiver.n
    for m in mods:
        offsets.append(dims)
        dims = tuple(d + e for d, e in zip(dims, m.dims))
    return offsets, dims


def direct_sum_modules(algebra, mods):
    """Returns (sum module, offsets): summand k starts at offsets[k][v]
    in the sum's space at vertex v."""
    f = algebra.field
    if len(mods) == 1:
        return mods[0], [(0,) * algebra.quiver.n]
    offsets, dims = summand_offsets(algebra, mods)
    mats = {}
    for a, s, t in arrow_support(algebra.quiver, dims):
        # block diagonal assembly
        big = [[0] * dims[t] for _ in range(dims[s])]
        for m, off in zip(mods, offsets):
            ro, co = off[s], off[t]
            for r, row in enumerate(m.mats[a].data if a in m.mats else ()):
                big[ro + r][co:co + len(row)] = row
        mats[a] = Mat._trusted(f, tuple(map(tuple, big)), dims[t])
    return Module(algebra, dims, mats), offsets


def map_slice(F: ModuleMap, source: Module, rows, target: Module, cols):
    """The summand block of F from source, which starts at rows[v] in
    F.source, to target, which starts at cols[v] in F.target."""
    f = source.algebra.field
    blocks = {}
    for v in vertex_support(source.dims, target.dims):
        r, c, w = rows[v], cols[v], target.dims[v]
        blocks[v] = Mat._trusted(f, tuple(
            row[c:c + w] for row in F.blocks[v].data[r:r + source.dims[v]]), w)
    return ModuleMap(source, target, blocks)


def map_placement(source: Module, rows, target: Module, cols, blocks):
    """The map source -> target whose (k, l) summand block is blocks[(k, l)],
    a map from the summand at offsets rows[k] to the one at cols[l]; zero
    outside the given blocks."""
    f = source.algebra.field
    out = {}
    for v in vertex_support(source.dims, target.dims):
        full = [[0] * target.dims[v] for _ in range(source.dims[v])]
        for (k, l), b in blocks.items():
            r, c = rows[k][v], cols[l][v]
            for i, row in enumerate(b.blocks[v].data if v in b.blocks else ()):
                full[r + i][c:c + len(row)] = row
        out[v] = Mat._trusted(f, tuple(map(tuple, full)), target.dims[v])
    return ModuleMap(source, target, out)


def dual_module(M: Module, target_algebra: Algebra):
    """K-dual, a module over the opposite algebra (same arrow labels)."""
    src_alg = M.algebra
    if target_algebra.quiver.n != src_alg.quiver.n:
        raise AlgebraError("dual: vertex count mismatch")
    mats = {}
    for a, (lab, s, t) in enumerate(target_algebra.quiver.arrows):
        a_src = src_alg.quiver.by_label[lab]
        ss, tt = src_alg.quiver.source(a_src), src_alg.quiver.target(a_src)
        if (ss, tt) != (t, s):
            raise AlgebraError("dual: arrow orientation mismatch")
        if a_src in M.mats:
            mats[a] = M.mats[a_src].transpose()
    return Module(target_algebra, M.dims, mats)


def dual_map(F: ModuleMap, source: Module, target: Module):
    """K-dual of F: M -> N, the map source -> target between the dual
    modules D(N) -> D(M) over the opposite algebra: blockwise transpose."""
    return ModuleMap(source, target,
                     {v: b.transpose() for v, b in F.blocks.items()})


# ---- submodules and kernels ----

def sub_module(M: Module, span_rows):
    """Submodule spanned per vertex by the given row matrices.

    span_rows: {v: Mat (k_v x M.dims[v])}, the span zero at a vertex
    left out; the rows must span a subspace closed under the arrow
    action.  Returns (S, inclusion).
    """
    A = M.algebra
    f = A.field
    basis, pivots = {}, {}
    for v, rows in sorted(span_rows.items()):
        R, piv = rows.rref()
        if piv:
            basis[v] = Mat._trusted(f, R.data[:len(piv)], rows.ncols)
            pivots[v] = piv
    dims = tuple(len(pivots.get(v, ())) for v in range(A.quiver.n))
    mats = {}
    for a, m in M.mats.items():
        s, t = A.quiver.source(a), A.quiver.target(a)
        if s not in basis:
            continue
        img = basis[s].mul(m)
        if t not in basis:
            closed = img.is_zero()
        else:
            # basis[t] is in reduced echelon form, so a vector of its
            # span has its coordinates at the pivot columns
            mats[a] = Mat._trusted(f, tuple(tuple(row[p] for p in pivots[t])
                                            for row in img.data), dims[t])
            closed = mats[a].mul(basis[t]) == img
        if not closed:
            raise AlgebraError("sub_module: span not closed under action")
    S = Module(A, dims, mats)
    return S, ModuleMap(S, M, basis)


def kernel_module(f: ModuleMap):
    """Kernel with induced action; returns (K, inclusion)."""
    field = f.source.algebra.field
    # where the block is zero the kernel is everything; where it is
    # injective the kernel is zero, and the vertex is left out before
    # any matrix is made
    spans = {}
    for v, d in enumerate(f.source.dims):
        if v not in f.blocks:
            if d:
                spans[v] = Mat.identity(field, d)
        elif vecs := f.blocks[v].transpose()._null_vectors():
            spans[v] = Mat._trusted(field, vecs, d)
    return sub_module(f.source, spans)


# ---- covers, tops, iso tests ----

def top_data(M: Module):
    """Per vertex: coset representatives of M_v / (sum of incoming arrow images)."""
    A = M.algebra
    out = []
    for v, d in enumerate(M.dims):
        rows = [r for a, m in M.mats.items() if A.quiver.target(a) == v
                for r in m.data]
        pivots = set(Mat(A.field, rows).rref()[1]) if rows else ()
        out.append([j for j in range(d) if j not in pivots])
    return out


def generator_map(M: Module, gens):
    """The map P -> M, for gens = [(v, row of M at v), ...], with P the
    sum of A.projective(v) over gens, in order, that sends the generator
    of each summand to its row."""
    A = M.algebra
    f = A.field
    P, _ = direct_sum_modules(A, [A.projective(v) for v, _ in gens])
    # block t stacks the summands' rows at t, in order
    rows = {t: [] for t in vertex_support(P.dims, M.dims)}
    for v, gen in gens:
        # acts[p]: gen times the path p from v, or None (zero) once p
        # meets a vertex where M is zero; paths share prefixes, so each
        # prefix acts once
        acts = {(): Mat(f, [gen])}

        def act(arrs):
            if arrs not in acts:
                head, step = act(arrs[:-1]), M.mats.get(arrs[-1])
                acts[arrs] = None if head is None or step is None \
                    else head.mul(step)
            return acts[arrs]

        for t, out in rows.items():
            for i in A.projective(v)._proj_basis[t]:
                g = act(A.paths[A.basis[i]][1])
                out.append((0,) * M.dims[t] if g is None else g.data[0])
    return ModuleMap(P, M, {t: Mat(f, r) for t, r in rows.items()})


def projective_cover(M: Module):
    """Returns (vertices, P, cover map) with P the sum of A.projective(v),
    one per coset representative of top_data, which its generator hits."""
    gens = [(v, [1 if c == j else 0 for c in range(M.dims[v])])
            for v, reps in enumerate(top_data(M)) for j in reps]
    cover = generator_map(M, gens)
    return [v for v, _ in gens], cover.source, cover


def indec_iso(M: Module, N: Module):
    """Decisive iso test for indecomposable inputs.

    Indecomposables are isomorphic exactly when some composite of hom
    basis elements through the other module is invertible.
    """
    if M.dims != N.dims:
        return False
    if M.total == 0:
        return True
    fwd = hom_basis(M, N)
    bwd = hom_basis(N, M)
    for f_ in fwd:
        for g_ in bwd:
            if f_.then(g_).is_iso():
                return True
    return False


def nakayama_permutation(A: Algebra):
    """P_v matched to injectives: returns perm with P_v iso I_perm[v], or None."""
    n = A.quiver.n
    perm = []
    for v in range(n):
        found = None
        for w in range(n):
            if indec_iso(A.projective(v), A.injective(w)):
                found = w
                break
        if found is None:
            return None
        perm.append(found)
    if sorted(perm) != list(range(n)):
        return None
    return perm


def is_self_injective(A: Algebra):
    return nakayama_permutation(A) is not None


# ---- sparse structure constants (shared with dg algebras) ----

def sparse_structure(structure, dims, error, acting=None):
    """The one structure-constant format, checked and returned.

    structure[degs][idx] = ((k, c), ...) lists the nonzero coordinates c,
    at distinct indices k of degree sum(degs) + 2 - len(degs), of the
    operation on the idx[t]-th basis element of degree degs[t]; dims maps
    degrees to dimensions.  A product has degs = (i, j) and lands in
    degree i + j; the n-ary operations of an A-infinity algebra, of degree
    2 - n, use the same table.  A right module action is a product table
    too: its first argument and its output live in the module, whose dims
    are given, and its other arguments in the algebra, whose dims are
    acting (by default dims).  Only nonzero values appear, and the code
    that produces an algebra or a module builds this table directly.
    Raises `error` for an index outside the dimensions, a coordinate
    outside the target degree or listed twice, or a zero coefficient.
    """
    acting = dims if acting is None else acting
    for degs, block in structure.items():
        ns = [dims.get(degs[0], 0)] + [acting.get(d, 0) for d in degs[1:]]
        out = sum(degs) + 2 - len(degs)
        w = dims.get(out, 0)
        for idx, coords in block.items():
            at = f"product {degs}" + "".join(f"[{a}]" for a in idx)
            if len(idx) != len(ns) or \
                    not all(0 <= a < n for a, n in zip(idx, ns)):
                raise error(f"{at} indexes outside "
                            + " x ".join(map(str, ns)))
            ks = [k for k, _ in coords]
            if not all(0 <= k < w for k in ks):
                raise error(f"{at} has a coordinate outside degree {out} "
                            f"of dimension {w}")
            if len(set(ks)) != len(ks):
                raise error(f"{at} lists a coordinate twice")
            if not coords or not all(c for _, c in coords):
                raise error(f"{at} lists a zero product or coefficient")
    return structure


def sparse_product(field, structure, i, x, j, y):
    """x * y for x of degree i and y of degree j.

    x and y are iterables of (index, coefficient) pairs; the result is
    {index: coefficient} with its nonzero coordinates only.
    """
    block = structure.get((i, j))
    out = {}
    if block is None:
        return out
    for a, ca in x:
        for b, cb in y:
            prod = block.get((a, b))
            if prod is None:
                continue
            cab = ca * cb
            for k, c in prod:
                out[k] = out[k] + cab * c if k in out else cab * c
    return sparse_norm(field, out)


def sparse_norm(field, raw):
    """{index: value}, each raw sum normed once, the zeros dropped."""
    norm = field.norm
    return {k: c for k, v in raw.items() if (c := norm(v))}


def sparse_rows(m):
    """The rows of a Mat by their nonzero coordinates ((k, c), ...)."""
    return [[(k, c) for k, c in enumerate(x) if c] for x in m.data]


def dense_product(field, structure, i, x, j, y, width):
    """sparse_product on coordinate vectors, as a vector of length width."""
    out = [0] * width
    prod = sparse_product(field, structure,
                          i, [(a, c) for a, c in enumerate(x) if c],
                          j, [(b, c) for b, c in enumerate(y) if c])
    for k, c in prod.items():
        out[k] = c
    return tuple(out)


def peirce_tags(field, structure, dims, idempotents, error):
    """(left, right) idempotent tags per basis element, by degree.

    Requires the basis to be adapted: every e_s * b is b or zero, with b
    for some s, and likewise every b * e_t.  The tags are the first such
    s and t; orthogonal idempotents, which the callers check, make them
    the only ones.  Raises `error` otherwise.
    """
    idems = [[(a, c) for a, c in enumerate(e) if c] for e in idempotents]
    tags = {}
    for k in sorted(dims):
        row = []
        for a in range(dims[k]):
            x, fixed = ((a, 1),), {a: 1}
            left = [sparse_product(field, structure, 0, e, k, x)
                    for e in idems]
            right = [sparse_product(field, structure, k, x, 0, e)
                     for e in idems]
            if fixed not in left or fixed not in right or \
                    any(p and p != fixed for p in left + right):
                raise error("basis is not adapted to the idempotents")
            row.append((left.index(fixed), right.index(fixed)))
        tags[k] = row
    return tags


def _partners(structure):
    """(right, left): right[(i, a)] holds the (j, b) with a * b != 0, and
    left[(j, b)] the (i, a), for the basis elements of a product table."""
    right, left = {}, {}
    for (i, j), block in structure.items():
        for a, b in block:
            right.setdefault((i, a), set()).add((j, b))
            left.setdefault((j, b), set()).add((i, a))
    return right, left


def is_associative(field, structure, inner=None):
    """Whether (xa)b = x(ab) on every triple of basis elements.

    structure multiplies x by a, xa by b and x by ab; inner multiplies a
    by b and defaults to structure.  An algebra passes its own table, and
    a right module passes its action with its algebra's table as inner.
    """
    inner = structure if inner is None else inner

    def mul(i, x, j, y):
        return sparse_product(field, structure, i, x, j, y)

    right, left = _partners(structure)
    inner_right = right if inner is structure else _partners(inner)[0]
    # Only triples with xa != 0 or ab != 0 are visited; on any other
    # triple both sides are products with a zero factor.  For xa != 0,
    # b is skipped when ab = 0 and b is no right partner of a coordinate
    # of xa: then (xa)b = 0 and x(ab) = 0.
    for (i, j), block in structure.items():
        for (a, b), ab in block.items():
            zs = set(inner_right.get((j, b), ()))
            for d, _ in ab:
                zs |= right.get((i + j, d), set())
            for k, c in zs:
                bc = inner.get((j, k), {}).get((b, c), ())
                if mul(i + j, ab, k, ((c, 1),)) != \
                        mul(i, ((a, 1),), j + k, bc):
                    return False
    # The triples left have xa = 0, so (xa)b = 0 and x(ab) must vanish;
    # it does unless x is a left partner of a coordinate of ab.
    for (j, k), block in inner.items():
        for (b, c), bc in block.items():
            xs = set()
            for d, _ in bc:
                xs |= left.get((j + k, d), set())
            for i, a in xs:
                if (a, b) not in structure.get((i, j), {}) and \
                        mul(i, ((a, 1),), j + k, bc):
                    return False
    return True


def satisfies_leibniz(field, structure, left_d, right_d):
    """Whether d(xy) = d(x) y + (-1)^i x d(y) on every basis pair, x of
    degree i.

    structure multiplies x by y; left_d[i] is the matrix of the
    differential from degree i to i + 1 on the space of x, which holds
    the products too, and right_d the one on the space of y.  An algebra
    passes its own differential twice, and a right module its own and
    then its algebra's.  Only the basis pairs with xy != 0, with cy != 0
    for some c in the support of d(x), or with xc != 0 for some c in the
    support of d(y) are visited.  On any other pair every term is zero,
    so this accepts and rejects exactly what the check over all basis
    pairs does.
    """
    f = field

    def support(d):
        """d of each basis element, by its nonzero coordinates."""
        return {(k, a): tuple((t, c) for t, c in enumerate(row) if c)
                for k, m in d.items() for a, row in enumerate(m.data)}

    dl = support(left_d)
    dr = dl if right_d is left_d else support(right_d)

    def mul(i, x, j, y):
        return sparse_product(f, structure, i, x, j, y)

    def diff(i, x):
        out = {}
        for a, ca in x:
            for t, c in dl.get((i, a), ()):
                out[t] = out[t] + ca * c if t in out else ca * c
        return sparse_norm(f, out)

    right, left = _partners(structure)
    pairs = {(x, y) for x, ys in right.items() for y in ys}
    for (i, a), dx in dl.items():
        for c, _ in dx:
            pairs.update(((i, a), y) for y in right.get((i + 1, c), ()))
    for (j, b), dy in dr.items():
        for c, _ in dy:
            pairs.update((x, (j, b)) for x in left.get((j + 1, c), ()))
    for (i, a), (j, b) in pairs:
        lhs = diff(i + j, structure.get((i, j), {}).get((a, b), ()))
        rhs = mul(i + 1, dl.get((i, a), ()), j, ((b, 1),))
        for t, c in mul(i, ((a, 1),), j + 1, dr.get((j, b), ())).items():
            v = -c if i % 2 else c
            rhs[t] = rhs[t] + v if t in rhs else v
        if lhs != sparse_norm(f, rhs):
            return False
    return True


def check_unit(field, structure, dims, unit, error, left=True):
    """Raise `error` unless x * unit = x, and unit * x = x when left, for
    every basis element x of dims, by degree; unit is a degree-zero
    vector.  A right module passes its action and left=False."""
    u = [(a, c) for a, c in enumerate(unit) if c]
    for k in sorted(dims):
        for a in range(dims[k]):
            x, fixed = ((a, 1),), {a: 1}
            if left and sparse_product(field, structure, 0, u, k, x) != fixed:
                raise error("unit fails on the left")
            if sparse_product(field, structure, k, x, 0, u) != fixed:
                raise error("unit fails on the right")


def check_idempotents(field, structure, idempotents, unit, error):
    """Raise `error` unless the degree-zero vectors in idempotents are
    idempotent, pairwise orthogonal, and sum to unit: first e * e = e for
    each e, then e * e' = 0 for each pair in order, then the sum."""
    sparse = [[(a, c) for a, c in enumerate(e) if c] for e in idempotents]
    for s, e in enumerate(sparse):
        if sparse_product(field, structure, 0, e, 0, e) != dict(e):
            raise error("idempotents are not orthogonal idempotents: "
                        f"number {s} is not idempotent")
    for s, e in enumerate(sparse):
        for t, e2 in enumerate(sparse):
            if s != t and sparse_product(field, structure, 0, e, 0, e2):
                raise error("idempotents are not orthogonal")
    acc = {}
    for e in sparse:
        for a, c in e:
            acc[a] = acc[a] + c if a in acc else c
    if sparse_norm(field, acc) != \
            {a: c for a, c in enumerate(unit) if c}:
        raise error("idempotents do not sum to the unit")


# ---- abstract finite-dimensional algebras (for endomorphism rings) ----

class FiniteAlgebra:
    """Algebra given by structure constants plus an orthogonal idempotent list.

    products is the degree-zero block {(0, 0): {(a, b): ((k, c), ...)}}
    of the sparse format (see sparse_structure); the unit fixes the
    dimension.  The basis need not be adapted to the idempotents.  The
    Peirce corners are read through two tables, computed once from 2 n
    dim sparse products: e_i b_k and b_k e_i for every idempotent e_i
    and basis element b_k.  corners maps each row of a span once into
    every corner, by e_i x e_j = sum_t (e_i x)_t b_t e_j, and the Peirce
    corners e_i A e_j are the corners of the b_k.  On an adapted basis,
    which every endomorphism algebra the pipeline builds has, each b_k
    is fixed by one e_i on the left and one e_j on the right and lies in
    one corner, so the pass over the b_k costs O(n dim).

    The radical (radical_rows, radical_powers) assumes a basic algebra
    over a split field: each corner e_i A e_i local, with residue field
    the ground field.  A corner element b is then lambda e_i + n with n
    nilpotent, and lambda is read without eigenvalues: over QQ, lambda =
    tr(x -> bx on A) / dim e_i A; over GF(p), b^q = lambda e_i for q =
    p^s >= dim e_i A e_i.  _verify_radical certifies the candidate, and
    an algebra that breaks the assumption fails it.
    """

    def __init__(self, field, products, unit, idempotents):
        self.field = field
        self.unit = tuple(unit)
        self.dim = len(self.unit)
        self.products = sparse_structure(products, {0: self.dim},
                                         AlgebraError)
        self.idempotents = [tuple(e) for e in idempotents]
        self.verify_structure()

    def mult(self, x, y):
        return dense_product(self.field, self.products, 0, x, 0, y, self.dim)

    def verify_structure(self):
        f = self.field
        check_unit(f, self.products, {0: self.dim}, self.unit, AlgebraError)
        if not is_associative(f, self.products):
            raise AlgebraError("associativity fails on basis triple")
        check_idempotents(f, self.products, self.idempotents, self.unit,
                          AlgebraError)

    @cached_property
    def _sides(self):
        """(left, right): left[i] = {k: e_i b_k} and right[i] = {k: b_k
        e_i}, each product sparse and listed only when nonzero."""
        f = self.field
        left, right = [], []
        for e in self.idempotents:
            e = [(a, c) for a, c in enumerate(e) if c]
            lt, rt = {}, {}
            for k in range(self.dim):
                b = ((k, 1),)
                lt[k] = sparse_product(f, self.products, 0, e, 0, b)
                rt[k] = sparse_product(f, self.products, 0, b, 0, e)
            left.append({k: p for k, p in lt.items() if p})
            right.append({k: p for k, p in rt.items() if p})
        return left, right

    def _combine(self, x, table):
        """sum_t x_t table[t] over the (t, x_t) pairs of x, as {index:
        coefficient} with its nonzero coordinates only."""
        out = {}
        for t, c in x:
            p = table.get(t)
            if p is None:
                continue
            for s, v in p.items():
                out[s] = out[s] + c * v if s in out else c * v
        return sparse_norm(self.field, out)

    def _basis_of(self, rows):
        """Row basis of the span of sparse rows; 0 x dim, without a row
        reduction, when there are none."""
        f = self.field
        if not rows:
            return Mat.zeros(f, 0, self.dim)
        dense = []
        for z in rows:
            row = [0] * self.dim
            for s, c in z.items():
                row[s] = c
            dense.append(row)
        return Mat(f, dense).row_space_basis()

    def corners(self, rows):
        """grid[i][j], the row basis of the span of e_i x e_j over the rows
        x, each given by its nonzero coordinates ((k, c), ...) and mapped
        once into every corner through the two tables.  Each basis is the
        reduced echelon form, which depends only on the span."""
        left, right = self._sides
        n = len(self.idempotents)
        grid = [[[] for _ in range(n)] for _ in range(n)]
        for x in rows:
            for i in range(n):
                y = self._combine(x, left[i])
                if not y:
                    continue
                for j in range(n):
                    z = self._combine(y.items(), right[j])
                    if z:
                        grid[i][j].append(z)
        return [[self._basis_of(r) for r in row] for row in grid]

    @cached_property
    def _bases(self):
        """_bases[i][j], the row basis of e_i A e_j, every corner from one
        pass over the basis elements b_k."""
        return self.corners(((k, 1),) for k in range(self.dim))

    def peirce_basis(self, i, j):
        """Row basis of e_i A e_j inside the whole space, built once with
        every other corner."""
        return self._bases[i][j]

    def cartan_matrix(self):
        n = len(self.idempotents)
        return [[self.peirce_basis(i, j).nrows for j in range(n)] for i in range(n)]

    @cached_property
    def _trace(self):
        """tau_a = tr(x -> b_a x), the coefficient of b_k in b_a b_k summed
        over k, read once off the sparse table."""
        tau = [0] * self.dim
        for (a, k), prod in self.products[(0, 0)].items():
            for t, c in prod:
                if t == k:
                    tau[a] += c
        return [self.field.norm(t) for t in tau]

    def _residues(self, i):
        """The residue lambda(b) of each row b of the basis of e_i A e_i:
        the scalar with b - lambda e_i nilpotent.

        On a local corner with residue field the ground field, b =
        lambda e_i + n with n nilpotent and e_i n = n e_i = n.  Over QQ,
        left multiplication on A is L_b = lambda L_{e_i} + L_n, where
        L_{e_i} projects onto e_i A and L_n is nilpotent, so lambda(b) =
        tr L_b / dim e_i A.  Over GF(p) the binomial terms vanish and
        lambda^p = lambda, so b^q = lambda e_i + n^q = lambda e_i for q =
        p^s >= dim e_i A e_i, read where e_i is nonzero.  On any other
        corner the scalars mean nothing, and _verify_radical rejects the
        candidate built from them.
        """
        f = self.field
        corner = self.peirce_basis(i, i)
        p = getattr(f, "p", None)
        if p is None:
            inv = f.inv(sum(self.peirce_basis(i, j).nrows
                            for j in range(len(self.idempotents))))
            return [f.norm(sum(c * t for c, t in zip(b, self._trace)) * inv)
                    for b in corner.data]
        q = p
        while q < corner.nrows:
            q *= p

        def sparse(x):
            return {k: c for k, c in enumerate(x) if c}

        def mul(x, y):
            return sparse_product(f, self.products, 0, x.items(), 0, y.items())

        e = self.idempotents[i]
        t = next(k for k, c in enumerate(e) if c)
        out = []
        for b in corner.data:
            power, x, s = sparse(e), sparse(b), q  # b^q by repeated squaring
            while s:
                if s & 1:
                    power = mul(power, x)
                s >>= 1
                if s:
                    x = mul(x, x)
            out.append(f.norm(power.get(t, 0) * f.inv(e[t])))
        return out

    def radical_rows(self):
        """Row basis of the radical candidate J: the Peirce blocks off the
        diagonal and, on each corner e_i A e_i, the b - lambda(b) e_i for b
        in its basis, lambda(b) the residue of _residues (tr L_b / dim e_i A
        over QQ, b^q = lambda e_i over GF(p)).  radical_powers verifies
        it."""
        f = self.field
        n = len(self.idempotents)
        rows = [list(r) for i in range(n) for j in range(n) if i != j
                for r in self.peirce_basis(i, j).data]
        for i in range(n):
            corner, e = self.peirce_basis(i, i), self.idempotents[i]
            for b, lam in zip(corner.data, self._residues(i)):
                rows.append([f.norm(x - lam * y) for x, y in zip(b, e)])
        return Mat(f, rows).row_space_basis() if rows else Mat.zeros(f, 0, self.dim)

    def radical_powers(self):
        """[J, J^2, ..., 0] for the radical J, verified a nilpotent
        two-sided ideal of codimension r."""
        return self._verify_radical(self.radical_rows())

    def _verify_radical(self, J):
        """The powers [J, J^2, ..., 0] of a verified radical candidate J."""
        f = self.field
        if J.nrows != self.dim - len(self.idempotents):
            raise AlgebraError("radical has wrong codimension")

        def mul(x, y):
            return sparse_product(f, self.products, 0, x, 0, y)

        def dense(prod):
            return [prod.get(k, 0) for k in range(self.dim)]

        # two-sided ideal, on the sparse rows of J; a zero product is in it
        ideal = Echelon(J)
        rad = sparse_rows(J)
        for x in rad:
            for k in range(self.dim):
                b = ((k, 1),)
                for y in (mul(x, b), mul(b, x)):
                    if y and ideal.coords(dense(y)) is None:
                        raise AlgebraError("radical candidate is not an ideal")
        # nilpotent; a row space does not see zero rows
        powers = [J]
        for _ in range(self.dim + 1):
            cur = powers[-1]
            if cur.nrows == 0:
                return powers
            prods = (mul(x, y) for x in sparse_rows(cur) for y in rad)
            nxt_rows = [dense(p) for p in prods if p]
            powers.append(Mat(f, nxt_rows, ncols=self.dim).row_space_basis())
        raise AlgebraError("radical candidate is not nilpotent")


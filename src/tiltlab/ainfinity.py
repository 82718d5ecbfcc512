"""Minimal A-infinity models and the dual bar construction.

Higher operations are stored in classical grading: m_n consumes n
inputs and has degree 2 - n, with m_1 = 0 left implicit (the models
here are minimal).  All identities are checked in the shifted picture,
where the n-th operation becomes a degree-one map on the shift of the
space (|sa| = |a| - 1) and the entire system of higher associativity
identities is the single statement that the induced coderivation on
the tensor coalgebra squares to zero.  The fixed conversion is

    b_n(s a_1, ..., s a_n) = (-1)^(sum_t (n-t)|a_t|) s m_n(a_1, ..., a_n)

so the shifted insertions carry only prefix signs and no per-operation
convention survives into the checks.

Operations use the one structure-constant format of
algebra.sparse_structure, extended to n inputs:
ops[n][(d_1, ..., d_n)][(i_1, ..., i_n)] = ((k, c), ...) lists the
nonzero coordinates of m_n on the basis elements i_t of degree d_t, in
degree d_1 + ... + d_n + 2 - n.  So ops[2] is a product table that
algebra.sparse_product reads, and every reader here walks nonzero
coordinates only.

Homotopy transfer runs along a contraction chosen blockwise with
respect to the idempotent decomposition: representatives of cohomology
classes, a complement of the cocycles, and a homotopy supported on
that complement.  Blockwise choices make the transferred structure
strictly unital (the idempotent classes are represented by the
idempotents themselves) and, when the degree-zero part is spanned by
the idempotents, positive: every tree contributing to a higher
operation with a degree-zero argument passes that argument through the
homotopy or the projection, both of which kill it.

The dual bar construction produces an honest non-positive dg algebra:
words of dual shifted letters under concatenation, differential dual
to the insertion coderivation.  Cutting words above a tensor length is
a dg quotient (longer words form a two-sided dg ideal), so the result
validates fully; correctness of cohomology in a given degree is a
separate certification that no word at that degree or its neighbours
was cut.
"""

from collections import namedtuple

from .algebra import (check_idempotents, check_unit, peirce_tags,
                      sparse_norm, sparse_product, sparse_structure)
from .dg import DgAlgebra, endomorphism_dg_algebra
from .derived import member_resolution
from .linalg import Echelon, Mat, independent_rows


class AInfError(Exception):
    pass


class ContractionFailure(AInfError):
    pass


class PositivityViolation(AInfError):
    pass


def _sign(parity):
    """(-1)^parity, as a raw int that the caller norms."""
    return -1 if parity % 2 else 1


def _accumulate(out, c, coords):
    """out += c * coords, for a dict out and ((index, coefficient), ...),
    the sums raw: the caller norms each coordinate once."""
    for k, v in coords:
        out[k] = out[k] + c * v if k in out else c * v


class AInfAlgebra:
    """Minimal A-infinity algebra on a finite graded basis.

    dims: {degree: dimension}.  ops[n] is the table of m_n in the one
    structure-constant format (algebra.sparse_structure):
    ops[n][degs][idx] = ((k, c), ...) lists the nonzero coordinates, in
    degree sum(degs) + 2 - n, of m_n on the idx[t]-th basis element of
    degree degs[t], so ops[2] is a product table.  idempotents are
    degree-0 vectors; the strict unit is their sum.  tags assign each
    basis element its Peirce corner (left idempotent, right idempotent),
    read off the m_2 products with the idempotents.  The model is
    positive when it has no negative degree and the idempotents span
    degree zero.  Every structure is validated on construction.
    """

    def __init__(self, field, dims, ops, idempotents, arity_cap):
        self.field = field
        self.dims = {k: n for k, n in dims.items() if n}
        self.ops = {n: sparse_structure(table, self.dims, AInfError)
                    for n, table in ops.items() if any(table.values())}
        self.idempotents = [tuple(e) for e in idempotents]
        self.arity_cap = arity_cap
        self.positive = all(k >= 0 for k in self.dims) and \
            self.dim_at(0) == len(self.idempotents)
        self.tags = peirce_tags(field, self.ops.get(2, {}), self.dims,
                                self.idempotents, AInfError)
        self.validate()

    def dim_at(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    @property
    def unit(self):
        """The sum of the idempotents, by its nonzero coordinates."""
        acc = {}
        for e in self.idempotents:
            _accumulate(acc, 1, enumerate(e))
        return tuple(sorted(sparse_norm(self.field, acc).items()))

    def shifted_op(self, key):
        """b_n on the shifted basis elements key = ((degree, index), ...),
        as the nonzero coordinates ((k, c), ...) in classical grading."""
        n = len(key)
        degs = tuple(d for d, _ in key)
        val = self.ops.get(n, {}).get(degs, {}).get(
            tuple(a for _, a in key), ())
        if sum((n - 1 - t) * d for t, d in enumerate(degs)) % 2:
            return tuple((k, self.field.norm(-c)) for k, c in val)
        return val

    def left_tag(self, deg, idx):
        return self.tags[deg][idx][0]

    def right_tag(self, deg, idx):
        return self.tags[deg][idx][1]

    def op_items(self, n):
        """(key, value) of each nonzero value of m_n, the key as
        ((degree, index), ...)."""
        return [(tuple(zip(degs, idx)), val)
                for degs, block in self.ops.get(n, {}).items()
                for idx, val in block.items()]

    def stasheff_defect(self, n):
        """First basis tuple where the arity-n identity fails, or None.

        The identity is stated in the shifted form: the sum over all
        single insertions of an inner operation into an outer one,
        with the prefix sign, vanishes.  The value is returned by its
        nonzero coordinates, {index: coefficient}.
        """
        f = self.field
        # A term is nonzero only when its inner key carries a nonzero
        # operation and the outer key, with that operation's output
        # letter inserted, does too.  So the tuples visited are the outer
        # keys with one letter replaced by an inner key whose value has
        # that letter in its support; on every other tuple each term is
        # zero, and the identity holds there.
        partners = {}  # (arity, output letter) -> inner keys reaching it
        for k in range(2, n):
            for inner, val in self.op_items(k):
                out = sum(d for d, _ in inner) + 2 - k
                for a, _ in val:
                    partners.setdefault((k, (out, a)), []).append(inner)
        candidates = set()
        for outer in range(2, n):
            for key, _ in self.op_items(outer):
                for t, letter in enumerate(key):
                    for inner in partners.get((n - outer + 1, letter), ()):
                        candidates.add(key[:t] + inner + key[t + 1:])
        for key in sorted(candidates):
            acc = {}
            for k in range(2, n):
                for t in range(0, n - k + 1):
                    inner_key = key[t:t + k]
                    inner_deg = sum(d for d, _ in inner_key) + 2 - k
                    prefix = sum(d - 1 for d, _ in key[:t])
                    for a, c in self.shifted_op(inner_key):
                        outer_key = key[:t] + ((inner_deg, a),) + \
                            key[t + k:]
                        _accumulate(acc, _sign(prefix) * c,
                                    self.shifted_op(outer_key))
            acc = sparse_norm(f, acc)
            if acc:
                return key, acc
        return None

    def validate(self):
        f = self.field
        if any(n < 2 or n > self.arity_cap for n in self.ops):
            raise AInfError("operation arity outside the configured range")
        if any(len(degs) != n for n, table in self.ops.items()
               for degs in table):
            raise AInfError("operation key has the wrong arity")
        for n in self.ops:
            for key, val in self.op_items(n):
                for (d1, a1), (d2, a2) in zip(key, key[1:]):
                    if self.right_tag(d1, a1) != self.left_tag(d2, a2):
                        raise AInfError("operation key does not chain")
                corner = (self.left_tag(*key[0]), self.right_tag(*key[-1]))
                out_deg = sum(d for d, _ in key) + 2 - n
                if any(self.tags[out_deg][k] != corner for k, _ in val):
                    raise AInfError("operation leaves its corner")
        # the unit is the sum of the idempotents, so they are checked first
        m2 = self.ops.get(2, {})
        n0 = self.dim_at(0)
        coords = dict(self.unit)
        unit = [coords.get(a, 0) for a in range(n0)]
        check_idempotents(f, m2, self.idempotents, unit, AInfError)
        check_unit(f, m2, self.dims, unit, AInfError)
        span = Echelon(Mat(f, self.idempotents, ncols=n0))
        idem_span = {a for a, row in enumerate(Mat.identity(f, n0).data)
                     if span.coords(row) is not None}
        for n in self.ops:
            if n > 2 and any(d == 0 and a in idem_span
                             for key, _ in self.op_items(n)
                             for d, a in key):
                raise AInfError(
                    "higher operation does not vanish on the "
                    "degree-zero part")
        for n in range(3, self.arity_cap + 2):
            bad = self.stasheff_defect(n)
            if bad is not None:
                raise AInfError(
                    f"higher associativity fails at arity {n} "
                    f"on {bad[0]}")


# ---- homotopy transfer ----

_Contraction = namedtuple(
    "_Contraction", ["hdims", "htags", "emb", "proj", "htp"])
# sparse rows ((index, coefficient), ...): emb[(k, j)] is the chosen
# representative of the j-th class of degree k in E; proj[(k, a)] the
# class of the a-th basis element of E in degree k; htp[(k, a)] its image
# under the homotopy, in degree k - 1 of E


def _blockwise_contraction(E: DgAlgebra):
    """Representatives, projection, homotopy, chosen corner by corner."""
    f = E.field
    tags = E.peirce_tags()
    for e in E.idempotents:
        if any(E.elem_d(0, e)):
            raise ContractionFailure(
                "an idempotent is not a cycle; corners are not stable")

    blocks = {}
    for k in E.degrees():
        for a in range(E.dim_at(k)):
            blocks.setdefault((k, tags[k][a]), []).append(a)

    # pass one: cocycles and a complement of them, per block
    zrows, crows = {}, {}
    for (k, tag), idxs in sorted(blocks.items()):
        n = len(idxs)
        nxt = blocks.get((k + 1, tag), [])
        d_loc = [[E.d[k].data[a][b] for b in nxt] if k in E.d
                 else [0] * len(nxt) for a in idxs]
        dm = Mat(f, d_loc, ncols=len(nxt))
        Z = dm.left_kernel_basis().row_space_basis()
        zrows[(k, tag)] = Z
        crows[(k, tag)] = independent_rows(Z, Mat.identity(f, n).data)

    # pass two: boundaries from the previous complement, then
    # representatives: idempotents first in their degree-zero corners
    hdims, htags, emb, proj, htp = {}, {}, {}, {}, {}
    for (k, tag), idxs in sorted(blocks.items()):
        n = len(idxs)
        prev = blocks.get((k - 1, tag), [])
        cprev = crows.get((k - 1, tag), [])
        brows = []
        for c in cprev:
            vec = [0] * E.dim_at(k - 1)
            for pos, a in enumerate(prev):
                vec[a] = c[pos]
            img = E.elem_d(k - 1, tuple(vec))
            brows.append([img[a] for a in idxs])
        B = Mat(f, brows, ncols=n)
        preferred = []
        if k == 0 and tag[0] == tag[1]:
            e = E.idempotents[tag[0]]
            preferred.append(tuple(e[a] for a in idxs))
        reps = independent_rows(B, preferred + list(zrows[(k, tag)].data))
        if preferred and (not reps or reps[0] != preferred[0]):
            raise ContractionFailure(
                "an idempotent class is contractible")
        C = crows[(k, tag)]
        T = Mat(f, [*B.data, *reps, *C], ncols=n)
        if T.nrows != n or not T.is_invertible():
            raise ContractionFailure("corner splitting failed")
        Tinv = T.inverse()
        nb, nr = B.nrows, len(reps)
        # this block's classes follow those of the blocks before it in
        # degree k, which come first in sorted order
        base = hdims.get(k, 0)
        hdims[k] = base + nr
        htags.setdefault(k, []).extend([tag] * nr)
        for j, r in enumerate(reps):
            emb[(k, base + j)] = tuple((a, c) for a, c in zip(idxs, r) if c)
        for pos, a in enumerate(idxs):
            coords = Tinv.data[pos]
            proj[(k, a)] = tuple((base + j, c) for j, c in
                                 enumerate(coords[nb:nb + nr]) if c)
            h = {}
            for c, crow in zip(coords[:nb], cprev):
                if c:
                    _accumulate(h, c, zip(prev, crow))
            htp[(k, a)] = tuple(sorted(sparse_norm(f, h).items()))
    hdims = {k: n for k, n in hdims.items() if n}
    return _Contraction(hdims, htags, emb, proj, htp)


def kadeishvili_minimal_model(E: DgAlgebra, arity_cap=4) -> AInfAlgebra:
    """Minimal model of a dg algebra by homotopy transfer.

    The underlying space is the cohomology of E; the operations come
    from the standard recursion over planar trees, evaluated in the
    shifted picture where the homotopy and the recursion steps are
    degree-zero operators and no interchange signs arise.  The
    blockwise contraction makes the result strictly unital.
    """
    if arity_cap < 2:
        raise AInfError("the arity cap must be at least 2")
    f = E.field
    con = _blockwise_contraction(E)
    hdims = con.hdims
    href = [(k, a) for k in sorted(hdims) for a in range(hdims[k])]

    def apply(rows, k, vec):
        """The sparse rows indexed by degree k applied to vec."""
        out = {}
        for a, c in vec.items():
            _accumulate(out, c, rows.get((k, a), ()))
        return sparse_norm(f, out)

    def trees(word):
        """(degree, vector) of the sum over planar binary trees with
        these leaves, before the root's homotopy or projection."""
        acc = {}
        for s in range(1, len(word)):
            dl, vl = branch(word[:s])
            dr, vr = branch(word[s:])
            if not vl or not vr:
                continue
            # b_2(x, y) = (-1)^|x| xy
            _accumulate(acc, _sign(dl),
                        sparse_product(f, E.mult, dl, vl.items(),
                                       dr, vr.items()).items())
        deg = sum(d for d, _ in word) + 2 - len(word)
        return deg, sparse_norm(f, acc)

    memo = {}  # each proper subword of a key, one leaf or h(trees(word))

    def branch(word):
        if word not in memo:
            if len(word) == 1:
                k, j = word[0]
                memo[word] = (k, dict(con.emb[(k, j)]))
            else:
                d, v = trees(word)
                memo[word] = (d - 1, apply(con.htp, d, v))
        return memo[word]

    ops = {}
    words = [(r,) for r in href]
    for n in range(2, arity_cap + 1):
        # the chaining words of length n, in lexicographic order
        words = [w + (r,) for w in words for r in href
                 if con.htags[w[-1][0]][w[-1][1]][1] ==
                 con.htags[r[0]][r[1]][0]]
        table = {}
        for key in words:
            dv, vv = trees(key)
            hvec = apply(con.proj, dv, vv)
            if not hvec:
                continue
            # fold in the shift conversion so the stored operation and
            # its shifted form agree with the transferred value
            sign = _sign(sum((n - 1 - t) * key[t][0] for t in range(n)))
            table.setdefault(tuple(d for d, _ in key), {})[
                tuple(a for _, a in key)] = tuple(
                    (j, f.norm(sign * c)) for j, c in sorted(hvec.items()))
        if table:
            ops[n] = table

    idems = []
    for e in E.idempotents:
        vec = [0] * hdims[0]
        for j, c in apply(con.proj, 0, dict(enumerate(e))).items():
            vec[j] = c
        idems.append(tuple(vec))
    return AInfAlgebra(f, hdims, ops, idems, arity_cap)


def collection_ext_model(objects, arity_cap=4):
    """Minimal model of the endomorphism dg algebra of resolutions.

    Each object is replaced by its projective form, from
    derived.member_resolution at the default bottom, the entry
    derived.validate_simple_minded fills too unless a target lies far
    below the member, so a stalk's resolution is shared with validation
    and every job on the algebra.  The resolutions must terminate, otherwise the
    endomorphism algebra would only see a truncation and the transferred
    operations would be wrong in high degrees; over a self-injective
    algebra none does, and finding that out costs one memo read per
    member once validation ran.
    """
    forms = []
    for X in objects:
        r = member_resolution(X, "P")
        if not r.exact:
            raise AInfError(
                "a resolution did not terminate; the endomorphism "
                "model would be truncated")
        forms.append(r.complex)
    E = endomorphism_dg_algebra(forms)
    return kadeishvili_minimal_model(E, arity_cap)


# ---- the dual bar construction ----

DualBar = namedtuple("DualBar", ["algebra", "h_dims", "certified",
                                 "truncated"])


def dual_bar_dg(X: AInfAlgebra, degree_window=4, tensor_cap=6) -> DualBar:
    """Koszul-dual dg algebra of a positive minimal model.

    Basis: words of duals of shifted positive-degree elements,
    composable along the idempotent tags, of tensor length at most
    tensor_cap; length-zero words are the idempotents.  The product is
    concatenation with the interchange sign; the differential expands
    one letter through each operation, dual to the insertion
    coderivation of the bar coalgebra.  Longer words form a dg ideal,
    so the cut algebra is a genuine dg quotient and validates fully.
    Cohomology is reported only in certified degrees: those where
    neither the degree nor its neighbours lost any word to the cut.
    """
    if not X.positive:
        raise PositivityViolation("the dual bar needs a positive model")
    if degree_window < 0 or tensor_cap < 1:
        raise AInfError("need degree_window >= 0 and tensor_cap >= 1")
    f = X.field
    r = len(X.idempotents)
    letters = [(k, a) for k in X.degrees() if k > 0
               for a in range(X.dim_at(k))]
    lw = {la: la[0] - 1 for la in letters}  # shifted letter degree

    words = [()]
    frontier = [()]
    for _ in range(tensor_cap):
        nxt = []
        for w in frontier:
            for la in letters:
                if w and X.right_tag(*w[-1]) != X.left_tag(*la):
                    continue
                nxt.append(w + (la,))
        words += nxt
        frontier = nxt

    def wdeg(w):
        return -sum(lw[la] for la in w)

    def ltag(w, i):
        return i if not w else X.left_tag(*w[0])

    def rtag(w, i):
        return i if not w else X.right_tag(*w[-1])

    # the empty tuple stands for r idempotent words, one per vertex
    basis = {}
    for w in words:
        if w == ():
            for i in range(r):
                basis.setdefault(0, []).append((w, i))
        else:
            basis.setdefault(wdeg(w), []).append((w, None))
    for k in basis:
        basis[k].sort(key=lambda wi: (len(wi[0]), wi[0], wi[1] or 0))
    index = {}
    for k, lst in basis.items():
        for pos, wi in enumerate(lst):
            index[wi] = (k, pos)
    dims = {k: len(lst) for k, lst in basis.items()}

    word_set = set(words)

    def prefix_parity(w, t):
        return sum(lw[la] for la in w[:t])

    d = {k: [[0] * dims[k + 1] for _ in lst]
         for k, lst in basis.items() if dims.get(k + 1, 0)}
    # differential: for each target word, each run of letters, pair the
    # collapsed word against the source duals
    for T in words:
        if not T:
            continue
        kT = wdeg(T)
        for t in range(len(T)):
            for arity in range(2, len(T) - t + 1):
                run = T[t:t + arity]
                cdeg = sum(dd for dd, _ in run) + 2 - arity
                for a, c in X.shifted_op(run):
                    S = T[:t] + ((cdeg, a),) + T[t + arity:]
                    if S not in word_set:
                        continue
                    kS = wdeg(S)
                    if kS + 1 != kT or kS not in d:
                        continue
                    pS = sum(lw[la] for la in S)
                    parity = 1 + pS + prefix_parity(T, t)
                    rS = index[(S, None)][1]
                    cTpos = index[(T, None)][1]
                    d[kS][rS][cTpos] += _sign(parity) * c
    d = {k: Mat(f, [[f.norm(x) for x in row] for row in rows],
                ncols=dims[k + 1]) for k, rows in d.items()}

    # one signed coordinate per composable word pair, at their concatenation
    mult = {}
    for k1, lst1 in basis.items():
        for k2, lst2 in basis.items():
            block = {}
            for a, (w1, i1) in enumerate(lst1):
                for b, (w2, i2) in enumerate(lst2):
                    if rtag(w1, i1) != ltag(w2, i2) or \
                            len(w1) + len(w2) > tensor_cap:
                        continue
                    # two idempotent words meet only when i1 == i2
                    tgt = (w1 + w2, None) if w1 + w2 else ((), i1)
                    if tgt in index:
                        p1 = sum(lw[la] for la in w1)
                        p2 = sum(lw[la] for la in w2)
                        block[(a, b)] = ((index[tgt][1],
                                          f.norm(_sign(p1 * p2))),)
            if block:
                mult[(k1, k2)] = block

    unit = [0] * dims[0]
    idems = []
    for i in range(r):
        vec = [0] * dims[0]
        pos = index[((), i)][1]
        vec[pos] = unit[pos] = 1
        idems.append(tuple(vec))
    algebra = DgAlgebra(f, dims, d, mult, tuple(unit), idems)

    complete, truncated = _word_completeness(
        X, letters, lw, r, degree_window, tensor_cap)
    certified = [m for m in range(-degree_window, 1)
                 if complete.get(m - 1, True) and complete.get(m, True)
                 and complete.get(m + 1, True)]
    h = algebra.cohomology_dims()
    h_dims = {m: h.get(m, 0) for m in certified}
    return DualBar(algebra, h_dims, certified, truncated)


def _word_completeness(X, letters, lw, r, degree_window, tensor_cap):
    """Saturating reachability over (tag, degree drop, length) states.

    A degree is complete when no composable word at that degree is
    longer than the cap; lengths saturate at cap+1, degree drops at
    the reporting horizon plus two, so the state space stays finite
    even when degree-zero letters form cycles.
    """
    gmax = degree_window + 2
    lmax = tensor_cap + 1
    seen = {(i, 0, 0) for i in range(r)}
    stack = list(seen)
    while stack:
        (node, g, ln) = stack.pop()
        for la in letters:
            if X.left_tag(*la) != node:
                continue
            g2 = min(g + lw[la], gmax)
            l2 = min(ln + 1, lmax)
            st = (X.right_tag(*la), g2, l2)
            if st not in seen:
                seen.add(st)
                stack.append(st)
    complete = {}
    truncated = any(ln == lmax for (_, _, ln) in seen)
    for m in range(-degree_window - 1, 2):
        if m > 0:
            complete[m] = True
            continue
        drop = -m
        if drop >= gmax:
            complete[m] = False
            continue
        complete[m] = not any(
            g == drop and ln == lmax for (_, g, ln) in seen)
    return complete, truncated

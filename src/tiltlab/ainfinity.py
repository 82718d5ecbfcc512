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
from itertools import product as iproduct

from .dg import DgAlgebra, _unit_vec, _zeros, endomorphism_dg_algebra
from .derived import resolve_complex
from .linalg import Mat, independent_rows


class AInfError(Exception):
    pass


class ContractionFailure(AInfError):
    pass


class PositivityViolation(AInfError):
    pass


def _add(f, x, y):
    return tuple(f.add(a, b) for a, b in zip(x, y))


def _scale(f, c, x):
    return tuple(f.mul(c, a) for a in x)


def _sign(f, parity):
    return f.one() if parity % 2 == 0 else f.neg(f.one())


class AInfAlgebra:
    """Minimal A-infinity algebra on a finite graded basis.

    dims: {degree: dimension}.  ops: {arity n: {key: coords}} where a
    key is an n-tuple of (degree, index) basis references and coords
    live in degree sum + 2 - n.  idempotents are degree-0 vectors; the
    strict unit is their sum.  tags assign each basis element its
    Peirce corner (left idempotent, right idempotent).
    """

    def __init__(self, field, dims, ops, idempotents, arity_cap,
                 tags=None, positive=False, check=True):
        self.field = field
        self.dims = {k: n for k, n in dims.items() if n}
        self.ops = {}  # zero values and empty arities are dropped
        for n, table in ops.items():
            kept = {key: tuple(val) for key, val in table.items() if any(val)}
            if kept:
                self.ops[n] = kept
        self.idempotents = [tuple(e) for e in idempotents]
        self.arity_cap = arity_cap
        self.positive = positive
        self.strict_unit = True
        self.tags = tags if tags is not None else self._compute_tags()
        if check:
            self.validate()

    def dim_at(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def op_elem(self, n, items):
        """Multilinear extension; items are (degree, coords) pairs."""
        f = self.field
        out_deg = sum(d for d, _ in items) + 2 - n
        acc = list(_zeros(f, self.dim_at(out_deg)))
        idxs = [[a for a, c in enumerate(vec) if c] for _, vec in items]
        for combo in iproduct(*idxs):
            key = tuple((items[t][0], combo[t]) for t in range(n))
            coeff = f.one()
            for t in range(n):
                coeff = f.mul(coeff, items[t][1][combo[t]])
            val = self.op(n, key)
            for a, c in enumerate(val):
                acc[a] = f.add(acc[a], f.mul(coeff, c))
        return tuple(acc)

    @property
    def unit(self):
        f = self.field
        acc = _zeros(f, self.dim_at(0))
        for e in self.idempotents:
            acc = _add(f, acc, e)
        return acc

    def op(self, n, key):
        out_deg = sum(d for d, _ in key) + 2 - n
        table = self.ops.get(n)
        if table is None or key not in table:
            return _zeros(self.field, self.dim_at(out_deg))
        return table[key]

    def shifted_op(self, n, key):
        """b_n on shifted basis elements, coords in classical grading."""
        parity = sum((n - 1 - t) * key[t][0] for t in range(n))
        return _scale(self.field, _sign(self.field, parity),
                      self.op(n, key))

    def left_tag(self, deg, idx):
        return self.tags[deg][idx][0]

    def right_tag(self, deg, idx):
        return self.tags[deg][idx][1]

    def _compute_tags(self):
        f = self.field
        tags = {}
        for k in self.degrees():
            row = []
            for a in range(self.dim_at(k)):
                x = _unit_vec(f, self.dim_at(k), a)
                li = ri = None
                for i, e in enumerate(self.idempotents):
                    lx = self.op_elem(2, [(0, e), (k, x)])
                    rx = self.op_elem(2, [(k, x), (0, e)])
                    if lx == x:
                        li = i
                    elif any(lx):
                        li = None
                        break
                    if rx == x:
                        ri = i
                    elif any(rx):
                        ri = None
                        break
                if li is None or ri is None:
                    raise AInfError(
                        "basis is not adapted to the idempotents")
                row.append((li, ri))
            tags[k] = row
        return tags

    def _keys(self, n):
        """All chaining basis tuples of the given arity."""
        refs = [(k, a) for k in self.degrees()
                for a in range(self.dim_at(k))]
        out = [()]
        for _ in range(n):
            nxt = []
            for partial in out:
                for r in refs:
                    if partial and \
                            self.right_tag(*partial[-1]) != self.left_tag(*r):
                        continue
                    nxt.append(partial + (r,))
            out = nxt
        return out

    def stasheff_defect(self, n):
        """First basis tuple where the arity-n identity fails, or None.

        The identity is stated in the shifted form: the sum over all
        single insertions of an inner operation into an outer one,
        with the prefix sign, vanishes.
        """
        f = self.field
        for key in self._keys(n):
            out_deg = sum(d for d, _ in key) + 3 - n
            acc = list(_zeros(f, self.dim_at(out_deg)))
            for k in range(2, n - 1 + 1):
                outer = n - k + 1
                for t in range(0, n - k + 1):
                    inner_key = key[t:t + k]
                    inner = self.shifted_op(k, inner_key)
                    if not any(inner):
                        continue
                    inner_deg = sum(d for d, _ in inner_key) + 2 - k
                    items = [(d, _unit_vec(f, self.dim_at(d), a))
                             for d, a in key[:t]]
                    items.append((inner_deg, inner))
                    items += [(d, _unit_vec(f, self.dim_at(d), a))
                              for d, a in key[t + k:]]
                    parity = sum((outer - 1 - s) * items[s][0]
                                 for s in range(outer))
                    parity += sum(d - 1 for d, _ in key[:t])
                    val = _scale(f, _sign(f, parity),
                                 self.op_elem(outer, items))
                    acc = [f.add(p, q) for p, q in zip(acc, val)]
            if any(acc):
                return key, tuple(acc)
        return None

    def validate(self):
        f = self.field
        if any(n < 2 or n > self.arity_cap for n in self.ops):
            raise AInfError("operation arity outside the configured range")
        for n, table in self.ops.items():
            for key, val in table.items():
                out_deg = sum(d for d, _ in key) + 2 - n
                if len(val) != self.dim_at(out_deg):
                    raise AInfError("operation lands in the wrong degree")
                for d, a in key:
                    if not (0 <= a < self.dim_at(d)):
                        raise AInfError("operation key out of range")
                for (d1, a1), (d2, a2) in zip(key, key[1:]):
                    if self.right_tag(d1, a1) != self.left_tag(d2, a2):
                        raise AInfError("operation key does not chain")
                lt = self.left_tag(*key[0])
                rt = self.right_tag(*key[-1])
                for a, c in enumerate(val):
                    if c and self.tags[out_deg][a] != (lt, rt):
                        raise AInfError("operation leaves its corner")
        # idempotents: orthogonal, and their sum is a strict unit
        for i, e in enumerate(self.idempotents):
            for j, e2 in enumerate(self.idempotents):
                want = e if i == j else _zeros(f, self.dim_at(0))
                if self.op_elem(2, [(0, e), (0, e2)]) != want:
                    raise AInfError("idempotents are not orthogonal")
        one = self.unit
        for k in self.degrees():
            for a in range(self.dim_at(k)):
                x = _unit_vec(f, self.dim_at(k), a)
                if self.op_elem(2, [(0, one), (k, x)]) != x or \
                        self.op_elem(2, [(k, x), (0, one)]) != x:
                    raise AInfError("the unit is not strictly unital")
        for n, table in self.ops.items():
            if n == 2:
                continue
            for key in table:
                for t, (d, a) in enumerate(key):
                    if d != 0:
                        continue
                    x = _unit_vec(f, self.dim_at(0), a)
                    sol = Mat(f, [list(e) for e in self.idempotents],
                              ncols=self.dim_at(0)).transpose().solve(
                        Mat(f, [list(x)]).transpose())
                    if sol is not None:
                        raise AInfError(
                            "higher operation does not vanish on the "
                            "degree-zero part")
        for n in range(3, self.arity_cap + 2):
            bad = self.stasheff_defect(n)
            if bad is not None:
                raise AInfError(
                    f"higher associativity fails at arity {n} "
                    f"on {bad[0]}")
        if self.positive:
            if any(k < 0 for k in self.dims):
                raise PositivityViolation(
                    "negative degrees contradict positivity")
            if self.dim_at(0) != len(self.idempotents):
                raise PositivityViolation(
                    "degree zero is larger than the idempotent span")


# ---- homotopy transfer ----

_Contraction = namedtuple(
    "_Contraction", ["hdims", "htags", "emb", "proj", "htp"])
# emb[k]: hdims[k] x E.dim_at(k) rows of chosen representatives
# proj[k]: E.dim_at(k) x hdims[k]; htp[k]: E.dim_at(k) x E.dim_at(k-1)


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
        d_loc = []
        nxt = blocks.get((k + 1, tag), [])
        for a in idxs:
            img = E.elem_d(k, _unit_vec(f, E.dim_at(k), a))
            d_loc.append([img[b] for b in nxt])
        dm = Mat(f, d_loc, ncols=len(nxt))
        Z = dm.left_kernel_basis().row_space_basis()
        zrows[(k, tag)] = Z
        crows[(k, tag)] = independent_rows(
            Z, [_unit_vec(f, n, j) for j in range(n)])

    # pass two: boundaries from the previous complement, then
    # representatives: idempotents first in their degree-zero corners
    hdims, htags, emb_rows = {}, {}, {}
    p_cols, h_cols = {}, {}
    for (k, tag), idxs in sorted(blocks.items()):
        n = len(idxs)
        prev = blocks.get((k - 1, tag), [])
        brows = []
        for c in crows.get((k - 1, tag), []):
            vec = [f.zero()] * E.dim_at(k - 1)
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
        T = Mat(f, [list(r) for r in B.data] + [list(r) for r in reps]
                + [list(r) for r in C], ncols=n)
        if T.nrows != n or not T.is_invertible():
            raise ContractionFailure("corner splitting failed")
        Tinv = T.inverse()
        nb, nr = B.nrows, len(reps)
        for pos, a in enumerate(idxs):
            coords = Tinv.data[pos]
            p_cols[(k, a)] = coords[nb:nb + nr]
            h_cols[(k, a)] = (coords[:nb], (k - 1, tag))
        base = hdims.get(k, 0)
        hdims[k] = base + nr
        htags.setdefault(k, []).extend([tag] * nr)
        for r in reps:
            vec = [f.zero()] * E.dim_at(k)
            for pos, a in enumerate(idxs):
                vec[a] = r[pos]
            emb_rows.setdefault(k, []).append(vec)

    hdims = {k: n for k, n in hdims.items() if n}
    emb = {k: Mat(f, rows, ncols=E.dim_at(k))
           for k, rows in emb_rows.items() if rows}
    proj = {}
    for k in E.degrees():
        cols = hdims.get(k, 0)
        rows = []
        for a in range(E.dim_at(k)):
            row = [f.zero()] * cols
            if (k, a) in p_cols:
                seg = p_cols[(k, a)]
                # this block's representatives occupy a contiguous run
                offset = _h_offset(htags.get(k, []), tags[k][a])
                for j, c in enumerate(seg):
                    row[offset + j] = c
            rows.append(row)
        proj[k] = Mat(f, rows, ncols=cols)
    htp = {}
    for k in E.degrees():
        prev_dim = E.dim_at(k - 1)
        rows = []
        for a in range(E.dim_at(k)):
            row = [f.zero()] * prev_dim
            if (k, a) in h_cols:
                bcoords, (km1, tag) = h_cols[(k, a)]
                cs = crows.get((km1, tag), [])
                prev = blocks.get((km1, tag), [])
                for j, c in enumerate(bcoords):
                    for pos, b in enumerate(prev):
                        row[b] = f.add(row[b], f.mul(c, cs[j][pos]))
            rows.append(row)
        htp[k] = Mat(f, rows, ncols=prev_dim)
    return _Contraction(hdims, htags, emb, proj, htp)


def _h_offset(taglist, tag):
    # representatives were appended block by block in sorted tag order
    off = 0
    for t in sorted(set(taglist)):
        if t == tag:
            return off
        off += sum(1 for s in taglist if s == t)
    return off


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

    def chain(seq):
        for s, t in zip(seq, seq[1:]):
            if con.htags[s[0]][s[1]][1] != con.htags[t[0]][t[1]][0]:
                return False
        return True

    def b2(x, y):
        dx, vx = x
        dy, vy = y
        vec = E.elem_mult(dx, vx, dy, vy)
        return (dx + dy, _scale(f, _sign(f, dx), vec))

    ops = {}
    for n in range(2, arity_cap + 1):
        table = {}
        for key in iproduct(href, repeat=n):
            if not chain(key):
                continue
            leaves = []
            for k, a in key:
                vec = tuple(con.emb[k].data[a])
                leaves.append((k, vec))
            memo = {}

            def lam(a, b):
                if (a, b) in memo:
                    return memo[(a, b)]
                deg_out = sum(d for d, _ in leaves[a:b]) + 2 - (b - a)
                acc = list(_zeros(f, E.dim_at(deg_out)))
                for s in range(a + 1, b):
                    left = leaves[a] if s - a == 1 else hb(lam(a, s))
                    right = leaves[s] if b - s == 1 else hb(lam(s, b))
                    dl, vl = left
                    dr, vr = right
                    if not any(vl):
                        continue
                    if not any(vr):
                        continue
                    d2, v2 = b2(left, right)
                    acc = [f.add(p, q) for p, q in zip(acc, v2)]
                out = (deg_out, tuple(acc))
                memo[(a, b)] = out
                return out

            def hb(x):
                d, v = x
                if d not in con.htp or not any(v):
                    return (d - 1, _zeros(f, E.dim_at(d - 1)))
                return (d - 1,
                        tuple(Mat(f, [list(v)]).mul(con.htp[d]).data[0]))

            dv, vv = lam(0, n)
            if not any(vv):
                continue
            if dv not in con.proj:
                continue
            hvec = tuple(Mat(f, [list(vv)]).mul(con.proj[dv]).data[0])
            if not any(hvec):
                continue
            # fold in the shift conversion so the stored operation and
            # its shifted form agree with the transferred value
            parity = sum((n - 1 - t) * key[t][0] for t in range(n))
            table[key] = _scale(f, _sign(f, parity), hvec)
        if table:
            ops[n] = table

    idems = []
    for i, e in enumerate(E.idempotents):
        if 0 not in con.proj:
            raise ContractionFailure("no degree-zero cohomology")
        idems.append(tuple(Mat(f, [list(e)]).mul(con.proj[0]).data[0]))
    tags = {k: list(con.htags[k]) for k in hdims}
    positive = all(k >= 0 for k in hdims) and \
        hdims.get(0, 0) == len(idems)
    X = AInfAlgebra(f, hdims, ops, idems, arity_cap,
                    tags=tags, positive=positive, check=True)
    return X


def collection_ext_model(objects, arity_cap=4):
    """Minimal model of the endomorphism dg algebra of resolutions.

    Each object is replaced by its projective form; the resolutions
    must terminate, otherwise the endomorphism algebra would only see
    a truncation and the transferred operations would be wrong in high
    degrees.
    """
    forms = []
    for X in objects:
        r = resolve_complex(X)
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

    d = {}
    for k, lst in basis.items():
        if dims.get(k + 1, 0) == 0:
            continue
        rows = []
        for (w, i) in lst:
            row = [f.zero()] * dims[k + 1]
            # expansions live on longer words; collect them by scanning
            rows.append(row)
        d[k] = rows
    # differential: for each target word, each run of letters, pair the
    # collapsed word against the source duals
    for T in words:
        if not T:
            continue
        kT = wdeg(T)
        for t in range(len(T)):
            for arity in range(2, len(T) - t + 1):
                run = T[t:t + arity]
                coll = X.shifted_op(arity, run)
                if not any(coll):
                    continue
                cdeg = sum(dd for dd, _ in run) + 2 - arity
                for a, c in enumerate(coll):
                    if not c:
                        continue
                    S = T[:t] + ((cdeg, a),) + T[t + arity:]
                    if S not in word_set:
                        continue
                    kS = wdeg(S)
                    if kS + 1 != kT or kS not in d:
                        continue
                    pS = sum(lw[la] for la in S)
                    parity = 1 + pS + prefix_parity(T, t)
                    coeff = f.mul(_sign(f, parity), c)
                    rS = index[(S, None)][1]
                    cTpos = index[(T, None)][1]
                    row = d[kS][rS]
                    row[cTpos] = f.add(row[cTpos], coeff)
    d = {k: Mat(f, rows, ncols=dims[k + 1]) for k, rows in d.items()}

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
                        block[(a, b)] = ((index[tgt][1], _sign(f, p1 * p2)),)
            if block:
                mult[(k1, k2)] = block

    unit = [f.zero()] * dims[0]
    idems = []
    for i in range(r):
        vec = [f.zero()] * dims[0]
        pos = index[((), i)][1]
        vec[pos] = f.one()
        unit[pos] = f.one()
        idems.append(tuple(vec))
    algebra = DgAlgebra(f, dims, d, mult, tuple(unit), idems,
                        check=True, nonpositive=True)

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

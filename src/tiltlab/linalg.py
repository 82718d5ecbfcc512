"""Exact linear algebra over GF(p) and the rationals.

Scalars are plain python ints: residues in [0, p) over GF(p), and over
the rationals every integral value, with fractions.Fraction only for a
true non-integer.  No floats appear anywhere.  Every module computes
with Python's operators on these values, writes 0, 1 and -1 as
literals, and reduces a result once, through the field's norm, before
it keeps or tests it; a Field has no per-operation arithmetic (see
Field).  Row reduction uses partial pivoting by first nonzero entry
with lowest-index tie-breaking, so every derived basis is deterministic.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Common interface for the two supported scalar fields.

    A field keeps only what Python's operators cannot do: zero and one,
    reading a value in (of, parse), inversion, the reduction norm, and
    printing.  Code computes with + - * on the scalars, f.inv for a
    division, and f.norm once wherever a value is kept: stored in a
    matrix, a structure table, a returned tuple or a memo key, or tested
    against zero (an unreduced p over GF(p) is truthy).  An accumulator
    adds raw products and norms each output coordinate once.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, x):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def norm(self, x):
        """The field element of an operator result (a sum of products of
        elements), in its one stored form."""
        raise NotImplementedError

    def parse(self, text):
        """Read a scalar from its report form ("3", "-2/5")."""
        text = str(text).strip()
        if "/" in text:
            num, den = text.split("/")
            return self.norm(self.of(int(num)) * self.inv(self.of(int(den))))
        return self.of(int(text))

    def to_str(self, a):
        return str(a)


# Miller-Rabin with the twelve primes up to 37 as bases decides
# primality exactly below _MR_EXACT_BELOW, the least composite that is a
# strong probable prime to all of them (Jaeschke, Math. Comp. 61, 1993;
# shown least by Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(n):
    """Deterministic primality test for 0 <= n < _MR_EXACT_BELOW."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large to be certified prime")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) for a prime p below 3.18e23; elements are ints in [0, p).

    Primality is decided exactly (_is_prime); larger p are refused.
    """

    def __init__(self, p):
        p = int(p)
        if p < 2:
            raise ValueError(f"prime must be at least 2, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def of(self, x):
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            return x.numerator * self.inv(x.denominator) % self.p
        return int(x) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def norm(self, x):
        return x % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _q(x):
    """x as an int when it is integral, else the Fraction itself."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    """The rationals, exactly: an integral value is an int, any other a
    Fraction.

    An int and the equal Fraction agree in ==, hash, ordering and str,
    so reports and memo keys do not see the representation.  of and inv
    return through _q, which is also norm, the one reduction applied to
    each value that is kept.
    """

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, x):
        return _q(Fraction(x))

    def inv(self, a):
        # a unit pivot is the common case, and it is its own inverse
        if a == 1 or a == -1:
            return int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _q(Fraction(1, a))

    norm = staticmethod(_q)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def field_from_spec(spec):
    """Build a field from its JSON form: "rational" or {"prime": p}."""
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        p = spec["prime"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"prime must be an integer, got {p!r}")
        return PrimeField(p)
    raise ValueError(f"unrecognized field spec: {spec!r}")


class Mat:
    """Immutable dense matrix over a Field; rows stored as tuples.

    The constructor re-tuples and checks the rows it is given, so every
    matrix built from outside data (parsers, callers, tests) is well
    formed.  A kernel that builds its own result from equal-length tuples
    goes through _trusted instead, which stores them unchecked.
    """

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, data, ncols=None):
        self.field = field
        rows = tuple(tuple(r) for r in data)
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
        else:
            self.ncols = 0 if ncols is None else int(ncols)
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
        self.data = rows

    @classmethod
    def _trusted(cls, field, rows, ncols):
        """Wrap a tuple of tuples, each of length ncols, without checking."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = ncols
        m.data = rows
        return m

    @classmethod
    def from_rows(cls, field, rows):
        return cls(field, [[field.of(x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._trusted(field, ((0,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        return cls._trusted(field, tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and (other.nrows, other.ncols) == (self.nrows, self.ncols)
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.data))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field!r})"

    def is_zero(self):
        return not any(x for row in self.data for x in row)

    def add(self, other):
        self._check_same_shape(other)
        norm = self.field.norm
        return Mat._trusted(self.field, tuple(
            tuple([norm(a + b) for a, b in zip(ra, rb)])
            for ra, rb in zip(self.data, other.data)), self.ncols)

    def scale(self, c):
        f = self.field
        c, norm = f.of(c), f.norm
        return Mat._trusted(f, tuple(tuple([norm(c * x) for x in row])
                                     for row in self.data), self.ncols)

    def mul(self, other):
        """Matrix product self @ other."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        f = self.field
        norm = f.norm
        out = []
        for row in self.data:
            # the rows of other that row's nonzero entries weight, summed
            acc = None
            for a, b in zip(row, other.data):
                if a:
                    acc = [a * y for y in b] if acc is None else \
                        [x + a * y for x, y in zip(acc, b)]
            out.append((0,) * other.ncols if acc is None
                       else tuple(map(norm, acc)))
        return Mat._trusted(f, tuple(out), other.ncols)

    def transpose(self):
        if self.nrows == 0:
            return Mat._trusted(self.field, ((),) * self.ncols, 0)
        return Mat._trusted(self.field, tuple(zip(*self.data)), self.nrows)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Mat(self.field, [ra + rb for ra, rb in zip(self.data, other.data)],
                   ncols=self.ncols + other.ncols)

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots) where pivots is the tuple of pivot column
        indices.  Pivot choice is the first row with a nonzero entry in
        the current column, so the result is deterministic.
        """
        f = self.field
        norm = f.norm
        rows = [list(r) for r in self.data]
        pivots = []
        rank = 0
        for col in range(self.ncols):
            pivot = None
            for r in range(rank, self.nrows):
                if rows[r][col]:
                    pivot = r
                    break
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = f.inv(rows[rank][col])
            prow = rows[rank] = [norm(inv * x) for x in rows[rank]]
            for r in range(self.nrows):
                if r != rank and rows[r][col]:
                    c = rows[r][col]
                    rows[r] = [norm(x - c * y) for x, y in zip(rows[r], prow)]
            pivots.append(col)
            rank += 1
            if rank == self.nrows:
                break
        return Mat._trusted(f, tuple(map(tuple, rows)), self.ncols), tuple(pivots)

    def rank(self):
        _, pivots = self.rref()
        return len(pivots)

    def _null_vectors(self):
        """Vectors v with self @ v = 0, one per free column of the reduced
        echelon form, as tuples: a basis of the kernel."""
        norm = self.field.norm
        R, pivots = self.rref()
        pivset = set(pivots)
        vecs = []
        for j in range(self.ncols):
            if j in pivset:
                continue
            v = [0] * self.ncols
            v[j] = 1
            for r, pc in enumerate(pivots):
                v[pc] = norm(-R.data[r][j])
            vecs.append(tuple(v))
        return tuple(vecs)

    def solve(self, b):
        """Solve self @ x = b for a column-stacked b; None if inconsistent."""
        if b.nrows != self.nrows:
            raise ValueError("shape mismatch in solve")
        f = self.field
        aug = self.hstack(b)
        R, pivots = aug.rref()
        for col in pivots:
            if col >= self.ncols:
                return None
        xs = []
        for k in range(b.ncols):
            x = [0] * self.ncols
            for r, pc in enumerate(pivots):
                x[pc] = R.data[r][self.ncols + k]
            xs.append(x)
        if not xs:
            return Mat._trusted(f, ((),) * self.ncols, 0)
        return Mat._trusted(f, tuple(zip(*xs)), len(xs))

    def row_space_basis(self):
        """Rows spanning the row space, in echelon form."""
        R, pivots = self.rref()
        return Mat._trusted(self.field, R.data[:len(pivots)], self.ncols)

    def left_kernel_basis(self):
        """Rows v with v @ self = 0: the null vectors of the transpose."""
        return Mat._trusted(self.field, self.transpose()._null_vectors(),
                            self.nrows)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        x = self.solve(Mat.identity(self.field, self.nrows))
        if x is None:
            raise ValueError("matrix is singular")
        return x


class Echelon:
    """Incremental echelon form of the rows offered to it.

    A row independent of the stored ones is reduced against them, scaled
    to a leading one and stored together with its expression in the
    offered rows kept so far (numbered in the order they were kept), so
    one pass of reduction decides membership and gives coordinates.
    """

    def __init__(self, base: Mat):
        self.field = base.field
        self.rows = []  # (pivot, reduced row, {kept index: coefficient})
        self.extend(base.data)

    def _reduce(self, vec):
        """(residual, comb) with vec = residual + sum of comb[g] * kept g."""
        norm = self.field.norm
        vec = list(vec)
        comb = {}
        for pivot, row, expr in self.rows:
            c = vec[pivot]
            if not c:
                continue
            vec = [norm(x - c * y) if y else x for x, y in zip(vec, row)]
            for g, a in expr.items():
                comb[g] = comb[g] + c * a if g in comb else c * a
        return vec, {g: norm(v) for g, v in comb.items()}

    def add(self, vec):
        """Store vec when it is independent of the stored rows."""
        f = self.field
        norm = f.norm
        res, comb = self._reduce(vec)
        lead = next((j for j, x in enumerate(res) if x), None)
        if lead is None:
            return False
        inv = f.inv(res[lead])
        expr = {g: norm(-inv * a) for g, a in comb.items()}
        expr[len(self.rows)] = inv
        self.rows.append((lead, [norm(inv * x) for x in res], expr))
        return True

    def extend(self, candidates):
        """The candidates, in order, that add() stores."""
        return [tuple(c) for c in candidates if self.add(c)]

    def coords(self, vec):
        """{kept index: coefficient} expressing vec; None outside the span."""
        res, comb = self._reduce(vec)
        return None if any(res) else comb


def independent_rows(base: Mat, candidates):
    """The candidates, in order, independent of base's rows and of the
    candidates kept before them."""
    return Echelon(base).extend(candidates)


def homology_dims(dims, d):
    """Nonzero homology dimensions of a complex of row-vector spaces.

    dims: {degree: dimension}; d[k]: matrix of the differential from
    degree k to k+1.  H^k has dimension dims[k] - rank d[k] - rank d[k-1],
    which holds only when d[k-1] d[k] = 0; callers check that.
    """
    out = {}
    for k, n in dims.items():
        rk_out = d[k].rank() if k in d else 0
        rk_in = d[k - 1].rank() if k - 1 in d else 0
        h = n - rk_out - rk_in
        if h:
            out[k] = h
    return out


class Subquotient:
    """(row span of Z) / (row span of B), with chosen representatives.

    reps holds the rows of Z, in order, that are independent modulo B and
    the rows kept before them; B's rows need not be independent.  Class
    coordinates over reps are unique, so they depend only on the spans
    and on the rows of Z.
    """

    def __init__(self, Z: Mat, B: Mat):
        self._echelon = Echelon(B)
        self._first = len(self._echelon.rows)
        self.reps = Mat(Z.field, self._echelon.extend(Z.data), ncols=Z.ncols)
        self.dim = self.reps.nrows

    def coords(self, vec):
        """Class coordinates of a vector of span(Z) + span(B) over reps;
        None for a vector outside it."""
        comb = self._echelon.coords(vec)
        if comb is None:
            return None
        return tuple(comb.get(self._first + i, 0) for i in range(self.dim))


def smith_normal_form(rows):
    """Invariant factors of an integer matrix, nonnegative, each dividing the next.

    Input is a list of int rows; output has length min(nrows, ncols) with
    trailing zeros for rank deficiency.
    """
    A = [list(map(int, r)) for r in rows]
    n = len(A)
    m = len(A[0]) if n else 0
    result = []
    top = 0
    while top < min(n, m):
        # move a nonzero entry of smallest absolute value to the pivot spot
        best = None
        for i in range(top, n):
            for j in range(top, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        A[top], A[i0] = A[i0], A[top]
        for row in A:
            row[top], row[j0] = row[j0], row[top]
        progress = True
        while progress:
            progress = False
            for i in range(top + 1, n):
                if A[i][top] % A[top][top] != 0:
                    q = A[i][top] // A[top][top]
                    A[i] = [x - q * y for x, y in zip(A[i], A[top])]
                    if A[i][top] != 0:
                        A[top], A[i] = A[i], A[top]
                        progress = True
            for i in range(top + 1, n):
                q = A[i][top] // A[top][top]
                A[i] = [x - q * y for x, y in zip(A[i], A[top])]
            for j in range(top + 1, m):
                if A[top][j] % A[top][top] != 0:
                    q = A[top][j] // A[top][top]
                    for row in A:
                        row[j] -= q * row[top]
                    if A[top][j] != 0:
                        for row in A:
                            row[top], row[j] = row[j], row[top]
                        progress = True
            for j in range(top + 1, m):
                q = A[top][j] // A[top][top]
                for row in A:
                    row[j] -= q * row[top]
            if not progress:
                # pivot must divide every remaining entry for the divisibility chain
                for i in range(top + 1, n):
                    for j in range(top + 1, m):
                        if A[i][j] % A[top][top] != 0:
                            A[top] = [x + y for x, y in zip(A[top], A[i])]
                            progress = True
                            break
                    if progress:
                        break
        result.append(abs(A[top][top]))
        top += 1
    while len(result) < min(n, m):
        result.append(0)
    return result


def is_unimodular(rows):
    """True when the integer matrix is square with all Smith invariants 1."""
    A = [list(r) for r in rows]
    if not A or len(A) != len(A[0]):
        return False
    return all(d == 1 for d in smith_normal_form(A))

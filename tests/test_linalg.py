"""Field and matrix layer: frozen values plus rank/kernel properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.linalg import (
    Echelon,
    Mat,
    PrimeField,
    QQ,
    field_from_spec,
    is_unimodular,
    smith_normal_form,
)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_rejects_composites_without_small_factors():
    # no factor below 2^20, so trial division up to 2^20 cannot see them
    for n in (1048583 * 1048589, 1048583 ** 2):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    # a strong probable prime to every base up to 23
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3825123056546413051)
    f = PrimeField(1048589)
    assert f.norm(2 * f.inv(2)) == 1
    assert f.norm(1048588 * f.inv(1048588)) == 1
    # the least composite that passes every base up to 37: past the
    # range the test decides, so it is refused rather than guessed
    with pytest.raises(ValueError, match="too large"):
        PrimeField(399165290221 * 798330580441)


def test_field_parse_fraction_forms():
    assert QQ.parse("-2/5") == Fraction(-2, 5)
    f7 = PrimeField(7)
    assert f7.parse("1/2") == 4  # 2 * 4 = 8 = 1 mod 7
    assert field_from_spec({"prime": 3}).p == 3
    assert field_from_spec("rational") == QQ


def test_rank_rational_dependent_rows():
    m = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_gf2():
    f2 = PrimeField(2)
    m = Mat.from_rows(f2, [[1, 1]])
    vecs = m._null_vectors()
    assert [len(v) for v in vecs] == [2]
    assert vecs[0][0] == 1 and vecs[0][1] == 1
    assert m.mul(Mat(f2, list(zip(*vecs)))).is_zero()


def test_solve_gf5():
    f5 = PrimeField(5)
    m = Mat.from_rows(f5, [[2]])
    b = Mat.from_rows(f5, [[3]])
    x = m.solve(b)
    assert x[0, 0] == 4


def test_solve_inconsistent_returns_none():
    m = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    b = Mat.from_rows(QQ, [[1], [0]])
    assert m.solve(b) is None


def test_solve_shape_mismatch_raises():
    m = Mat.from_rows(QQ, [[1, 2]])
    b = Mat.from_rows(QQ, [[1], [2]])
    with pytest.raises(ValueError):
        m.solve(b)


def test_smith_normal_form_diag():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 1], [0, 2]]) == [1, 2]


def test_unimodular():
    assert is_unimodular([[1, 1], [0, -1]])
    assert not is_unimodular([[2, 0], [0, 1]])
    assert not is_unimodular([[1, 0]])


def test_inverse_round_trip():
    m = Mat.from_rows(QQ, [[1, 2], [3, 5]])
    assert m.mul(m.inverse()) == Mat.identity(QQ, 2)


def _random_mat(field, rng, nrows, ncols, span=5):
    return Mat.from_rows(
        field, [[rng.randrange(-span, span + 1) for _ in range(ncols)] for _ in range(nrows)]
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["Q", 2, 5]))
def test_rank_nullity(seed, nrows, ncols, field_key):
    rng = random.Random(seed)
    field = QQ if field_key == "Q" else PrimeField(field_key)
    m = _random_mat(field, rng, nrows, ncols)
    vecs = m._null_vectors()
    assert m.rank() + len(vecs) == ncols
    if vecs:
        assert m.mul(Mat(field, list(zip(*vecs)))).is_zero()
        assert Mat(field, vecs).rank() == len(vecs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 4))
def test_solve_finds_actual_solutions(seed, nrows, ncols):
    rng = random.Random(seed)
    f5 = PrimeField(5)
    m = _random_mat(f5, rng, nrows, ncols)
    x_true = _random_mat(f5, rng, ncols, 1)
    b = m.mul(x_true)
    x = m.solve(b)
    assert x is not None
    assert m.mul(x) == b


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 4))
def test_snf_divisibility_chain(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = [[rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(nrows)]
    d = smith_normal_form(rows)
    assert len(d) == min(nrows, ncols)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # rank agrees with the rational rank
    m = Mat.from_rows(QQ, rows)
    assert sum(1 for x in d if x != 0) == m.rank()


def _checked_copy(R):
    """R rebuilt through the checking constructor; its rows as stored."""
    assert isinstance(R.data, tuple)
    assert all(isinstance(r, tuple) and len(r) == R.ncols for r in R.data)
    assert R.nrows == len(R.data)
    return Mat(R.field, R.data, ncols=R.ncols)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 3), st.sampled_from(["Q", 5]))
def test_kernel_results_are_well_formed(seed, nrows, ncols, k, field_key):
    rng = random.Random(seed)
    field = QQ if field_key == "Q" else PrimeField(field_key)
    m = _random_mat(field, rng, nrows, ncols)
    if not nrows:
        m = Mat(field, [], ncols=ncols)
    other = _random_mat(field, rng, ncols, k) if ncols else Mat(field, [], ncols=k)
    R, _ = m.rref()
    results = [m.mul(other), m.transpose(), R, m.row_space_basis(),
               Mat.zeros(field, nrows, ncols), Mat.identity(field, ncols)]
    consistent = m.solve(m.mul(other))
    assert consistent is not None
    results.append(consistent)
    rhs = _random_mat(field, rng, nrows, k) if nrows else Mat(field, [], ncols=k)
    x = m.solve(rhs)
    if x is not None:
        results.append(x)
    for res in results:
        assert res == _checked_copy(res)
    assert (m.mul(other).nrows, m.mul(other).ncols) == (nrows, k)
    assert (m.transpose().nrows, m.transpose().ncols) == (ncols, nrows)
    vecs = m._null_vectors()
    assert isinstance(vecs, tuple)
    assert all(isinstance(v, tuple) and len(v) == ncols for v in vecs)
    assert (consistent.nrows, consistent.ncols) == (ncols, k)


# ---- kernel oracle: the matrix kernels against reference fields ----

class _FractionQQ:
    """The rationals with every value a Fraction, integral ones too."""

    def of(self, x):
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a


class _ReducingGF:
    """GF(p) that reduces the result of every single operation."""

    def __init__(self, p):
        self.p = p

    def of(self, x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


def _ref_mul(F, A, B, k):
    """A @ B for B with k columns."""
    out = []
    for row in A:
        out_row = []
        for j in range(k):
            acc = F.zero()
            for t in range(len(B)):
                acc = F.add(acc, F.mul(row[t], B[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def _ref_rref(F, A, ncols):
    """Gauss-Jordan; the reduced echelon form and its pivots are unique."""
    rows = [list(r) for r in A]
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        hit = next((r for r in range(r0, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[r0], rows[hit] = rows[hit], rows[r0]
        inv = F.inv(rows[r0][col])
        rows[r0] = [F.mul(inv, x) for x in rows[r0]]
        for r in range(len(rows)):
            c = rows[r][col]
            if r != r0 and c:
                rows[r] = [F.sub(x, F.mul(c, y))
                           for x, y in zip(rows[r], rows[r0])]
        pivots.append(col)
    return rows, pivots


def _ref_kernel(F, A, ncols):
    """One column per free column j: 1 at j, -R[r][j] at pivot r's column."""
    R, pivots = _ref_rref(F, A, ncols)
    cols = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F.zero()] * ncols
        v[j] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.sub(F.zero(), R[r][j])
        cols.append(v)
    return [list(r) for r in zip(*cols)] if cols else [[] for _ in range(ncols)]


def _ref_solve(F, A, B, ncols, k):
    """The solution of A x = B (ncols unknowns, k right-hand sides) with
    every free variable zero; None when there is none."""
    R, pivots = _ref_rref(F, [ra + rb for ra, rb in zip(A, B)], ncols + k)
    if any(pc >= ncols for pc in pivots):
        return None
    x = [[F.zero()] * k for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        x[pc] = R[r][ncols:]
    return x


def _random_entries(rng, nrows, ncols):
    """Mostly zeros and small integers, some proper fractions."""
    def entry():
        roll = rng.random()
        if roll < 0.4:
            return 0
        if roll < 0.8:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-5, 5), rng.randint(2, 4))
    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _scalars(field, values):
    """The values, checked for the field's representation: over QQ an int
    for every integral value and a Fraction for any other; over GF(p) an
    int in [0, p)."""
    values = list(values)
    for x in values:
        if field == QQ:
            assert type(x) is int or (type(x) is Fraction
                                      and x.denominator != 1), repr(x)
        else:
            assert type(x) is int and 0 <= x < field.p, repr(x)
    return values


def _entries(field, M):
    return [_scalars(field, row) for row in M.data]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 3), st.sampled_from(["Q", 5, 7, 2**31 - 1]))
def test_kernels_agree_with_reference_fields(seed, nrows, ncols, k, key):
    rng = random.Random(seed)
    field = QQ if key == "Q" else PrimeField(key)
    F = _FractionQQ() if key == "Q" else _ReducingGF(key)

    def pair(r, c):
        raw = _random_entries(rng, r, c)
        return (Mat(field, [[field.of(x) for x in row] for row in raw],
                    ncols=c),
                [[F.of(x) for x in row] for row in raw])

    A, a = pair(nrows, ncols)
    B, b = pair(ncols, k)
    C, c = pair(nrows, ncols)
    assert _entries(field, A.mul(B)) == _ref_mul(F, a, b, k)
    assert _entries(field, A.add(C)) == [[F.add(x, y) for x, y in zip(r, s)]
                                         for r, s in zip(a, c)]
    scale = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    assert _entries(field, A.scale(scale)) == \
        [[F.mul(F.of(scale), x) for x in r] for r in a]

    R, pivots = A.rref()
    ref_R, ref_pivots = _ref_rref(F, a, ncols)
    assert _entries(field, R) == ref_R and list(pivots) == ref_pivots
    # the null vectors are the reference kernel's columns
    assert [_scalars(field, v) for v in A._null_vectors()] == \
        [list(col) for col in zip(*_ref_kernel(F, a, ncols))]
    # rows v with v A = 0: the reference kernel of the transpose, as rows
    at = [list(col) for col in zip(*a)]
    assert _entries(field, A.left_kernel_basis()) == \
        [list(row) for row in zip(*_ref_kernel(F, at, nrows))]

    rhs, ref_rhs = pair(nrows, k)
    x = A.solve(rhs)
    ref_x = _ref_solve(F, a, ref_rhs, ncols, k)
    assert (x is None) == (ref_x is None)
    if x is not None:
        assert _entries(field, x) == ref_x

    S, s = pair(nrows, nrows)
    eye = [[F.one() if i == j else F.zero() for j in range(nrows)]
           for i in range(nrows)]
    ref_inv = _ref_solve(F, s, eye, nrows, nrows)
    if ref_inv is None:
        with pytest.raises(ValueError, match="singular"):
            S.inverse()
    else:
        assert _entries(field, S.inverse()) == ref_inv

    # coordinates over the rows Echelon keeps: unique, as those rows are
    # independent; A's own rows lie in their span
    ech = Echelon(A)
    kept = [row for i, row in enumerate(a)
            if len(_ref_rref(F, a[:i + 1], ncols)[1])
            > len(_ref_rref(F, a[:i], ncols)[1])]
    cols = [list(col) for col in zip(*kept)] if kept else \
        [[] for _ in range(ncols)]
    for vec, ref_vec in ((A, a), (C, c), pair(1, ncols)):
        for row, ref_row in zip(vec.data, ref_vec):
            comb = ech.coords(row)
            ref = _ref_solve(F, cols, [[y] for y in ref_row], len(kept), 1)
            assert (comb is None) == (ref is None)
            if comb is not None:
                _scalars(field, comb.values())
                assert set(comb) <= set(range(len(kept)))
                assert [comb.get(g, 0) for g in range(len(kept))] == \
                    [r[0] for r in ref]

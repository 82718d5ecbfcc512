"""Field and matrix layer: frozen values plus rank/kernel properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.linalg import (
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
    assert f.mul(2, f.inv(2)) == 1
    assert f.mul(1048588, f.inv(1048588)) == 1
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
    k = m.kernel_basis()
    assert (k.nrows, k.ncols) == (2, 1)
    assert k[0, 0] == 1 and k[1, 0] == 1
    assert m.mul(k).is_zero()


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


def test_charpoly_known():
    m = Mat.from_rows(QQ, [[0, 1], [0, 0]])
    # t^2
    assert m.charpoly() == [Fraction(0), Fraction(0), Fraction(1)]
    m2 = Mat.from_rows(QQ, [[2, 0], [0, 3]])
    # (t-2)(t-3) = 6 - 5t + t^2
    assert m2.charpoly() == [Fraction(6), Fraction(-5), Fraction(1)]


def test_charpoly_gf2():
    f2 = PrimeField(2)
    m = Mat.from_rows(f2, [[1, 1], [0, 1]])
    # (t-1)^2 = t^2 + 1 over GF(2)
    assert m.charpoly() == [1, 0, 1]


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
    k = m.kernel_basis()
    assert m.rank() + k.ncols == ncols
    if k.ncols:
        assert m.mul(k).is_zero()
        assert k.rank() == k.ncols


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 4))
def test_charpoly_of_nilpotent_is_power(seed, n):
    rng = random.Random(seed)
    # strictly upper triangular, hence nilpotent: charpoly must be t^n
    rows = [[rng.randrange(5) if j > i else 0 for j in range(n)] for i in range(n)]
    m = Mat.from_rows(QQ, rows)
    cp = m.charpoly()
    assert cp[-1] == 1
    assert all(c == 0 for c in cp[:-1])


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
    results = [m.mul(other), m.transpose(), R, m.kernel_basis(),
               m.row_space_basis(), Mat.zeros(field, nrows, ncols),
               Mat.identity(field, ncols)]
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
    assert m.kernel_basis().nrows == ncols
    assert (consistent.nrows, consistent.ncols) == (ncols, k)

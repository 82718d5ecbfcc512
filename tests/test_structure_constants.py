"""Sparse structure constants of dg and finite algebras.

DgAlgebra.validate and FiniteAlgebra.verify_structure visit only the
basis tuples where a product, or a product with a differential, is
nonzero, through the checks algebra shares between them.  The fixed
tables below put the only failure on a tuple that just one branch of
that support reaches; the property test compares both constructors with
a brute-force reference that checks every basis pair and triple.  The
tables here are dense, mult[(i, j)][a][b], and reach the constructors
through `sparse`.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tiltlab.algebra import Algebra, AlgebraError, FiniteAlgebra, Quiver
from tiltlab.dg import DgAlgebra, DgError
from tiltlab.linalg import Mat, PrimeField, QQ

GF5 = PrimeField(5)


def vec(f, *xs):
    return tuple(f.of(x) for x in xs)


def sparse(mult):
    """Dense tables mult[(i, j)][a][b] in the constructors' sparse format."""
    return {ij: {(a, b): tuple((k, c) for k, c in enumerate(v) if c)
                 for a, row in enumerate(t) for b, v in enumerate(row)
                 if any(v)}
            for ij, t in mult.items()}


def one_sided_table(f):
    """Unit u, and x, y with xx = 0, xy = y, yx = yy = 0.

    The only non-associative triple is (x, x, y): xx = 0 but
    x(xy) = y.
    """
    u, x, y = vec(f, 1, 0, 0), vec(f, 0, 1, 0), vec(f, 0, 0, 1)
    z = vec(f, 0, 0, 0)
    return [[u, x, y],
            [x, z, y],
            [y, z, z]]


def test_associativity_failure_with_zero_left_product_is_found():
    table = one_sided_table(QQ)
    unit = vec(QQ, 1, 0, 0)
    with pytest.raises(DgError, match="associative"):
        DgAlgebra(QQ, {0: 3}, {}, sparse({(0, 0): table}), unit, [unit])
    with pytest.raises(AlgebraError, match="associativity"):
        FiniteAlgebra(QQ, sparse({(0, 0): table}), unit, [unit])


def test_leibniz_failure_on_a_zero_product_is_found():
    # degree 0: u (unit), e1, a with e1 a = a, a e1 = 0 (upper triangular
    # 2x2 matrices); degree -1: t with u t = t u = t and every other
    # product zero; d(t) = a.  Leibniz holds on every pair except
    # (e1, t): e1 t = 0 and d(e1) = 0, but e1 d(t) = a.
    f = QQ
    u, e1, a = vec(f, 1, 0, 0), vec(f, 0, 1, 0), vec(f, 0, 0, 1)
    z0, t, z1 = vec(f, 0, 0, 0), vec(f, 1), vec(f, 0)
    mult = {
        (0, 0): [[u, e1, a], [e1, e1, a], [a, z0, z0]],
        (0, -1): [[t], [z1], [z1]],
        (-1, 0): [[t, z1, z1]],
    }
    d = {-1: Mat(f, [list(a)])}
    idems = [e1, vec(f, 1, -1, 0)]
    with pytest.raises(DgError, match="Leibniz"):
        DgAlgebra(f, {0: 3, -1: 1}, d, sparse(mult), u, idems)
    # with d(t) = 0 the same algebra is valid
    DgAlgebra(f, {0: 3, -1: 1}, {}, sparse(mult), u, idems)


def test_misshapen_tables_are_rejected():
    # a sparse table may hold only nonzero products, by the nonzero
    # coordinates of their degree, on basis indices inside dims
    good = sparse({(0, 0): one_sided_table(QQ)})[(0, 0)]
    unit = vec(QQ, 1, 0, 0)
    one = QQ.one()
    cases = [
        ({(0, 0): {**good, (3, 0): ((0, one),)}}, "outside 3 x 3"),
        ({(0, 0): good, (0, -1): {(0, 0): ((0, one),)}}, "outside 3 x 0"),
        ({(0, 0): {**good, (2, 0): ((3, one),)}}, "outside degree 0"),
        ({(0, 0): {**good, (2, 0): ((2, one), (2, one))}}, "twice"),
        ({(0, 0): {**good, (2, 0): ((2, QQ.zero()),)}}, "zero"),
        ({(0, 0): {**good, (2, 0): ()}}, "zero"),
    ]
    for bad, msg in cases:
        with pytest.raises(AlgebraError, match=msg):
            FiniteAlgebra(QQ, bad, unit, [unit])
        with pytest.raises(DgError, match=msg):
            DgAlgebra(QQ, {0: 3}, {}, bad, unit, [unit])


# ---- brute-force reference ----

def ref_product(f, mult, dims, i, x, j, y):
    out = [f.zero()] * dims.get(i + j, 0)
    t = mult.get((i, j))
    if t is None:
        return tuple(out)
    for a, ca in enumerate(x):
        for b, cb in enumerate(y):
            for k, c in enumerate(t[a][b]):
                out[k] = f.norm(out[k] + ca * cb * c)
    return tuple(out)


def ref_d(f, d, dims, i, x):
    out = [f.zero()] * dims.get(i + 1, 0)
    for a, ca in enumerate(x):
        for k, c in enumerate(d[i][a] if i in d else ()):
            out[k] = f.norm(out[k] + ca * c)
    return tuple(out)


def ref_unit_vec(f, n, k):
    return tuple(f.one() if t == k else f.zero() for t in range(n))


def ref_dg_failure(f, dims, d, mult, unit, idems):
    """The first check a dg algebra fails, over all basis tuples."""
    degs = sorted(dims)
    zero = f.zero()
    for k in d:
        if k + 1 in d:
            for a in range(dims[k]):
                row = ref_unit_vec(f, dims[k], a)
                if any(ref_d(f, d, dims, k + 1, ref_d(f, d, dims, k, row))):
                    return "square"
    for i in degs:
        for j in degs:
            sgn = f.one() if i % 2 == 0 else f.norm(-1)
            for a in range(dims[i]):
                x = ref_unit_vec(f, dims[i], a)
                for b in range(dims[j]):
                    y = ref_unit_vec(f, dims[j], b)
                    lhs = ref_d(f, d, dims, i + j,
                                ref_product(f, mult, dims, i, x, j, y))
                    t1 = ref_product(f, mult, dims, i + 1,
                                     ref_d(f, d, dims, i, x), j, y)
                    t2 = ref_product(f, mult, dims, i, x, j + 1,
                                     ref_d(f, d, dims, j, y))
                    rhs = tuple(f.norm(p + sgn * q)
                                for p, q in zip(t1, t2))
                    if lhs != rhs:
                        return "Leibniz"
    for i in degs:
        for j in degs:
            for k in degs:
                for a in range(dims[i]):
                    x = ref_unit_vec(f, dims[i], a)
                    for b in range(dims[j]):
                        y = ref_unit_vec(f, dims[j], b)
                        for c in range(dims[k]):
                            w = ref_unit_vec(f, dims[k], c)
                            xy = ref_product(f, mult, dims, i, x, j, y)
                            yw = ref_product(f, mult, dims, j, y, k, w)
                            if ref_product(f, mult, dims, i + j, xy, k, w) \
                                    != ref_product(f, mult, dims, i, x,
                                                   j + k, yw):
                                return "associative"
    if any(ref_d(f, d, dims, 0, unit)):
        return "cycle"
    for i in degs:
        for a in range(dims[i]):
            x = ref_unit_vec(f, dims[i], a)
            if ref_product(f, mult, dims, 0, unit, i, x) != x:
                return "left"
            if ref_product(f, mult, dims, i, x, 0, unit) != x:
                return "right"
    acc = [zero] * dims[0]
    for s, e in enumerate(idems):
        for t, e2 in enumerate(idems):
            want = e if s == t else (zero,) * dims[0]
            if ref_product(f, mult, dims, 0, e, 0, e2) != tuple(want):
                return "orthogonal"
        acc = [f.norm(p + q) for p, q in zip(acc, e)]
    if tuple(acc) != tuple(unit):
        return "sum"
    return None


def ref_finite_failure(f, table, unit, idems):
    """The first check a finite algebra fails, over all basis tuples."""
    n = len(table)
    dims, mult = {0: n}, {(0, 0): table}

    def mul(x, y):
        return ref_product(f, mult, dims, 0, x, 0, y)

    for i in range(n):
        x = ref_unit_vec(f, n, i)
        if mul(unit, x) != x or mul(x, unit) != x:
            return "unit"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, w = (ref_unit_vec(f, n, t) for t in (i, j, k))
                if mul(mul(x, y), w) != mul(x, mul(y, w)):
                    return "associativity"
    for e in idems:
        if mul(e, e) != e:
            return "idempotent is not"
    for s, e in enumerate(idems):
        for t, e2 in enumerate(idems):
            if s != t and any(mul(e, e2)):
                return "orthogonal"
    acc = [f.zero()] * n
    for e in idems:
        acc = [f.norm(p + q) for p, q in zip(acc, e)]
    if tuple(acc) != tuple(unit):
        return "sum"
    return None


MESSAGES = {
    "square": "square to zero", "Leibniz": "Leibniz",
    "associative": "associative", "cycle": "cycle",
    "left": "on the left", "right": "on the right",
    "orthogonal": "orthogonal", "sum": "sum to the unit",
    "unit": "unit fails", "associativity": "associativity",
    "idempotent is not": "not idempotent",
}


@st.composite
def graded_tables(draw):
    """A unit u plus a few elements in degrees 0, -1, -2, with sparse
    random products and differentials over QQ or GF(5)."""
    f = draw(st.sampled_from([QQ, GF5]))
    dims = {0: draw(st.integers(1, 3)), -1: draw(st.integers(0, 2)),
            -2: draw(st.integers(0, 1))}
    dims = {k: n for k, n in dims.items() if n}
    coef = st.sampled_from([1, 1, 2, -1])

    def entries(density):
        def entry():
            return f.of(draw(coef)) if draw(st.integers(0, 9)) < density \
                else f.zero()
        return entry

    # products and differentials are sparse independently of each other
    entry = entries(draw(st.sampled_from([0, 1, 3])))
    d_entry = entries(draw(st.sampled_from([0, 1, 3])))

    mult = {}
    for i in dims:
        for j in dims:
            w = dims.get(i + j, 0)
            if not w:
                continue
            t = []
            for a in range(dims[i]):
                row = []
                for b in range(dims[j]):
                    if i == 0 and a == 0:
                        row.append(ref_unit_vec(f, w, b))
                    elif j == 0 and b == 0:
                        row.append(ref_unit_vec(f, w, a))
                    else:
                        row.append(tuple(entry() for _ in range(w)))
                t.append(row)
            mult[(i, j)] = t
    d = {}
    for k in (-2, -1):
        if k in dims and k + 1 in dims:
            d[k] = [[d_entry() for _ in range(dims[k + 1])]
                    for _ in range(dims[k])]
    unit = ref_unit_vec(f, dims[0], 0)
    if draw(st.integers(0, 5)) == 0:
        unit = tuple(f.norm(c + entry()) for c in unit)
    idems = [unit]
    if draw(st.booleans()) and dims[0] > 1:
        e = ref_unit_vec(f, dims[0], 1)
        idems = [e, tuple(f.norm(p - q) for p, q in zip(unit, e))]
    return f, dims, d, mult, unit, idems


@st.composite
def triangular_tables(draw):
    """Upper or lower triangular 2x2 matrices (u, e1, a) in degree 0 and
    one element t in degree -1, with e1 t, t e1 and d(t) drawn at random.
    A Leibniz failure here often sits only on a pair with a zero
    product, where just one of d(a) b and a d(b) is nonzero."""
    f = draw(st.sampled_from([QQ, GF5]))
    u, e1, a = vec(f, 1, 0, 0), vec(f, 0, 1, 0), vec(f, 0, 0, 1)
    z0, t, z1 = vec(f, 0, 0, 0), vec(f, 1), vec(f, 0)
    e1a, ae1 = (a, z0) if draw(st.booleans()) else (z0, a)

    def t_or_zero():
        return t if draw(st.booleans()) else z1

    mult = {
        (0, 0): [[u, e1, a], [e1, e1, e1a], [a, ae1, z0]],
        (0, -1): [[t], [t_or_zero()], [z1]],
        (-1, 0): [[t, t_or_zero(), z1]],
    }
    d = {-1: [[f.of(draw(st.sampled_from([0, 0, 1, 2]))) for _ in range(3)]]}
    idems = [e1, tuple(f.norm(p - q) for p, q in zip(u, e1))]
    return f, {0: 3, -1: 1}, d, mult, u, idems


@st.composite
def nilpotent_tables(draw):
    """A unit u and a radical r_1..r_n in degree 0 whose products r_a r_b
    are random combinations of the r_k with k > max(a, b).  Associativity
    here often fails on one triple x, y, z only, with xy and yz both
    nonzero, which only one partner set of the support-restricted check
    reaches."""
    f = draw(st.sampled_from([QQ, GF5]))
    n = draw(st.integers(2, 3)) + 1
    coef = st.sampled_from([0, 0, 1, 2, -1])
    table = [[ref_unit_vec(f, n, b) for b in range(n)]]
    for a in range(1, n):
        row = [ref_unit_vec(f, n, a)]
        for b in range(1, n):
            row.append(tuple(f.of(draw(coef)) if k > max(a, b) else f.zero()
                             for k in range(n)))
        table.append(row)
    unit = ref_unit_vec(f, n, 0)
    return f, {0: n}, {}, {(0, 0): table}, unit, [unit]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(graded_tables(), triangular_tables(), nilpotent_tables()))
def test_support_restricted_checks_match_brute_force(case):
    f, dims, d, mult, unit, idems = case
    want = ref_dg_failure(f, dims, d, mult, unit, idems)
    mats = {k: Mat(f, rows, ncols=dims[k + 1]) for k, rows in d.items()}
    if want is None:
        DgAlgebra(f, dims, mats, sparse(mult), unit, idems)
    else:
        with pytest.raises(DgError, match=MESSAGES[want]):
            DgAlgebra(f, dims, mats, sparse(mult), unit, idems)
    table = mult[(0, 0)]
    want = ref_finite_failure(f, table, unit, idems)
    if want is None:
        FiniteAlgebra(f, sparse({(0, 0): table}), unit, idems)
    else:
        with pytest.raises(AlgebraError, match=MESSAGES[want]):
            FiniteAlgebra(f, sparse({(0, 0): table}), unit, idems)


# ---- the shared unit and idempotent checks against the reference ----

def dense(f, block, n):
    """A degree-zero sparse table as the dense table[a][b]."""
    return [[tuple(dict(block.get((a, b), ())).get(k, f.zero())
                   for k in range(n)) for b in range(n)] for a in range(n)]


def unital_cases():
    """(field, dense table, unit, idempotents) of valid algebras: path
    algebras, the Kronecker algebra, dual numbers over GF(5), and the 2x2
    upper triangular matrices in a basis not adapted to e11, e22."""
    a2 = Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])
    a3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 2, 1)]), [])
    kron = Algebra(GF5, Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [])
    dual = Algebra(GF5, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]],
                   nilpotency_bound=2)
    out = [(A.field, dense(A.field, A.products[(0, 0)], A.dim), A.one(),
            [A.idempotent(v) for v in range(A.quiver.n)])
           for A in (a2, a3, kron, dual)]
    u, e1, a = vec(QQ, 1, 0, 0), vec(QQ, 0, 1, 0), vec(QQ, 0, 0, 1)
    z = vec(QQ, 0, 0, 0)
    out.append((QQ, [[u, e1, a], [e1, e1, a], [a, z, z]], u,
                [e1, vec(QQ, 1, -1, 0)]))
    return out


@pytest.mark.parametrize("case", range(5))
def test_unit_checks_match_the_reference_loops(case):
    """Change a coordinate of the unit or of an idempotent, drop an
    idempotent or merge two; FiniteAlgebra and DgAlgebra must report
    the failure their reference loops find first, or accept."""
    f, table, unit, idems = unital_cases()[case]
    n = len(unit)
    rng = random.Random(case)
    joined = tuple(f.norm(p + q) for p, q in zip(idems[0], idems[-1]))
    variants = [(unit, idems), (unit, idems[1:]),
                (unit, [joined] + idems[1:-1])]
    for _ in range(30):
        u, es = list(unit), [list(e) for e in idems]
        target = rng.choice([u] + es)
        k = rng.randrange(n)
        target[k] = f.norm(target[k] + f.of(rng.choice([1, 2, -1])))
        variants.append((tuple(u), [tuple(e) for e in es]))
    seen = set()
    for u, es in variants:
        want = ref_finite_failure(f, table, u, es)
        seen.add(want)
        if want is None:
            FiniteAlgebra(f, sparse({(0, 0): table}), u, es)
        else:
            with pytest.raises(AlgebraError, match=MESSAGES[want]):
                FiniteAlgebra(f, sparse({(0, 0): table}), u, es)
        want = ref_dg_failure(f, {0: n}, {}, {(0, 0): table}, u, es)
        if want is None:
            DgAlgebra(f, {0: n}, {}, sparse({(0, 0): table}), u, es)
        else:
            with pytest.raises(DgError, match=MESSAGES[want]):
                DgAlgebra(f, {0: n}, {}, sparse({(0, 0): table}), u, es)
    assert seen >= {None, "unit", "idempotent is not", "sum"}

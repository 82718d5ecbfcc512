"""Tests for minimal models and the dual bar construction.

The reference numbers come from two independent directions: graded
dimensions of derived hom spaces (computable by resolutions alone) and
the cohomology of the truncated endomorphism algebra from the cone
side.  The two pipelines share no code past the complex layer, so
agreement here is a real cross-check.
"""

import random
from copy import copy
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.algebra import Algebra, Quiver, sparse_product
from tiltlab.ainfinity import (
    AInfAlgebra,
    AInfError,
    ContractionFailure,
    PositivityViolation,
    collection_ext_model,
    dual_bar_dg,
    kadeishvili_minimal_model,
)
from tiltlab.complexes import Summand, minimize, stalk_complex
from tiltlab.derived import resolve_complex
from tiltlab.dg import DgAlgebra, endomorphism_dg_algebra, gamma_tilde
from tiltlab.linalg import QQ, Mat
from tiltlab.tilting import check_tilting, nu_inverse_complex

A2 = Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])
A3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
A3R = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]),
              [[(1, ["a", "b"])]])
A4C = Algebra(QQ, Quiver(4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)]),
              [[(1, ["a", "b", "c"])]])
KK = Algebra(QQ, Quiver(2, []), [])
DUAL = Algebra(QQ, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]],
               nilpotency_bound=2)


def q(n):
    return QQ.of(n)


# m_2 of the unit e and one degree-one loop x at one vertex: ex = xe = x
LOOP = {2: {(0, 0): {(0, 0): ((0, q(1)),)},
            (0, 1): {(0, 0): ((0, q(1)),)},
            (1, 0): {(0, 0): ((0, q(1)),)}}}


def S(A, v, deg=0):
    return stalk_complex(A, Summand("S", v), deg)


def P(A, v, deg=0):
    return stalk_complex(A, Summand("P", v), deg)


def ext_dg(objects):
    return endomorphism_dg_algebra(
        [resolve_complex(X).complex for X in objects])


# ---- homotopy transfer ----

def test_transfer_on_the_simple_pair():
    X = collection_ext_model([S(A2, 0), S(A2, 1)], arity_cap=4)
    assert X.dims == {0: 2, 1: 1}
    assert X.positive
    assert all(n <= 2 for n in X.ops)
    assert X.tags == {0: [(0, 0), (1, 1)], 1: [(1, 0)]}
    E = ext_dg([S(A2, 0), S(A2, 1)])
    assert E.cohomology_dims() == X.dims


def test_transfer_is_strictly_unital():
    X = collection_ext_model([S(A2, 0), S(A2, 1)], arity_cap=4)
    one = X.unit
    for k in X.degrees():
        for a in range(X.dim_at(k)):
            x = {a: q(1)}
            assert sparse_product(QQ, X.ops[2], 0, one, k, x.items()) == x
            assert sparse_product(QQ, X.ops[2], k, x.items(), 0, one) == x


def test_transfer_degree_parity_kills_higher_operations():
    for objs in ([S(A2, 0), S(A2, 1)], [P(A2, 0), S(A2, 1, -1)]):
        X = collection_ext_model(objs, arity_cap=4)
        assert all(n <= 2 for n in X.ops)


def test_transfer_on_the_shifted_pair():
    X = collection_ext_model([S(A2, 1), S(A2, 0, -1)], arity_cap=4)
    assert X.dims == {0: 2, 2: 1}
    assert X.positive


def test_transfer_finds_the_triple_product():
    X = collection_ext_model([S(A4C, i) for i in range(4)], arity_cap=4)
    assert X.dims == {0: 4, 1: 3, 2: 1}
    assert X.positive
    assert sorted(X.ops) == [2, 3]
    # the only arity-3 operation composes the three arrow classes
    assert list(X.ops[3]) == [(1, 1, 1)]
    assert X.ops[3][(1, 1, 1)] == {(2, 1, 0): ((0, q(-1)),)}


def test_transfer_dims_match_cohomology_on_random_collections():
    rng = random.Random(3)
    for _ in range(8):
        A = rng.choice([A2, A3])
        objs = []
        for _ in range(rng.randrange(1, 3)):
            v = rng.randrange(A.quiver.n)
            kind = rng.choice(["S", "P"])
            deg = rng.randrange(-1, 2)
            objs.append(stalk_complex(A, Summand(kind, v), deg))
        X = collection_ext_model(objs, arity_cap=3)
        E = ext_dg(objs)
        assert E.cohomology_dims() == X.dims


def test_validation_rejects_broken_structures():
    # the product of the idempotent with itself is zero
    with pytest.raises(AInfError, match="adapted"):
        AInfAlgebra(QQ, {0: 1}, {}, [(q(1),)], 2)
    # both idempotents fix the basis element, so they cannot be orthogonal
    with pytest.raises(AInfError, match="orthogonal"):
        AInfAlgebra(QQ, {0: 1}, {2: {(0, 0): {(0, 0): ((0, q(1)),)}}},
                    [(q(1),), (q(1),)], 2)
    X = collection_ext_model([S(A4C, i) for i in range(4)], arity_cap=4)
    bad_ops = {n: dict(t) for n, t in X.ops.items()}
    bad_ops[3] = {(1, 1, 1): {(0, 2, 1): ((0, q(1)),)}}  # does not chain
    with pytest.raises(AInfError, match="chain"):
        AInfAlgebra(X.field, X.dims, bad_ops, X.idempotents, 4)
    with pytest.raises(AInfError, match="outside degree 2"):
        AInfAlgebra(X.field, X.dims, {**X.ops, 3: {(1, 1, 1): {
            (2, 1, 0): ((1, q(1)),)}}}, X.idempotents, 4)
    with pytest.raises(AInfError, match="wrong arity"):
        AInfAlgebra(X.field, X.dims, {**X.ops, 3: {(1, 1): {
            (1, 0): ((0, q(1)),)}}}, X.idempotents, 4)
    # m_3 with the unit as an argument
    with pytest.raises(AInfError, match="degree-zero part"):
        AInfAlgebra(QQ, {0: 1, 1: 1}, {**LOOP, 3: {(0, 1, 1): {
            (0, 0, 0): ((0, q(1)),)}}}, [(q(1),)], 3)


# ---- the pruned Stasheff check against every chaining tuple ----

def chaining_keys(X, n):
    """Every basis tuple of length n that chains along the tags."""
    refs = [(k, a) for k in X.degrees() for a in range(X.dim_at(k))]
    keys = [()]
    for _ in range(n):
        keys = [w + (r,) for w in keys for r in refs
                if not w or X.right_tag(*w[-1]) == X.left_tag(*r)]
    return keys


def ref_stasheff_defect(X, n):
    """The first chaining basis tuple, in lexicographic order, where the
    arity-n identity fails, with its nonzero coordinates; dense vectors
    over every tuple and every inserted letter."""
    f = X.field

    def b(key):
        m = len(key)
        out = [f.zero()] * X.dim_at(sum(d for d, _ in key) + 2 - m)
        val = X.ops.get(m, {}).get(tuple(d for d, _ in key), {}).get(
            tuple(a for _, a in key), ())
        sign = f.of((-1) ** sum((m - 1 - t) * d
                                for t, (d, _) in enumerate(key)))
        for k, c in val:
            out[k] = f.norm(sign * c)
        return out

    for key in chaining_keys(X, n):
        acc = [f.zero()] * X.dim_at(sum(d for d, _ in key) + 3 - n)
        for k in range(2, n):
            for t in range(n - k + 1):
                inner = b(key[t:t + k])
                deg = sum(d for d, _ in key[t:t + k]) + 2 - k
                sign = f.of((-1) ** sum(d - 1 for d, _ in key[:t]))
                for a, c in enumerate(inner):
                    outer = b(key[:t] + ((deg, a),) + key[t + k:])
                    acc = [f.norm(x + sign * c * y)
                           for x, y in zip(acc, outer)]
        if any(acc):
            return key, {k: c for k, c in enumerate(acc) if c}
    return None


@lru_cache(maxsize=None)
def random_model(seed):
    """The minimal model of a small random collection of stalks."""
    rng = random.Random(seed)
    A = rng.choice([A2, A3, A3R, A4C])
    if rng.random() < 0.5:
        objs = [S(A, v, rng.choice([0, -1])) for v in range(A.quiver.n)]
    else:
        objs = [stalk_complex(A, Summand(rng.choice("SP"),
                                         rng.randrange(A.quiver.n)),
                              rng.randrange(-1, 2))
                for _ in range(rng.randrange(1, 4))]
    return collection_ext_model(objs, arity_cap=rng.choice([3, 4]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stasheff_defect_matches_every_chaining_tuple(data):
    X = random_model(data.draw(st.integers(0, 11), label="model"))
    f = X.field
    ops = {n: {degs: dict(block) for degs, block in t.items()}
           for n, t in X.ops.items()}
    # add a nonzero multiple of one coordinate that stays in its corner
    for _ in range(data.draw(st.integers(0, 3), label="perturbations")):
        n = data.draw(st.integers(2, X.arity_cap), label="arity")
        keys = chaining_keys(X, n)
        if not keys:
            continue
        key = data.draw(st.sampled_from(keys), label="key")
        out = sum(d for d, _ in key) + 2 - n
        corner = (X.left_tag(*key[0]), X.right_tag(*key[-1]))
        targets = [k for k in range(X.dim_at(out))
                   if X.tags[out][k] == corner]
        if not targets:
            continue
        k = data.draw(st.sampled_from(targets), label="coordinate")
        delta = f.of(data.draw(st.sampled_from([1, -1, 2]), label="delta"))
        degs, idx = tuple(d for d, _ in key), tuple(a for _, a in key)
        block = ops.setdefault(n, {}).setdefault(degs, {})
        coords = dict(block.get(idx, ()))
        coords[k] = f.norm(coords.get(k, f.zero()) + delta)
        block[idx] = tuple((j, c) for j, c in sorted(coords.items()) if c)
        if not block[idx]:
            del block[idx]
    Y = copy(X)
    Y.ops = ops
    for n in range(3, X.arity_cap + 2):
        assert Y.stasheff_defect(n) == ref_stasheff_defect(Y, n), n


def test_transfer_of_a_single_simple():
    model = kadeishvili_minimal_model(ext_dg([S(A2, 0)]), arity_cap=3)
    assert model.dims == {0: 1}
    assert model.tags == {0: [(0, 0)]}


def test_transfer_refuses_contractible_idempotents():
    # the second idempotent bounds, so no basis of representatives
    # can contain it
    f = QQ
    E = DgAlgebra(
        f, {0: 2, -1: 1}, {-1: Mat(f, [[q(0), q(1)]])},
        {(0, 0): {(0, 0): ((0, q(1)),), (1, 1): ((1, q(1)),)},
         (0, -1): {(1, 0): ((0, q(1)),)},
         (-1, 0): {(0, 1): ((0, q(1)),)}},
        (q(1), q(1)), [(q(1), q(0)), (q(0), q(1))])
    with pytest.raises(ContractionFailure):
        kadeishvili_minimal_model(E, arity_cap=3)


# ---- the dual bar construction ----

def test_dual_bar_of_the_simple_pair():
    X = collection_ext_model([S(A2, 0), S(A2, 1)], arity_cap=4)
    db = dual_bar_dg(X, degree_window=3, tensor_cap=5)
    assert db.algebra.dims == {0: 3}
    assert db.h_dims == {-3: 0, -2: 0, -1: 0, 0: 3}
    assert db.certified == [-3, -2, -1, 0]
    assert not db.truncated


def test_dual_bar_of_the_shifted_pair():
    X = collection_ext_model([S(A2, 1), S(A2, 0, -1)], arity_cap=4)
    db = dual_bar_dg(X, degree_window=3, tensor_cap=5)
    assert db.h_dims == {-3: 0, -2: 0, -1: 1, 0: 2}


def test_dual_bar_semisimple():
    X = collection_ext_model([S(KK, 0), S(KK, 1)], arity_cap=3)
    db = dual_bar_dg(X, degree_window=2, tensor_cap=3)
    assert db.h_dims == {-2: 0, -1: 0, 0: 2}
    assert not db.truncated


def test_dual_bar_with_a_triple_product():
    X = collection_ext_model([S(A4C, i) for i in range(4)], arity_cap=4)
    db = dual_bar_dg(X, degree_window=3, tensor_cap=6)
    assert db.h_dims[0] == A4C.dim
    assert db.h_dims[-1] == 0
    assert not db.truncated
    # the differential is nonzero: it pairs the length-three word of
    # arrow duals against the triple product
    assert any(not m.is_zero() for m in db.algebra.d.values())


def test_dual_bar_certification_is_honest_on_loops():
    # one degree-one letter on a loop: its dual has shifted degree
    # zero, so words of every length pile up in dual degree zero
    X = AInfAlgebra(QQ, {0: 1, 1: 1}, LOOP, [(q(1),)], 3)
    assert X.positive
    db = dual_bar_dg(X, degree_window=3, tensor_cap=4)
    assert db.truncated
    assert 0 not in db.certified and -1 not in db.certified
    assert -2 in db.certified and db.h_dims[-2] == 0
    assert db.algebra.dim_at(0) == 1 + 4


def test_dual_bar_needs_positivity():
    # the dual numbers: x spans degree zero beside the idempotent
    dual = {2: {(0, 0): {(0, 0): ((0, q(1)),), (0, 1): ((1, q(1)),),
                         (1, 0): ((1, q(1)),)}}}
    X = AInfAlgebra(QQ, {0: 2}, dual, [(q(1), q(0))], 2)
    assert not X.positive
    with pytest.raises(PositivityViolation):
        dual_bar_dg(X)


def test_dual_bar_product_signs():
    # a: 0 -> 1, b: 1 -> 0 with ab = 0: the Ext letters have odd shifted
    # degree, so concatenating two words of odd length carries a -1; a
    # product that always carried +1 breaks the Leibniz rule here
    A = Algebra(QQ, Quiver(2, [("a", 0, 1), ("b", 1, 0)]),
                [[(1, ["a", "b"])]], nilpotency_bound=3)
    assert A.dim == 5
    X = collection_ext_model([S(A, 0), S(A, 1)], arity_cap=4)
    db = dual_bar_dg(X, degree_window=3, tensor_cap=6)
    coords = [c for block in db.algebra.mult.values()
              for val in block.values() for _, c in val]
    assert (sum(c == -1 for c in coords), len(coords)) == (63, 484)


def test_collection_model_refuses_endless_resolutions():
    with pytest.raises(AInfError, match="did not terminate"):
        collection_ext_model([S(DUAL, 0)], arity_cap=3)


# ---- the two pipelines agree ----

def gamma_route_h_dims(objs, window=2):
    res = check_tilting(objs, window=window)
    pieces = [minimize(nu_inverse_complex(r.complex)).complex
              for r in res["runs"]]
    _, h = gamma_tilde(pieces)
    return h


def test_koszul_cross_check_on_three_collections():
    cases = [
        [S(A2, 0), S(A2, 1)],
        [P(A2, 0), S(A2, 1, -1)],
        [S(A2, 1), S(A2, 0, -1)],
    ]
    for objs in cases:
        h_gamma = gamma_route_h_dims(objs)
        X = collection_ext_model(objs, arity_cap=4)
        db = dual_bar_dg(X, degree_window=3, tensor_cap=6)
        for m in db.certified:
            assert db.h_dims[m] == h_gamma.get(m, 0), (objs, m)

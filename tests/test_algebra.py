"""Path algebra layer: worked small algebras frozen as fixtures."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.algebra import (
    Algebra,
    AlgebraError,
    FiniteAlgebra,
    Module,
    ModuleMap,
    Quiver,
    direct_sum_modules,
    dual_module,
    hom_basis,
    indec_iso,
    is_self_injective,
    kernel_module,
    map_placement,
    map_slice,
    nakayama_permutation,
    projective_cover,
    sub_module,
    top_data,
)
from tiltlab.linalg import Mat, PrimeField, QQ
from tiltlab.reporting import algebra_presentation, parse_job

from test_direct_sums import dense_arrow, dense_blocks, from_dense


def a2(field=QQ):
    # 1 --a--> 2
    return Algebra(field, Quiver(2, [("a", 0, 1)]), [])


def dual_numbers(field=QQ):
    # one vertex, loop x, x^2 = 0
    return Algebra(field, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]],
                   nilpotency_bound=2)


def cartan_counts(A):
    """C[i][j] = dim e_i A e_j, counted over the path basis."""
    n = A.quiver.n
    C = [[0] * n for _ in range(n)]
    for i in range(A.dim):
        C[A.basis_source(i)][A.basis_target(i)] += 1
    return C


def nakayama_two(field=QQ):
    # 1 <--> 2 with ab = ba = 0
    q = Quiver(2, [("a", 0, 1), ("b", 1, 0)])
    return Algebra(field, q, [[(1, ["a", "b"])], [(1, ["b", "a"])]],
                   nilpotency_bound=2)


def a4_cubic(field=QQ):
    # 1 -a-> 2 -b-> 3 -c-> 4 with abc = 0
    q = Quiver(4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)])
    return Algebra(field, q, [[(1, ["a", "b", "c"])]])


def test_a2_basics():
    A = a2()
    assert A.dim == 3
    assert cartan_counts(A) == [[1, 1], [0, 1]]
    names = {A.basis_name(i) for i in range(A.dim)}
    assert names == {"e1", "e2", "a"}
    # e1 * a = a, a * e2 = a, a * a = 0 (not composable)
    e1, a = A.idempotent(0), A.arrow_elem("a")
    assert A.mult(e1, a) == a
    assert A.mult(a, A.idempotent(1)) == a
    assert A.mult(a, a) == (QQ.zero(),) * A.dim


def test_a2_projectives_injectives():
    A = a2()
    P0, P1 = A.projective(0), A.projective(1)
    assert P0.dims == (1, 1)
    assert P1.dims == (0, 1)
    I0, I1 = A.injective(0), A.injective(1)
    assert I0.dims == (1, 0)
    assert I1.dims == (1, 1)
    S0 = A.simple(0)
    assert indec_iso(I0, S0)
    assert indec_iso(P0, I1)
    assert not indec_iso(P0, P1)
    for M in (P0, P1, I0, I1, S0):
        M.validate()


def test_a2_hom_dimensions():
    A = a2()
    P0, P1 = A.projective(0), A.projective(1)
    assert len(hom_basis(P0, P0)) == 1
    assert len(hom_basis(P0, P1)) == 0
    assert len(hom_basis(P1, P0)) == 1
    assert len(hom_basis(A.simple(0), A.simple(1))) == 0
    assert len(hom_basis(P0, A.simple(0))) == 1


def test_module_validate_rejects_bad_action():
    A = dual_numbers()
    with pytest.raises(AlgebraError):
        Module(A, (1,), {0: Mat.from_rows(QQ, [[1]])}).validate()


def test_projective_cover_of_simple():
    A = a2()
    verts, P, cover = projective_cover(A.simple(0))
    assert verts == [0]
    assert P.dims == (1, 1)
    # surjective at vertex 1; S_1 is zero at vertex 2, where the cover
    # has no block
    assert cover.block(0).rank() == 1
    assert cover.block(1) is None
    assert cover.commutes()


def test_top_and_radical_quotient():
    A = a2()
    P0 = A.projective(0)
    tops = top_data(P0)
    assert [len(t) for t in tops] == [1, 0]
    # kernel of the cover P0 -> S0 is the radical, here S1
    g = hom_basis(P0, A.simple(0))[0]
    K, inc = kernel_module(g)
    assert K.dims == (0, 1)
    assert inc.commutes()


def test_direct_sum_and_iso_search():
    A = a2()
    M, _ = direct_sum_modules(A, [A.projective(0), A.simple(1)])
    N, _ = direct_sum_modules(A, [A.simple(1), A.projective(0)])
    assert M.dims == N.dims == (1, 2)


def test_dual_numbers_structure():
    A = dual_numbers()
    assert A.dim == 2
    assert A.bound_certified
    assert is_self_injective(A)
    assert nakayama_permutation(A) == [0]


def test_dual_numbers_gf2_symmetric():
    A = dual_numbers(PrimeField(2))
    assert is_self_injective(A)


def test_nakayama_two_self_injective_not_symmetric():
    A = nakayama_two()
    assert A.dim == 4
    assert A.bound_certified
    P0, P1 = A.projective(0), A.projective(1)
    I0, I1 = A.injective(0), A.injective(1)
    assert indec_iso(P0, I1) and indec_iso(P1, I0)
    assert nakayama_permutation(A) == [1, 0]


def test_a4_cubic_dimension():
    A = a4_cubic()
    assert A.dim == 9
    assert cartan_counts(A) == [
        [1, 1, 1, 0],
        [0, 1, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    # abc reduces to zero, ab and bc survive
    ab = A.mult(A.arrow_elem("a"), A.arrow_elem("b"))
    c = A.arrow_elem("c")
    assert A.mult(ab, c) == (QQ.zero(),) * A.dim


def test_opposite_antihom():
    A = nakayama_two()
    op = A.op()
    assert op.dim == A.dim
    for i in range(A.dim):
        x = A._unit_coord(i)
        assert op.to_op(A.to_op(x)) == x
    a, b = A.arrow_elem("a"), A.arrow_elem("b")
    assert A.to_op(A.mult(a, b)) == op.mult(op.arrow_elem("b"), op.arrow_elem("a"))


def test_dual_module_is_module():
    A = a2()
    D = dual_module(A.projective(0), A.op())
    D.validate()
    assert D.dims == (1, 1)


def test_finite_algebra_from_path_algebra():
    A = a2()
    G = FiniteAlgebra(QQ, A.products, A.one(), [A.idempotent(0), A.idempotent(1)])
    assert G.cartan_matrix() == [[1, 1], [0, 1]]
    J = G.radical_rows()
    assert J.nrows == 1
    assert algebra_presentation(G)["arrows"] == [("a", 1, 2)]


def test_finite_algebra_refuses_a_radical_that_is_no_ideal():
    A = a2()
    G = FiniteAlgebra(QQ, A.products, A.one(),
                      [A.idempotent(0), A.idempotent(1)])
    G._verify_radical(G.radical_rows())
    # the span of e_1 has the radical's codimension, but e_1 times the
    # arrow (or the arrow times e_1) leaves it
    J = Mat(QQ, [A.idempotent(0)])
    with pytest.raises(AlgebraError, match="not an ideal"):
        G._verify_radical(J)


def test_finite_algebra_radical_gf2():
    A = dual_numbers(PrimeField(2))
    G = FiniteAlgebra(A.field, A.products, A.one(), [A.idempotent(0)])
    J = G.radical_rows()
    assert J.nrows == 1
    # the radical is spanned by the loop
    x = A.arrow_elem("x")
    assert tuple(J.data[0]) == x


def as_finite(A):
    return FiniteAlgebra(A.field, A.products, A.one(),
                         [A.idempotent(v) for v in range(A.quiver.n)])


A4 = Quiver(4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)])
Z3 = Quiver(3, [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)])
SQUARE = Quiver(4, [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)])


@pytest.mark.parametrize("f", [QQ, PrimeField(2), PrimeField(3)],
                         ids=["Q", "GF2", "GF3"])
@pytest.mark.parametrize("quiver, relations, bound", [
    (A4, ["b*c"], None),
    (A4, ["a*b", "b*c"], None),
    (Z3, ["a*b", "b*c", "c*a"], 2),
    (Z3, ["a*b*c", "b*c*a", "c*a*b"], 3),
    (SQUARE, ["a*c + b*d"], None),
], ids=["A4/bc", "A4/ab,bc", "Z3/rad2", "Z3/rad3", "square"])
def test_presentation_gives_back_minimal_relations(f, quiver, relations,
                                                   bound):
    # a*(b*c) is a consequence of b*c, so A4/(bc) presents with b*c alone
    rels = [[(1, term.split("*")) for term in rel.split(" + ")]
            for rel in relations]
    G = as_finite(Algebra(f, quiver, rels, nilpotency_bound=bound))
    pres = algebra_presentation(G)
    assert pres["arrows"] == [(lab, s + 1, t + 1)
                              for lab, s, t in quiver.arrows]
    assert pres["relations"] == relations


def quadratic(f, square):
    """k[x]/(x^2 - square) on the basis (1, x) with the one idempotent 1;
    square holds the coordinates of x^2."""
    one = f.one()
    table = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)}
    if any(square):
        table[(1, 1)] = tuple((k, f.of(c)) for k, c in enumerate(square) if c)
    return FiniteAlgebra(f, {(0, 0): table}, (one, f.zero()),
                         [(one, f.zero())])


@pytest.mark.parametrize("f, irreducible", [
    (QQ, (-1, 0)), (PrimeField(2), (1, 1)), (PrimeField(3), (-1, 0))],
    ids=["Q", "GF2", "GF3"])
def test_a_corner_that_is_not_split_local_fails_the_radical_check(
        f, irreducible):
    assert quadratic(f, (0, 0)).radical_rows() == Mat(f, [[0, 1]])
    # x^2 = x gives k x k, whose corner is not local; an irreducible
    # x^2 - c0 - c1 x gives a field larger than k
    for square in ((0, 1), irreducible):
        with pytest.raises(AlgebraError, match="radical candidate"):
            quadratic(f, square).radical_powers()


def test_a_residue_over_gf2_reads_a_power_beyond_p():
    # k[x]/x^3 over GF(2) on the basis (1 + x^2, x, 1): x^2 = b0 + b2 is
    # nonzero where the unit is, so x^2 would give x the residue 1; the
    # corner has dimension 3, and x^4 = 0 gives 0
    f = PrimeField(2)
    table = {(0, 0): ((2, 1),), (0, 1): ((1, 1),), (0, 2): ((0, 1),),
             (1, 0): ((1, 1),), (1, 1): ((0, 1), (2, 1)), (1, 2): ((1, 1),),
             (2, 0): ((0, 1),), (2, 1): ((1, 1),), (2, 2): ((2, 1),)}
    G = FiniteAlgebra(f, {(0, 0): table}, (0, 0, 1), [(0, 0, 1)])
    assert G.radical_rows() == Mat(f, [[1, 0, 1], [0, 1, 0]])
    assert [J.nrows for J in G.radical_powers()] == [2, 1, 0]


def test_longest_path_is_found_without_recursion():
    chain = Quiver(1500, [(f"x{v}", v, v + 1) for v in range(1499)])
    assert chain.longest_path_length() == 1499
    assert SQUARE.longest_path_length() == 2
    assert Quiver(4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3),
                      ("d", 0, 3)]).longest_path_length() == 3
    assert Z3.longest_path_length() is None
    assert Quiver(2, [("a", 0, 1), ("x", 1, 1)]).longest_path_length() is None
    assert Quiver(1, []).longest_path_length() == 0


def test_the_bound_is_certified_only_when_read(monkeypatch):
    built = []
    init = Algebra.__init__

    def counting(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(Algebra, "__init__", counting)
    A = nakayama_two()
    assert len(built) == 1
    assert A.bound_certified and len(built) == 2
    assert A.bound_certified and len(built) == 2


def test_finite_algebra_rejects_garbage():
    # group algebra of Z/2, but the claimed idempotent squares to the unit
    one = QQ.of(1)
    table = {(0, 0): {(0, 0): ((0, one),), (0, 1): ((1, one),),
                      (1, 0): ((1, one),), (1, 1): ((0, one),)}}
    with pytest.raises(AlgebraError):
        FiniteAlgebra(QQ, table, (QQ.of(1), QQ.of(0)), [(QQ.of(0), QQ.of(1))])
    # and a wrong unit
    with pytest.raises(AlgebraError):
        FiniteAlgebra(QQ, table, (QQ.of(0), QQ.of(1)), [(QQ.of(0), QQ.of(1))])


def test_algebra_from_dict_round_trip():
    d = {
        "field": {"prime": 5},
        "quiver": {"vertices": 2, "arrows": [
            {"label": "a", "from": 1, "to": 2},
            {"label": "b", "from": 2, "to": 1},
        ]},
        "relations": [
            {"terms": [{"coeff": "1", "path": ["a", "b"]}]},
            {"terms": [{"coeff": "1", "path": ["b", "a"]}]},
        ],
        "nilpotency_bound": 2,
    }
    A = parse_job(d)["algebra"]
    assert A.dim == 4
    assert A.field.p == 5


def test_cyclic_requires_bound():
    q = Quiver(1, [("x", 0, 0)])
    with pytest.raises(AlgebraError):
        Algebra(QQ, q, [])


# ---- sub_module against a solve per arrow ----

def sub_module_by_solve(M, span_rows):
    """sub_module as one transpose-and-solve per arrow, on the dense
    matrices of every arrow and vertex: (dims, arrow matrices, inclusion
    blocks) with the empty ones left out, or None where the span is not
    closed."""
    A = M.algebra
    basis = [rows.row_space_basis() for rows in span_rows]
    dims = tuple(b.nrows for b in basis)
    mats = {}
    for a, (_, s, t) in enumerate(A.quiver.arrows):
        img = basis[s].mul(dense_arrow(M, a))
        sol = basis[t].transpose().solve(img.transpose())
        if sol is None:
            return None
        mats[a] = sol.transpose()
    return (dims, {a: m for a, m in mats.items() if m.nrows and m.ncols},
            {v: b for v, b in enumerate(basis) if b.nrows})


def closed_span(M, spans):
    """The smallest spans per vertex that contain spans and are closed
    under the arrow action."""
    spans = list(spans)
    grown = True
    while grown:
        grown = False
        for a, (_, s, t) in enumerate(M.algebra.quiver.arrows):
            if not spans[s].nrows:
                continue
            img = spans[s].mul(dense_arrow(M, a))
            both = Mat(M.algebra.field, spans[t].data + img.data,
                       ncols=M.dims[t])
            if both.rank() > spans[t].rank():
                spans[t] = both.row_space_basis()
                grown = True
    return spans


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["Q", 5]))
def test_sub_module_matches_a_solve_per_arrow(seed, field_key):
    rng = random.Random(seed)
    field = QQ if field_key == "Q" else PrimeField(field_key)
    A = rng.choice([a2, a4_cubic, nakayama_two, dual_numbers,
                    *ISOLATED.values()])(field)
    n = A.quiver.n
    kinds = (A.projective, A.injective, A.simple)
    M, _ = direct_sum_modules(A, [rng.choice(kinds)(rng.randrange(n))
                                  for _ in range(rng.randint(1, 3))])
    spans = [Mat(field, [[field.of(rng.randrange(-2, 3))
                          for _ in range(M.dims[v])]
                         for _ in range(rng.randint(0, 2))], ncols=M.dims[v])
             for v in range(n)]
    if rng.random() < 0.5:
        spans = closed_span(M, spans)
    want = sub_module_by_solve(M, spans)
    # a vertex left out of the dict spans zero
    given = {v: rows for v, rows in enumerate(spans)
             if rows.nrows or rng.random() < 0.5}
    if want is None:
        with pytest.raises(AlgebraError, match="not closed"):
            sub_module(M, given)
        return
    S, inc = sub_module(M, given)
    dims, mats, basis = want
    assert S.dims == dims
    assert S.mats == mats
    assert inc.blocks == basis
    S.validate()
    assert inc.commutes()


# ---- the support format ----

# Algebras with an isolated vertex: most of their modules have arrows
# with an end of dimension zero, and most maps between them vertices
# where one side is zero.
ISOLATED = {
    "A2+pt": lambda f: Algebra(f, Quiver(3, [("a", 0, 1)]), []),
    "kronecker+pt": lambda f: Algebra(
        f, Quiver(3, [("a", 0, 1), ("b", 0, 1)]), []),
    "dual+pt": lambda f: Algebra(f, Quiver(2, [("x", 0, 0)]),
                                 [[(1, ["x", "x"])]], nilpotency_bound=2),
    "A3/ab+pt": lambda f: Algebra(
        f, Quiver(4, [("a", 0, 1), ("b", 1, 2)]), [[(1, ["a", "b"])]]),
}


def test_constructors_take_exactly_the_support():
    # 1 -a-> 2 -b-> 3: P_2 is zero at vertex 1, so a has an end of
    # dimension zero on it and b has none
    A = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
    one = Mat.from_rows(QQ, [[1]])
    P, S = A.projective(1), A.simple(1)
    assert P.dims == (0, 1, 1) and S.dims == (0, 1, 0)
    for mats in ({0: Mat.zeros(QQ, 0, 1), 1: one},  # a key outside
                 {}):                               # a key missing
        with pytest.raises(AlgebraError):
            Module(A, P.dims, mats)
    assert Module(A, P.dims, {1: one}) == P
    for src, tgt, blocks in [
            (S, P, {0: Mat.zeros(QQ, 0, 0), 1: one}),  # a key outside
            (S, P, {}),                                # a key missing
            (S, P, {1: Mat.zeros(QQ, 1, 2)}),          # a wrong shape
            (P, P, {2: one, 1: one})]:                 # out of order
        with pytest.raises(AlgebraError):
            ModuleMap(src, tgt, blocks)
    assert ModuleMap(P, P, {1: one, 2: one}) == ModuleMap.identity(P)


@pytest.mark.parametrize("key", sorted(ISOLATED))
def test_no_stored_matrix_is_empty(key):
    A = ISOLATED[key](QQ)
    mods = [get(v) for get in (A.projective, A.simple, A.injective)
            for v in range(A.quiver.n)]
    kernels = [kernel_module(h) for M in mods for N in mods
               for h in hom_basis(M, N)]
    modules = mods + [direct_sum_modules(A, mods)[0]] + \
        [K for K, _ in kernels]
    assert all(m.nrows and m.ncols for M in modules for m in M.mats.values())
    assert all(b.nrows and b.ncols
               for _, inc in kernels for b in inc.blocks.values())


def _flat(F):
    return [x for b in dense_blocks(F) for row in b.data for x in row]


def dense_hom_basis(M, N):
    """hom_basis on dense blocks at every vertex: the kernel of the map
    F -> (a F_t - F_s a) over all arrows a: s -> t, with the blocks F_v
    flattened row by row in vertex order; each basis map as one list."""
    A = M.algebra
    f = A.field
    shapes = [(M.dims[v], N.dims[v]) for v in range(A.quiver.n)]
    total = sum(r * c for r, c in shapes)
    width = sum(M.dims[s] * N.dims[t] for _, s, t in A.quiver.arrows)
    images = []
    for u in range(total):
        unit = [f.one() if i == u else f.zero() for i in range(total)]
        blocks, at = [], 0
        for r, c in shapes:
            blocks.append(Mat(f, [unit[at + i * c:at + (i + 1) * c]
                                  for i in range(r)], ncols=c))
            at += r * c
        img = []
        for a, (_, s, t) in enumerate(A.quiver.arrows):
            eq = dense_arrow(M, a).mul(blocks[t]).add(
                blocks[s].mul(dense_arrow(N, a)).scale(-1))
            img.extend(x for row in eq.data for x in row)
        images.append(img)
    # the rows are the images of the unit maps, so the homs are the rows
    # of the left kernel
    kernel = Mat(f, images, ncols=width).left_kernel_basis()
    return [list(row) for row in kernel.data]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["Q", 5]),
       st.sampled_from(sorted(ISOLATED)))
def test_support_format_matches_dense_blocks(seed, field_key, key):
    """Maps on the support against the same operations on dense blocks
    at every vertex, the empty ones included."""
    rng = random.Random(seed)
    field = QQ if field_key == "Q" else PrimeField(field_key)
    A = ISOLATED[key](field)
    n = A.quiver.n

    def summands():
        return [rng.choice((A.projective, A.injective, A.simple))(
            rng.randrange(n)) for _ in range(rng.randint(0, 3))]

    def linear_map(M, N):
        return from_dense(M, N, [
            Mat(field, [[field.of(rng.randrange(-2, 3))
                         for _ in range(N.dims[v])]
                        for _ in range(M.dims[v])], ncols=N.dims[v])
            for v in range(n)])

    def rebased(M):
        """M in a random basis at each vertex, so that a loop need not
        act by a matrix with a zero diagonal."""
        g = []
        for d in M.dims:
            while True:
                b = Mat(field, [[field.of(rng.randrange(-2, 3))
                                 for _ in range(d)] for _ in range(d)],
                        ncols=d)
                if b.is_invertible():
                    break
            g.append(b)
        q = A.quiver
        return Module(A, M.dims, {
            a: g[q.source(a)].mul(m).mul(g[q.target(a)].inverse())
            for a, m in M.mats.items()})

    L_mods, M_mods, N_mods = summands(), summands(), summands()
    L = direct_sum_modules(A, L_mods)[0]
    M, m_off = direct_sum_modules(A, M_mods)
    N, n_off = direct_sum_modules(A, N_mods)
    M = rebased(M) if rng.random() < 0.5 else M
    N = rebased(N) if rng.random() < 0.5 else N

    F, F2, G = linear_map(L, M), linear_map(L, M), linear_map(M, N)
    c = field.of(rng.randrange(-3, 4))
    dF = dense_blocks(F)
    assert dense_blocks(F.then(G)) == \
        [a.mul(b) for a, b in zip(dF, dense_blocks(G))]
    assert dense_blocks(F.add(F2)) == \
        [a.add(b) for a, b in zip(dF, dense_blocks(F2))]
    assert dense_blocks(F.scale(c)) == [b.scale(c) for b in dF]

    basis = hom_basis(M, N)
    assert [_flat(h) for h in basis] == dense_hom_basis(M, N)
    H = ModuleMap.zero(M, N)
    for h in basis:
        H = H.add(h.scale(field.of(rng.randrange(-2, 3))))
    E = ModuleMap.identity(M)
    for h in hom_basis(M, M):
        E = E.add(h.scale(field.of(rng.randrange(-2, 3))))
    for X in (F, G, H, E):
        dX = dense_blocks(X)
        assert X.is_iso() == all(b.is_invertible() for b in dX)
        if X.is_iso():
            assert dense_blocks(X.inverse()) == [b.inverse() for b in dX]

    K, inc = kernel_module(H)
    assert dense_blocks(inc) == [b.left_kernel_basis().row_space_basis()
                                 for b in dense_blocks(H)]
    dims, mats, _ = sub_module_by_solve(M, dense_blocks(inc))
    assert K.dims == dims and K.mats == mats
    K.validate()
    assert inc.commutes()

    F = linear_map(M, N)
    for k, src in enumerate(M_mods):
        for l, tgt in enumerate(N_mods):
            want = [Mat(field, [row[n_off[l][v]:n_off[l][v] + tgt.dims[v]]
                                for row in b.data[m_off[k][v]:
                                                  m_off[k][v] + src.dims[v]]],
                        ncols=tgt.dims[v])
                    for v, b in enumerate(dense_blocks(F))]
            got = map_slice(F, src, m_off[k], tgt, n_off[l])
            assert dense_blocks(got) == want
    pieces = {(k, l): linear_map(src, tgt)
              for k, src in enumerate(M_mods)
              for l, tgt in enumerate(N_mods) if rng.random() < 0.6}
    want = []
    for v in range(n):
        full = [[field.zero()] * N.dims[v] for _ in range(M.dims[v])]
        for (k, l), b in pieces.items():
            for i, row in enumerate(dense_blocks(b)[v].data):
                for j, x in enumerate(row):
                    full[m_off[k][v] + i][n_off[l][v] + j] = x
        want.append(Mat(field, full, ncols=N.dims[v]))
    assert dense_blocks(map_placement(M, m_off, N, n_off, pieces)) == want


# ---- structure constants of the path algebra, by brute force ----

def ref_paths(n, arrows, bound):
    """Every path of length < bound, as (source, arrow indices)."""
    out = [(v, ()) for v in range(n)]
    frontier = list(out)
    for _ in range(1, bound):
        frontier = [(s, arrs + (k,)) for s, arrs in frontier
                    for k, (a, _) in enumerate(arrows)
                    if a == (arrows[arrs[-1]][1] if arrs else s)]
        out += frontier
    return out


def ref_products(A, arrows, relations):
    """Dense products of the basis paths of A: concatenate, then solve for
    the coordinates over the basis paths modulo the ideal, which is
    spanned by p * (e_x rel e_y) * q inside the paths shorter than the
    bound.  Also checks that the basis paths complement the ideal."""
    f = A.field
    paths = ref_paths(A.quiver.n, arrows, A.bound)
    assert set(paths) == set(A.paths)
    index = {p: k for k, p in enumerate(paths)}

    def tgt(p):
        return arrows[p[1][-1]][1] if p[1] else p[0]

    ideal = []
    for rel in relations:
        comps = {}
        for c, labs in rel:
            arrs = tuple("abc".index(lab) for lab in labs)
            comps.setdefault((arrows[arrs[0]][0], arrows[arrs[-1]][1]),
                             []).append((f.of(c), arrs))
        for (x, y), terms in comps.items():
            for p in paths:
                for q in paths:
                    if tgt(p) != x or q[0] != y:
                        continue
                    row = [f.zero()] * len(paths)
                    for c, arrs in terms:
                        full = p[1] + arrs + q[1]
                        if len(full) < A.bound:
                            k = index[(p[0], full)]
                            row[k] = f.norm(row[k] + c)
                    if any(row):
                        ideal.append(row)
    ideal = Mat(f, ideal, ncols=len(paths)).row_space_basis()
    basis = [A.paths[k] for k in A.basis]
    assert len(basis) + ideal.nrows == len(paths)
    # the basis rows and the ideal together: invertible exactly when the
    # basis paths complement the ideal
    inv = Mat(f, [[f.one() if p == b else f.zero() for p in paths]
                  for b in basis] + list(ideal.data),
              ncols=len(paths)).inverse()
    table = []
    for u in basis:
        row = []
        for v in basis:
            if tgt(u) != v[0] or len(u[1] + v[1]) >= A.bound:
                row.append((f.zero(),) * len(basis))
                continue
            x = inv.data[index[(u[0], u[1] + v[1])]]
            row.append(tuple(x[:len(basis)]))
        table.append(row)
    return table


@st.composite
def path_algebras(draw):
    """A quiver with up to three arrows (loops and cycles allowed), a
    nilpotency bound, and relations whose terms are random paths.  The
    terms after the first mostly share its source and target, so that a
    product can reduce to several basis paths."""
    f = draw(st.sampled_from([QQ, PrimeField(3)]))
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=3))
    bound = draw(st.integers(2, 4))
    long = [p for p in ref_paths(n, arrows, bound) if len(p[1]) >= 2]
    relations = []
    if long:
        for _ in range(draw(st.integers(0, 2))):
            first = draw(st.sampled_from(long))
            ends = (first[0], arrows[first[1][-1]][1])
            same = [p for p in long if (p[0], arrows[p[1][-1]][1]) == ends]
            terms = [first] + draw(st.lists(
                st.sampled_from(same if draw(st.integers(0, 3)) else long),
                min_size=1, max_size=3, unique=True))
            relations.append([(draw(st.sampled_from([1, -1, 2])),
                               ["abc"[a] for a in arrs])
                              for _, arrs in terms])
    A = Algebra(f, Quiver(n, [("abc"[k], s, t)
                              for k, (s, t) in enumerate(arrows)]),
                relations, nilpotency_bound=bound)
    return A, arrows, relations, draw(st.randoms(use_true_random=False))


@settings(max_examples=150, deadline=None)
@given(path_algebras())
def test_path_algebra_products_match_concatenation(case):
    A, arrows, relations, rng = case
    f = A.field
    table = ref_products(A, arrows, relations)
    want = {(a, b): tuple((k, c) for k, c in enumerate(vec) if c)
            for a, row in enumerate(table) for b, vec in enumerate(row)
            if any(vec)}
    assert A.products == {(0, 0): want}
    for _ in range(3):
        x, y = ([f.of(rng.randrange(-2, 3)) for _ in range(A.dim)]
                for _ in range(2))
        prod = [f.zero()] * A.dim
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                for k, c in enumerate(table[a][b]):
                    prod[k] = f.norm(prod[k] + xa * yb * c)
        assert A.mult(tuple(x), tuple(y)) == tuple(prod)

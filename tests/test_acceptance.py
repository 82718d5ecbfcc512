"""The acceptance gate.

One test per shipping criterion; each prints a single pass/fail line
under pytest -v.  Everything here is exact: integer dimensions, exact
matrices, no tolerances.
"""

import json
import random

from tiltlab.algebra import Algebra, Quiver, nakayama_permutation
from tiltlab.ainfinity import AInfError, collection_ext_model, dual_bar_dg
from tiltlab.cli import default_corpus_dir
from tiltlab.complexes import (ChainMap, Summand, complex_iso_search, cone,
                               direct_sum_complexes, h0_chain_maps, minimize,
                               stalk_complex, tag_module)
from tiltlab.derived import (derived_hom, injective_form, resolve_complex,
                             simple_stalk_profile, validate_simple_minded)
from tiltlab.dg import (dg_from_path_algebra, dg_nakayama, gamma_tilde,
                        hom_cohomology, materialize, strict_perfect, truncate)
from tiltlab.linalg import QQ, Mat, is_unimodular, smith_normal_form
from tiltlab.reporting import parse_job
from tiltlab.tilting import (check_tilting, nu_inverse_complex, nu_stability,
                             total_complex)

A2 = Algebra(QQ, Quiver(2, [("a", 0, 1)]), [])
A3 = Algebra(QQ, Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [])
A4C = Algebra(QQ, Quiver(4, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)]),
              [[(1, ["a", "b", "c"])]])
DUAL = Algebra(QQ, Quiver(1, [("x", 0, 0)]), [[(1, ["x", "x"])]],
               nilpotency_bound=2)
NAK2 = Algebra(QQ, Quiver(2, [("a", 0, 1), ("b", 1, 0)]),
               [[(1, ["a", "b"])], [(1, ["b", "a"])]],
               nilpotency_bound=2)

D2 = dg_from_path_algebra(A2)
D3 = dg_from_path_algebra(A3)


def S(A, v, deg=0):
    return stalk_complex(A, Summand("S", v), deg)


def P(A, v, deg=0):
    return stalk_complex(A, Summand("P", v), deg)


def I(A, v, deg=0):
    return stalk_complex(A, Summand("I", v), deg)


def minimized_inverse_nakayama(res):
    return [minimize(nu_inverse_complex(r.complex)).complex
            for r in res["runs"]]


def delta_table(objects, runs, w):
    """Brute-force derived homs of the output family, object by object."""
    out = {}
    for i, r in enumerate(runs):
        for j, X in enumerate(objects):
            tab = derived_hom(X, r.complex, -w, w)
            for m in range(-w, w + 1):
                out[(j, i, m)] = tab.entries[m]
    return out


def test_criterion_1_identity_collection_reproduces_the_algebra():
    objs = [S(A2, 0), S(A2, 1)]
    assert validate_simple_minded(objs)["is_smc"]
    res = check_tilting(objs, window=2)
    runs = res["runs"]
    assert [r.complex.describe() for r in runs] == ["[0: I1]", "[0: I2]"]
    assert all(r.status == "terminated" and r.cones <= 1 for r in runs)
    # independent oracle: every derived hom of the family, brute force
    want = {(j, i, m): 1 if (i == j and m == 0) else 0
            for i in range(2) for j in range(2) for m in range(-2, 3)}
    assert delta_table(objs, runs, 2) == want
    # the inverse Nakayama image is the regular module
    assert [m.describe() for m in minimized_inverse_nakayama(res)] == \
        ["[0: P1]", "[0: P2]"]
    assert res["verdict"] == "TILTING"
    G = res["gamma"]
    assert G.dim == 3
    assert G.cartan_matrix() == [[1, 1], [0, 1]]


def test_criterion_2_apr_flip_yields_the_classical_tilt():
    objs = [P(A2, 0), S(A2, 1, -1)]
    assert validate_simple_minded(objs)["is_smc"]
    res = check_tilting(objs, window=2)
    runs = res["runs"]
    # T is the simple at the source next to the suspended simple
    assert simple_stalk_profile(minimize(runs[0].complex).complex) == (0, 0)
    assert simple_stalk_profile(minimize(runs[1].complex).complex) == (1, -1)
    mins = minimized_inverse_nakayama(res)
    assert mins[0].describe() == "[0: P1]"
    assert mins[1].describe() == "[-1: P2] [0: P1]"
    # its zeroth homology is the classical flip: P1 next to the top S1
    assert mins[0].homology_dims() == {0: (1, 1)}
    assert mins[1].homology_dims() == {0: (1, 0)}
    assert res["verdict"] == "TILTING"
    G = res["gamma"]
    assert G.dim == 3
    # the algebra again, with its two vertices swapped
    assert G.cartan_matrix() == [[1, 0], [1, 1]]


def test_criterion_3_negative_example_is_rejected_with_a_witness():
    objs = [S(A2, 1), S(A2, 0, -1)]
    assert validate_simple_minded(objs)["is_smc"]
    res = check_tilting(objs, window=2)
    runs = res["runs"]
    assert [r.complex.describe() for r in runs] == ["[0: I2]", "[-1: I1]"]
    mins = minimized_inverse_nakayama(res)
    assert [m.describe() for m in mins] == ["[0: P2]", "[-1: P1]"]
    _, h = gamma_tilde(mins)
    assert h == {-1: 1, 0: 2}  # the obstruction is exactly one-dimensional
    assert res["verdict"] == "NOT_TILTING"
    assert tuple(res["witness"]) == (-1, 1)
    G = res["gamma"]
    assert G.dim == 2
    assert G.cartan_matrix() == [[1, 0], [0, 1]]
    assert G.radical_rows().nrows == 0  # two copies of the field


def test_criterion_4_symmetric_local_algebra_stabilizes():
    objs = [S(DUAL, 0)]
    res = check_tilting(objs, window=4, depth=8)
    run = res["runs"][0]
    assert run.status in ("terminated", "window_stable")
    tab = derived_hom(objs[0], run.complex, -2, 2)
    assert {m: tab.entries[m] for m in range(-2, 3)} == \
        {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}
    assert nu_stability(res["runs"], res["tau"]) is True
    assert res["verdict"] == "TILTING"
    assert res["gamma"].dim == 2
    assert res["gamma"].cartan_matrix() == [[2]]


def test_criterion_5_self_injective_nonsymmetric_pair():
    assert nakayama_permutation(NAK2) == [1, 0]  # a genuine swap
    objs = [S(NAK2, 0), S(NAK2, 1)]
    res = check_tilting(objs, window=2)
    # the set is stable under the twist even though its members move:
    # the total object matches the injective form of its untwist
    total = total_complex(res["runs"])
    back = injective_form(nu_inverse_complex(total), top=res["tau"])
    assert complex_iso_search(minimize(total).complex,
                              minimize(back).complex) is not None
    assert res["verdict"] == "TILTING"
    assert res["gamma"].dim == 4
    assert res["gamma"].cartan_matrix() == [[1, 1], [1, 1]]


def test_criterion_6_randomized_invariant_suite():
    rng = random.Random(0)
    counted = 0

    def random_stalk_sum(A, kinds="SPI", lo=-2, hi=1, n=None):
        parts = [stalk_complex(A, Summand(rng.choice(kinds),
                                          rng.randrange(A.quiver.n)),
                               rng.randrange(lo, hi + 1))
                 for _ in range(n or rng.randrange(1, 4))]
        return direct_sum_complexes(parts)

    # squares of differentials vanish on resolutions and on cones
    for _ in range(40):
        A = rng.choice([A2, A3, A4C])
        X = random_stalk_sum(A)
        res = resolve_complex(X)
        res.complex.validate()
        assert res.aug.commutes()
        R = res.complex
        for n in R.support():
            assert R.d_full(n).then(R.d_full(n + 1)).is_zero()
        counted += 1

    # minimize never changes a derived hom dimension
    for _ in range(40):
        A = rng.choice([A2, A3])
        X, Y = random_stalk_sum(A), random_stalk_sum(A)
        maps, _ = h0_chain_maps(X, Y)
        f = rng.choice(maps) if maps else ChainMap(X, Y, {})
        C = cone(f)
        mC = minimize(C).complex
        Z = random_stalk_sum(A, n=1)
        t1 = derived_hom(C, Z, -2, 2)
        t2 = derived_hom(mC, Z, -2, 2)
        assert t1.entries == t2.entries
        s1 = derived_hom(Z, C, -2, 2)
        s2 = derived_hom(Z, mC, -2, 2)
        assert s1.entries == s2.entries
        counted += 1

    # no positive cohomology in the truncation source on completed runs
    for _ in range(30):
        A = rng.choice([A2, A3, NAK2])
        shifts = [rng.choice([0, -1]) for _ in range(A.quiver.n)]
        objs = [S(A, v, shifts[v]) for v in range(A.quiver.n)]
        counted += 1
        if not validate_simple_minded(objs, cone_budget=16)["is_smc"]:
            continue
        res = check_tilting(objs, window=2, budget=24)
        done = (all(r.status == "terminated" for r in res["runs"])
                and all(r.certified_exact for r in res["runs"]))
        if not done:
            continue
        _, h = gamma_tilde(minimized_inverse_nakayama(res))
        assert all(m <= 0 for m in h)

    # maps out of a projective match the idempotent slice
    for _ in range(30):
        A = rng.choice([A2, A3, A4C, NAK2, DUAL])
        i = rng.randrange(A.quiver.n)
        tag = Summand(rng.choice("SPI"), rng.randrange(A.quiver.n))
        M = tag_module(A, tag)
        got = derived_hom(P(A, i), stalk_complex(A, tag), 0, 0).entries[0]
        assert got == M.dims[i]
        counted += 1

    # the dual of a perfect module is adjoint to it, dimensionwise
    for _ in range(30):
        A, D = rng.choice([(A2, D2), (A3, D3)])
        X = random_stalk_sum(A, kinds="SP")
        R = resolve_complex(X).complex
        pieces, pos = [], {}
        for n in R.support():
            for k, s in enumerate(R.parts[n]):
                pos[(n, k)] = len(pieces)
                pieces.append((-n, s.vertex))
        from tiltlab.tilting import hom_to_element
        delta = {}
        for n in R.support():
            for k, s in enumerate(R.parts[n]):
                for l, t in enumerate(R.parts.get(n + 1, ())):
                    blk = R.block(n, k, l)
                    if blk is not None and not blk.is_zero():
                        delta[(pos[(n, k)], pos[(n + 1, l)])] = \
                            hom_to_element(blk, s.vertex, t.vertex)
        sp = strict_perfect(D, pieces, delta)
        nu = dg_nakayama(sp)
        free = strict_perfect(D, [(rng.randrange(-1, 2),
                                   rng.randrange(A.quiver.n))])
        fwd = hom_cohomology(sp, materialize(free))
        bwd = hom_cohomology(free, nu)
        assert fwd == {-k: n for k, n in bwd.items()}
        # truncation splits dimensions after removing one contractible
        # pair (the image of d^0, once in degree 0 and once in 1),
        # and it splits the cohomology on the nose
        M = materialize(sp)
        lo, up = truncate(M)[:2]
        r0 = M.d[0].rank() if 0 in M.d else 0
        for k in set(M.degrees()) | set(lo.degrees()) | set(up.degrees()):
            defect = r0 if k in (0, 1) else 0
            assert lo.dim_at(k) + up.dim_at(k) == M.dim_at(k) - defect
        hlo, hup = lo.cohomology_dims(), up.cohomology_dims()
        assert all(k <= 0 for k in hlo) and all(k >= 1 for k in hup)
        assert {**hlo, **hup} == M.cohomology_dims()
        counted += 1

    # transferred operations satisfy their coherence identities
    for _ in range(20):
        A = rng.choice([A2, A3, A4C])
        objs = [random_stalk_sum(A, kinds="SP", lo=-1, hi=0, n=1)
                for _ in range(rng.randrange(1, 3))]
        X = collection_ext_model(objs, arity_cap=3)
        X.validate()  # includes every coherence identity up to the cap
        counted += 1

    # normal forms of integer matrices agree with exact rank
    for _ in range(40):
        rows = [[rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
                for _ in range(rng.randrange(1, 4))]
        rows = [r[:len(rows[0])] + [0] * (len(rows[0]) - len(r))
                for r in rows]
        factors = smith_normal_form(rows)
        rank = Mat(QQ, [[QQ.of(c) for c in r] for r in rows],
                   ncols=len(rows[0])).rank()
        nonzero = [f for f in factors if f != 0]
        assert len(nonzero) == rank
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        if len(rows) == len(rows[0]):
            assert is_unimodular(rows) == \
                (len(nonzero) == len(rows) and
                 all(abs(f) == 1 for f in nonzero))
        counted += 1

    assert counted >= 200


def test_criterion_7_koszul_dual_route_agrees_with_the_direct_route():
    examples = [
        [S(A2, 0), S(A2, 1)],
        [P(A2, 0), S(A2, 1, -1)],
        [S(A2, 1), S(A2, 0, -1)],
    ]
    for objs in examples:
        res = check_tilting(objs, window=2)
        _, gh = gamma_tilde(minimized_inverse_nakayama(res))
        X = collection_ext_model(objs, arity_cap=4)
        db = dual_bar_dg(X, degree_window=3, tensor_cap=6)
        assert db.certified
        for m in db.certified:
            assert db.h_dims[m] == gh.get(m, 0)


def test_criterion_8_certified_values_survive_larger_budgets():
    for path in sorted(default_corpus_dir().glob("*.json")):
        job = parse_job(json.loads(path.read_text()), name=path.stem)
        objs, w = job["objects"], job["window"]

        r1 = check_tilting(objs, window=w)
        r2 = check_tilting(objs, window=w + 2, depth=30)
        assert r2["verdict"] == r1["verdict"]
        for k, v in r1["end_homology"].items():
            assert r2["end_homology"].get(k, 0) == v
        if r1["gamma"] is not None:
            assert r2["gamma"] is not None
            assert r2["gamma"].dim == r1["gamma"].dim
            assert r2["gamma"].cartan_matrix() == r1["gamma"].cartan_matrix()

        # hom tables: a wider window recomputes with deeper resolutions
        for X in objs:
            for Y in objs:
                t1 = derived_hom(X, Y, -w, w)
                t2 = derived_hom(X, Y, -w - 2, w + 2)
                for m, d in t1.entries.items():
                    assert t2.entries[m] == d

        # the Koszul route: certified degrees keep their values
        try:
            XA = collection_ext_model(objs, arity_cap=job["arity_cap"])
        except AInfError:
            continue  # honestly skipped: no finite model at any cap
        db1 = dual_bar_dg(XA, degree_window=w + 1, tensor_cap=2 * (w + 1))
        db2 = dual_bar_dg(XA, degree_window=w + 2, tensor_cap=2 * (w + 2))
        for m in db1.certified:
            assert m in db2.certified
            assert db2.h_dims[m] == db1.h_dims[m]

    # deeper resolutions extend, never rewrite, shallow ones
    Sd = S(DUAL, 0)
    shallow = resolve_complex(Sd, bottom=-6).complex
    deep = resolve_complex(Sd, bottom=-10).complex
    for n in range(-5, 1):
        assert deep.parts.get(n) == shallow.parts.get(n)

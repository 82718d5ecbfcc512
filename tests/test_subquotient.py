"""independent_rows and Subquotient against a rank-per-candidate reference.

The reference keeps a candidate row when appending it raises the rank
of the rows kept so far, and takes class coordinates from one linear
solve over the representatives stacked on an echelon basis of the
boundaries.  Rows are drawn from a few generators, so candidates often
lie in the span of the base or of earlier candidates.
"""

import random

from hypothesis import given, settings, strategies as st

from tiltlab.linalg import Mat, PrimeField, QQ, Subquotient, independent_rows

FIELDS = {"Q": QQ, "GF5": PrimeField(5)}


def reference_independent_rows(base, candidates):
    f, n = base.field, base.ncols
    rows = [list(r) for r in base.data]
    rank = Mat(f, rows, ncols=n).rank()
    kept = []
    for cand in candidates:
        if Mat(f, rows + [list(cand)], ncols=n).rank() > rank:
            rows.append(list(cand))
            kept.append(tuple(cand))
            rank += 1
    return kept


def reference_coords(reps, B, vec):
    f, n = B.field, B.ncols
    basis = Mat(f, list(reps.data) + list(B.row_space_basis().data), ncols=n)
    sol = basis.transpose().solve(Mat(f, [list(vec)], ncols=n).transpose())
    if sol is None:
        return None
    return tuple(sol.transpose().data[0][:reps.nrows])


def combination(f, rng, gens, ncols):
    acc = [f.zero()] * ncols
    for g in gens:
        c = f.of(rng.randrange(-2, 3))
        acc = [f.norm(a + c * x) for a, x in zip(acc, g)]
    return tuple(acc)


def random_case(f, rng, ncols, ngens, nb, nz):
    gens = [tuple(f.of(rng.randrange(-2, 3)) for _ in range(ncols))
            for _ in range(ngens)]
    B = [combination(f, rng, rng.sample(gens, rng.randint(0, ngens)), ncols)
         for _ in range(nb)]
    # cycles mix boundaries, generators and fresh rows
    pool = gens + B
    Z = [combination(f, rng, rng.sample(pool, rng.randint(0, len(pool))),
                     ncols) if rng.random() < 0.8
         else tuple(f.of(rng.randrange(-2, 3)) for _ in range(ncols))
         for _ in range(nz)]
    return Mat(f, Z, ncols=ncols), Mat(f, B, ncols=ncols)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 5), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 5), st.sampled_from(sorted(FIELDS)))
def test_kernel_matches_the_rank_per_candidate_reference(
        seed, ncols, ngens, nb, nz, field_key):
    f = FIELDS[field_key]
    rng = random.Random(seed)
    Z, B = random_case(f, rng, ncols, ngens, nb, nz)

    want = reference_independent_rows(B, Z.data)
    assert independent_rows(B, Z.data) == want

    H = Subquotient(Z, B)
    assert list(H.reps.data) == want and H.dim == len(want)
    for i, rep in enumerate(H.reps.data):
        assert H.coords(rep) == tuple(
            f.one() if j == i else f.zero() for j in range(H.dim))
    rows = list(Z.data) + list(B.data)
    inside = [combination(f, rng, rng.sample(rows, rng.randint(0, len(rows))),
                          ncols) for _ in range(3)]
    for vec in inside:
        got = H.coords(vec)
        assert got is not None and got == reference_coords(H.reps, B, vec)
    outside = [tuple(f.of(rng.randrange(-2, 3)) for _ in range(ncols))
               for _ in range(3)]
    for vec in outside:
        assert H.coords(vec) == reference_coords(H.reps, B, vec)


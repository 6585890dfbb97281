from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from twistfield import gf
from twistfield.linalg import (
    MatF,
    Subspace,
    cross,
    decode_vector,
    f3_vectors,
    image_table,
    intersect,
    kernel,
    mat_vec,
    rank,
    rref,
    rref_rows,
    span,
    subspace_sum,
    unit_row,
    vec_index,
)

F2 = gf.Field.of_order(2)
F3 = gf.Field.of_order(3)
F4 = gf.Field.of_order(4)
F5 = gf.Field.of_order(5)

FIELDS = {2: F2, 3: F3, 4: F4, 5: F5}


def random_vector(rng, fld, n):
    return tuple(rng.randrange(fld.order) for _ in range(n))


def random_subspace(rng, fld, n, gens):
    return span(fld, n, [random_vector(rng, fld, n) for _ in range(gens)])


def test_rref_zero_matrix():
    m = MatF(F3, ((0, 0, 0), (0, 0, 0)))
    red, rk, pivots = rref(m)
    assert rk == 0 and pivots == ()
    assert red.rows == m.rows


def test_rref_identity():
    m = MatF(F3, ((1, 0), (0, 1)))
    red, rk, _ = rref(m)
    assert red == m and rk == 2


def test_rref_rank_one_example():
    # over GF(3): det of ((1,2),(2,1)) is 1*1 - 2*2 = -3 = 0, so rank 1
    assert (1 * 1 - 2 * 2) % 3 == 0
    assert rank(MatF(F3, ((1, 2), (2, 1)))) == 1


def test_rref_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        m = MatF(F4, tuple(random_vector(rng, F4, 5) for _ in range(3)))
        red, _, _ = rref(m)
        again, _, _ = rref(red)
        assert red == again


def test_rref_canonical_for_equal_spans():
    rng = random.Random(1)
    for q in (2, 3, 4, 5):
        fld = FIELDS[q]
        for _ in range(30):
            s = random_subspace(rng, fld, 5, 3)
            # random invertible recombination of the basis
            rows = list(s.basis)
            if not rows:
                continue
            mixed = []
            for _ in range(len(rows)):
                vec = [0] * 5
                while all(v == 0 for v in vec):
                    coefs = [rng.randrange(fld.order) for _ in rows]
                    vec = [0] * 5
                    for c, r in zip(coefs, rows):
                        for i, x in enumerate(r):
                            vec[i] = fld.add(vec[i], fld.mul(c, x))
                mixed.append(tuple(vec))
            s2 = span(fld, 5, mixed + list(rows))
            assert s2 == s


def test_span_trivial_cases():
    assert span(F3, 4, []).dim == 0
    v = (1, 2, 0, 1)
    two_v = tuple(F3.mul(2, c) for c in v)
    assert span(F3, 4, [v, two_v]).dim == 1
    with pytest.raises(ValueError):
        span(F3, 4, [(1, 2, 3)])


def test_kernel_trivial_cases():
    ident = MatF(F5, tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
    assert kernel(ident).dim == 0
    zero = MatF(F5, ((0, 0, 0), (0, 0, 0)))
    assert kernel(zero).dim == 3


def test_rank_nullity_random():
    rng = random.Random(2)
    for _ in range(1000):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        m = MatF(F5, tuple(random_vector(rng, F5, ncols) for _ in range(nrows)))
        assert rank(m) + kernel(m).dim == ncols


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(200):
        m = MatF(F4, tuple(random_vector(rng, F4, 5) for _ in range(3)))
        for v in kernel(m).basis:
            for row in m.rows:
                acc = 0
                for a, b in zip(row, v):
                    acc = F4.add(acc, F4.mul(a, b))
                assert acc == 0


def test_intersect_self_and_lines():
    s = span(F3, 6, [(1, 0, 0, 1, 2, 0), (0, 1, 0, 0, 1, 1)])
    assert intersect(s, s) == s
    l1 = span(F3, 2, [(1, 0)])
    l2 = span(F3, 2, [(1, 1)])
    assert intersect(l1, l2).dim == 0
    with pytest.raises(ValueError):
        intersect(l1, span(F3, 3, [(1, 0, 0)]))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_modular_law_bulk(q):
    fld = FIELDS[q]
    rng = random.Random(q)
    for _ in range(10000):
        s1 = random_subspace(rng, fld, 6, 3)
        s2 = random_subspace(rng, fld, 6, 3)
        meet = intersect(s1, s2)
        join = subspace_sum(s1, s2)
        assert s1.dim + s2.dim == meet.dim + join.dim


def test_intersect_commutative_associative():
    rng = random.Random(9)
    for _ in range(100):
        s1 = random_subspace(rng, F3, 6, 4)
        s2 = random_subspace(rng, F3, 6, 4)
        s3 = random_subspace(rng, F3, 6, 4)
        assert intersect(s1, s2) == intersect(s2, s1)
        assert intersect(intersect(s1, s2), s3) == intersect(s1, intersect(s2, s3))


def test_intersect_contained_in_both():
    rng = random.Random(4)
    for _ in range(100):
        s1 = random_subspace(rng, F5, 6, 3)
        s2 = random_subspace(rng, F5, 6, 3)
        meet = intersect(s1, s2)
        for v in meet.basis:
            assert s1.contains(v) and s2.contains(v)


def test_subspace_equality_is_structural():
    a = span(F3, 3, [(1, 1, 0), (0, 0, 1)])
    b = span(F3, 3, [(1, 1, 1), (2, 2, 1)])
    assert a == b and hash(a) == hash(b)


def test_matf_validation():
    with pytest.raises(ValueError):
        MatF(F3, ((1, 2), (0,)))
    with pytest.raises(ValueError):
        MatF(F3, ((1, 5),))


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_rref_preserves_span_hypothesis(rows):
    red, _ = rref_rows(F3, [tuple(r) for r in rows])
    assert span(F3, 4, rows) == Subspace(F3, 4, red)


# ---------------------------------------------------------------------------
# F^3 coordinates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q, n", [(3, 3), (4, 3), (3, 6)])
def test_vec_index_and_decode_vector_round_trip(q, n):
    for idx in range(q**n):
        v = decode_vector(q, idx, n)
        assert len(v) == n and all(0 <= c < q for c in v)
        assert vec_index(q, v) == idx
    assert vec_index(q, (0, 1, 0, 0, 0, 1)) == q + q**5  # idx(x) + q^3 idx(y)


@pytest.mark.parametrize("q", [3, 4])
def test_f3_vectors_in_index_order(q):
    vecs = f3_vectors(q)
    assert len(vecs) == q**3 and len(set(vecs)) == q**3
    assert [vec_index(q, v) for v in vecs] == list(range(q**3))
    assert vecs[1] == (1, 0, 0) and vecs[q] == (0, 1, 0) and vecs[q * q] == (0, 0, 1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_image_table_is_mat_vec(q):
    fld = FIELDS[q]
    rng = random.Random(q)
    vecs = f3_vectors(q)
    for _ in range(4):
        rows = [random_vector(rng, fld, 3) for _ in range(3)]
        table = image_table(fld, list(zip(*rows)))  # the images of e_j are the columns
        assert table == [vec_index(q, mat_vec(fld, rows, v)) for v in vecs]
        c = random_vector(rng, fld, 3)
        assert image_table(fld, [(cj, 0, 0) for cj in c]) == [mat_vec(fld, [c], v)[0]
                                                             for v in vecs]


def test_cross_is_zero_iff_rank_below_two():
    vecs = f3_vectors(3)
    for a in vecs:
        for b in vecs:
            assert (not any(cross(F3, a, b))) == (len(rref_rows(F3, (a, b))[0]) < 2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_unit_row_is_the_line_representative(q):
    fld = FIELDS[q]
    assert unit_row(fld, (0, 0, 0)) == (0, 0, 0)
    for v in f3_vectors(q)[1:]:
        rep = unit_row(fld, v)
        assert next(c for c in rep if c) == 1
        assert rref_rows(fld, (v,))[0] == (rep,)
        for k in range(1, q):
            assert unit_row(fld, tuple(fld.mul(k, c) for c in v)) == rep


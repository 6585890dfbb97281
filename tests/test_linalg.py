from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from twistfield import gf
from twistfield.algebra3 import (TwistedFieldSpec, graph_keys, point_tables, right_mul_matrix,
                                 to_structure_constants, valid_c_values)
from twistfield.linalg import (
    Subspace,
    cross,
    decode_vector,
    det3,
    f3_vectors,
    identity_rows,
    image_table,
    intersect_rows,
    inverse_columns,
    kernel_rows,
    mat_vec,
    points,
    rref_rows,
    scaling_table,
    unit_row,
    vec_index,
)

from twistfield.splitalbert import SplitAlbertSpec

from reference_kernels import mat_inv

F2 = gf.Field.of_order(2)
F3 = gf.Field.of_order(3)
F4 = gf.Field.of_order(4)
F5 = gf.Field.of_order(5)

FIELDS = {2: F2, 3: F3, 4: F4, 5: F5}


def random_vector(rng, fld, n):
    return tuple(rng.randrange(fld.order) for _ in range(n))


def random_subspace(rng, fld, n, gens):
    """The RREF basis rows of the span of `gens` random vectors of F^n."""
    return rref_rows(fld, [random_vector(rng, fld, n) for _ in range(gens)])[0]


def test_rref_zero_matrix():
    m = ((0, 0, 0), (0, 0, 0))
    red, pivots = rref_rows(F3, m)
    assert red == () and pivots == ()


def test_rref_identity():
    m = ((1, 0), (0, 1))
    red, pivots = rref_rows(F3, m)
    assert red == m and len(red) == 2 and pivots == (0, 1)


def test_rref_rank_one_example():
    # over GF(3): det of ((1,2),(2,1)) is 1*1 - 2*2 = -3 = 0, so rank 1
    assert (1 * 1 - 2 * 2) % 3 == 0
    assert len(rref_rows(F3, ((1, 2), (2, 1)))[0]) == 1


def test_rref_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        m = tuple(random_vector(rng, F4, 5) for _ in range(3))
        red, _ = rref_rows(F4, m)
        again, _ = rref_rows(F4, red)
        assert red == again


def test_rref_canonical_for_equal_spans():
    rng = random.Random(1)
    for q in (2, 3, 4, 5):
        fld = FIELDS[q]
        for _ in range(30):
            s = random_subspace(rng, fld, 5, 3)
            # random invertible recombination of the basis
            rows = list(s)
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
            s2, _ = rref_rows(fld, mixed + list(rows))
            assert s2 == s


def test_span_trivial_cases():
    assert rref_rows(F3, []) == ((), ())
    v = (1, 2, 0, 1)
    two_v = tuple(F3.mul(2, c) for c in v)
    assert len(rref_rows(F3, [v, two_v])[0]) == 1


def test_kernel_trivial_cases():
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert kernel_rows(F5, ident, 4) == ()
    zero = ((0, 0, 0), (0, 0, 0))
    assert len(kernel_rows(F5, zero, 3)) == 3


def test_rank_nullity_random():
    rng = random.Random(2)
    for _ in range(1000):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 6)
        m = tuple(random_vector(rng, F5, ncols) for _ in range(nrows))
        assert len(rref_rows(F5, m)[0]) + len(kernel_rows(F5, m, ncols)) == ncols


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(200):
        m = tuple(random_vector(rng, F4, 5) for _ in range(3))
        for v in kernel_rows(F4, m, 5):
            for row in m:
                acc = 0
                for a, b in zip(row, v):
                    acc = F4.add(acc, F4.mul(a, b))
                assert acc == 0


def test_intersect_self_and_lines():
    s, _ = rref_rows(F3, [(1, 0, 0, 1, 2, 0), (0, 1, 0, 0, 1, 1)])
    assert intersect_rows(F3, s, s) == s
    assert intersect_rows(F3, ((1, 0),), ((1, 1),)) == ()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_modular_law_bulk(q):
    fld = FIELDS[q]
    rng = random.Random(q)
    for _ in range(10000):
        s1 = random_subspace(rng, fld, 6, 3)
        s2 = random_subspace(rng, fld, 6, 3)
        meet = intersect_rows(fld, s1, s2)
        join, _ = rref_rows(fld, s1 + s2)
        assert len(s1) + len(s2) == len(meet) + len(join)


def test_intersect_commutative_associative():
    rng = random.Random(9)
    for _ in range(100):
        s1 = random_subspace(rng, F3, 6, 4)
        s2 = random_subspace(rng, F3, 6, 4)
        s3 = random_subspace(rng, F3, 6, 4)
        assert intersect_rows(F3, s1, s2) == intersect_rows(F3, s2, s1)
        assert intersect_rows(F3, intersect_rows(F3, s1, s2), s3) == \
            intersect_rows(F3, s1, intersect_rows(F3, s2, s3))


def test_intersect_contained_in_both():
    rng = random.Random(4)
    for _ in range(100):
        s1 = Subspace(F5, 6, random_subspace(rng, F5, 6, 3))
        s2 = Subspace(F5, 6, random_subspace(rng, F5, 6, 3))
        for v in intersect_rows(F5, s1.basis, s2.basis):
            assert s1.contains(v) and s2.contains(v)


def test_subspace_equality_is_structural():
    a = Subspace(F3, 3, rref_rows(F3, [(1, 1, 0), (0, 0, 1)])[0])
    b = Subspace(F3, 3, rref_rows(F3, [(1, 1, 1), (2, 2, 1)])[0])
    assert a == b and hash(a) == hash(b)


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_rref_preserves_span_hypothesis(rows):
    # every input row lies in the span of the RREF rows, and the RREF rows are
    # combinations of the inputs: the two row spaces have the same dimension
    red, _ = rref_rows(F3, [tuple(r) for r in rows])
    space = Subspace(F3, 4, red)
    assert all(space.contains(tuple(r)) for r in rows)
    assert len(rref_rows(F3, [tuple(r) for r in rows] + list(red))[0]) == len(red)


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


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_image_table_is_mat_vec(q):
    # random maps, the zero map and a rank-1 map, each against mat_vec; then dot maps
    fld = gf.Field.of_order(q)
    rng = random.Random(q)
    vecs = f3_vectors(q)
    u, w = ((1, *random_vector(rng, fld, 2)) for _ in range(2))
    rank1 = [tuple(fld.mul(a, b) for b in w) for a in u]  # u w^T, u and w nonzero
    for rows in [[random_vector(rng, fld, 3) for _ in range(3)] for _ in range(4)] + [
            [(0, 0, 0)] * 3, rank1]:
        table = image_table(fld, list(zip(*rows)))  # the images of e_j are the columns
        assert table == [vec_index(q, mat_vec(fld, rows, v)) for v in vecs]
    for c in [random_vector(rng, fld, 3) for _ in range(4)] + [(0, 0, 0), (1, 0, 0)]:
        assert image_table(fld, [(cj, 0, 0) for cj in c]) == [mat_vec(fld, [c], v)[0]
                                                             for v in vecs]


def test_image_table_refuses_q_above_16():
    # two digits share a byte, so GF(17) cannot be tabulated this way
    with pytest.raises(ValueError, match="q <= 16"):
        image_table(gf.Field.of_order(17), identity_rows(3))


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


@pytest.mark.parametrize("q", [3, 4, 5])
def test_points_are_the_least_vector_of_each_line(q):
    fld = FIELDS[q]
    vecs = f3_vectors(q)
    assert len(points(q)) == q * q + q + 1
    lines = {rref_rows(fld, (vecs[a],))[0] for a in points(q)}
    assert len(lines) == q * q + q + 1  # one point per line
    for a in points(q):
        assert next(c for c in reversed(vecs[a]) if c) == 1
        assert a == min(vec_index(q, [fld.mul(k, c) for c in vecs[a]]) for k in range(1, q))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_inverse_columns_against_the_rref_inverse(q):
    fld = FIELDS[q]
    rng = random.Random(q)
    singular = 0
    for _ in range(60):
        rows = [random_vector(rng, fld, 3) for _ in range(3)]
        cols = inverse_columns(fld, rows)
        assert (cols is None) == (det3(fld, rows) == 0) == (len(rref_rows(fld, rows)[0]) < 3)
        if cols is None:
            singular += 1
        else:
            assert tuple(zip(*cols)) == mat_inv(fld, rows)
    assert singular  # the random draw met a singular matrix too
    assert det3(fld, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_scaling_table_scales_each_coordinate():
    s = (2, 0, 1)
    assert scaling_table(F3, s) == [vec_index(3, [F3.mul(c, d) for c, d in zip(s, v)])
                                    for v in f3_vectors(3)]


@pytest.mark.parametrize("q", [3, 4])
def test_graph_keys_are_the_rref_of_the_graph_rows(q):
    # a twisted field at every point x and every y, and a split Albert map at its regular
    # x and y: the graph {(R_x a, R_y a)} of R_y R_x^-1 has the RREF rows
    # (e_j | R_y R_x^-1 e_j), and k_j is the index of R_y R_x^-1 e_j
    tower = gf.FieldTower.build(q)
    twisted = to_structure_constants(TwistedFieldSpec(tower, valid_c_values(tower)[0]))
    split = SplitAlbertSpec(tower.base, (1, 1, 1) if q == 3 else (2, 1, 1))  # d0 d1 d2 != -1
    vecs = f3_vectors(q)
    regs = [v for v in vecs if all(v)]
    n, unit = q**3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for alg, xs, ys in ((twisted, [vecs[b] for b in points(q)], vecs), (split, regs, regs)):
        tables = {b: [table[vec_index(q, y)] for y in ys] for b, table in point_tables(alg).items()}
        keys = list(graph_keys(alg, xs, tables))
        assert [len(row) for row in keys] == [len(ys)] * len(xs)
        for x, row in zip(xs, keys):
            for y, key in zip(ys, row):
                graph = [rx + ry for rx, ry in zip(zip(*right_mul_matrix(alg, x)),
                                                   zip(*right_mul_matrix(alg, y)))]
                assert rref_rows(alg.field, graph)[0] == tuple(
                    e + decode_vector(q, key // n**j % n, 3) for j, e in enumerate(unit))


def test_graph_keys_name_the_singular_x():
    # R_x of a split Albert map is singular off the regular x: det R_x = (1 + d) x0 x1 x2
    spec = SplitAlbertSpec(F3, (1, 1, 1))
    keys = graph_keys(spec, [(1, 1, 1), (1, 2, 0), (0, 1, 1)], point_tables(spec))
    assert len(next(keys)) == 27
    with pytest.raises(RuntimeError, match=r"^R_x is singular at x = \(1, 2, 0\)$"):
        next(keys)

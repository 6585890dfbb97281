from __future__ import annotations

import itertools
import random

import pytest

from twistfield.algebra3 import mulvec, right_mul_matrix
from twistfield.engine.spaces import (
    DEGENERATE,
    NONDEGENERATE,
    ZERO,
    PairVector,
    av_subspace,
    classify,
    construct_two_dim_partner,
    intersection_dim,
    pair_rows,
    plane_representatives,
    solution_space,
)
from twistfield.linalg import Subspace, decode_vector, rref_rows


def all_vec3(q):
    return list(itertools.product(range(q), repeat=3))


def test_classification(alg3):
    F = alg3.field
    assert classify(F, PairVector((0, 0, 0), (0, 0, 0))) == ZERO
    assert classify(F, PairVector((1, 2, 0), (2, 1, 0))) == DEGENERATE
    assert classify(F, PairVector((1, 0, 0), (0, 1, 0))) == NONDEGENERATE


def test_av_of_zero_vector(alg3):
    assert av_subspace(alg3, PairVector((0, 0, 0), (0, 0, 0))).dim == 0


def test_av_of_x_zero_pair_is_a_plus_zero(alg3):
    # v = (x, 0) with x != 0: Av = A + 0
    expected = Subspace(alg3.field, 6, ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)))
    for x in all_vec3(3):
        if x == (0, 0, 0):
            continue
        assert av_subspace(alg3, PairVector(x, (0, 0, 0))) == expected


def test_av_of_degenerate_pair_is_diagonal(alg3):
    F = alg3.field
    for lam in (1, 2):
        for x in ((1, 0, 0), (1, 2, 1)):
            v = PairVector(x, tuple(F.mul(lam, c) for c in x))
            got = av_subspace(alg3, v)
            expected_rows = tuple(
                tuple(1 if j == i else 0 for j in range(3)) + tuple(lam if j == i else 0 for j in range(3))
                for i in range(3)
            )
            assert got == Subspace(F, 6, expected_rows)


def test_av_dimension_three_for_nonzero(alg3):
    for idx in range(1, 3**6, 7):
        coords = decode_vector(3, idx)
        v = PairVector(coords[:3], coords[3:])
        assert av_subspace(alg3, v).dim == 3


def test_pair_rows_match_right_mul_stack(alg3, alg4):
    # rows e_i v are the columns of the stacked right-multiplication matrices
    cases = [(alg, v) for alg in (alg3, alg4)
             for v in (PairVector((1, 2, 0), (0, 1, 1)), PairVector((2, 0, 1), (1, 1, 1)),
                       PairVector((0, 0, 0), (1, 0, 2)))]
    for alg, v in cases:
        rx = right_mul_matrix(alg, v.x).rows
        ry = right_mul_matrix(alg, v.y).rows
        rows = pair_rows(alg, v.x, v.y)
        for i in range(3):
            stacked_col = tuple(rx[k][i] for k in range(3)) + tuple(ry[k][i] for k in range(3))
            assert tuple(rows[i]) == stacked_col


def test_intersection_with_self(alg3):
    v = PairVector((1, 0, 2), (0, 1, 1))
    d, meet = intersection_dim(alg3, v, v)
    assert d == 3 and meet == av_subspace(alg3, v)


def test_nondegenerate_meets_degenerate_trivially(alg3):
    v = PairVector((1, 0, 0), (0, 1, 0))
    for x in ((1, 0, 0), (2, 1, 0), (1, 1, 1)):
        for lam in range(3):
            w = PairVector(x, tuple(alg3.field.mul(lam, c) for c in x))
            d, _ = intersection_dim(alg3, v, w)
            assert d == 0


def test_solution_space_contains_diagonal(alg3):
    v = PairVector((1, 0, 2), (0, 1, 1))
    s = solution_space(alg3, v, v)
    assert s.dim == 3
    for a in all_vec3(3):
        assert s.contains(a + a)


def test_solution_space_dim_equals_intersection_dim(alg3):
    v = PairVector((1, 0, 0), (0, 1, 0))
    for idx in range(1, 3**6):
        coords = decode_vector(3, idx)
        v2 = PairVector(coords[:3], coords[3:])
        d, _ = intersection_dim(alg3, v, v2)
        assert solution_space(alg3, v, v2).dim == d


def test_solution_space_rejects_zero(alg3):
    with pytest.raises(ValueError):
        solution_space(alg3, PairVector((0, 0, 0), (0, 0, 0)), PairVector((1, 0, 0), (0, 1, 0)))


def gl2(fld):
    q = fld.order
    out = []
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if fld.sub(fld.mul(a, d), fld.mul(b, c)) != 0:
            out.append(((a, b), (c, d)))
    return out


def test_frame_change_invariance(alg3):
    # right action v -> vP preserves the solution set and the intersection dim
    F = alg3.field
    rng = random.Random(0)
    v = PairVector((1, 0, 0), (0, 1, 0))
    v2 = PairVector((0, 1, 0), (0, 0, 1))
    s = solution_space(alg3, v, v2)
    d0, _ = intersection_dim(alg3, v, v2)
    for P in rng.sample(gl2(F), 10):
        def act(u):
            xn = tuple(F.add(F.mul(P[0][0], a), F.mul(P[1][0], b)) for a, b in zip(u.x, u.y))
            yn = tuple(F.add(F.mul(P[0][1], a), F.mul(P[1][1], b)) for a, b in zip(u.x, u.y))
            return PairVector(xn, yn)
        w, w2 = act(v), act(v2)
        assert solution_space(alg3, w, w2) == s
        d1, _ = intersection_dim(alg3, w, w2)
        assert d1 == d0


def test_row_recombination_transforms_solution_space(alg3):
    # (u; u') = Q (v; v') transports solutions by (a, -a') = (b, -b') Q
    F = alg3.field
    rng = random.Random(1)
    v = PairVector((1, 0, 0), (0, 1, 0))
    v2 = PairVector((0, 1, 0), (0, 0, 1))
    s = solution_space(alg3, v, v2)
    for Q in rng.sample(gl2(F), 10):
        def comb(r):
            x = tuple(F.add(F.mul(Q[r][0], a), F.mul(Q[r][1], b)) for a, b in zip(v.x, v2.x))
            y = tuple(F.add(F.mul(Q[r][0], a), F.mul(Q[r][1], b)) for a, b in zip(v.y, v2.y))
            return PairVector(x, y)
        u, u2 = comb(0), comb(1)
        imgs = []
        for row in solution_space(alg3, u, u2).basis:
            b, b2 = row[:3], row[3:]
            a = tuple(F.sub(F.mul(Q[0][0], p), F.mul(Q[1][0], r)) for p, r in zip(b, b2))
            a2 = tuple(F.sub(F.mul(Q[1][1], r), F.mul(Q[0][1], p)) for p, r in zip(b, b2))
            imgs.append(a + a2)
        assert Subspace(F, 6, rref_rows(F, imgs)[0]) == s


# -- the two-dim partner construction -----------------------------------------


def test_two_dim_partner_exhaustive(alg3):
    # every admissible (v, x') at q=3: 624 base vectors times 24 replacements
    from twistfield.linalg import added_rank

    F = alg3.field
    count = 0
    for idx in range(1, 3**6):
        coords = decode_vector(3, idx)
        v = PairVector(coords[:3], coords[3:])
        if classify(F, v) != NONDEGENERATE:
            continue
        base_rows, base_pivots = rref_rows(F, pair_rows(alg3, v.x, v.y))
        for x2 in all_vec3(3):
            if len(rref_rows(F, (v.x, x2))[0]) != 2:
                continue
            v2 = construct_two_dim_partner(alg3, v, x2)
            d = 3 - added_rank(F, base_rows, base_pivots, pair_rows(alg3, v2.x, v2.y))
            assert d == 2
            count += 1
    assert count == 624 * 24


def test_two_dim_partner_planes_agree(alg3):
    F = alg3.field
    v = PairVector((1, 0, 0), (0, 1, 0))
    for x2 in all_vec3(3):
        if len(rref_rows(F, (v.x, x2))[0]) != 2:
            continue
        v2 = construct_two_dim_partner(alg3, v, x2)
        _, meet = intersection_dim(alg3, v, v2)
        lhs = Subspace(F, 6, rref_rows(F, [
            mulvec(alg3, v2.x, v.x) + mulvec(alg3, v2.x, v.y),
            mulvec(alg3, v2.y, v.x) + mulvec(alg3, v2.y, v.y),
        ])[0])
        rhs = Subspace(F, 6, rref_rows(F, [
            mulvec(alg3, v.x, v2.x) + mulvec(alg3, v.x, v2.y),
            mulvec(alg3, v.y, v2.x) + mulvec(alg3, v.y, v2.y),
        ])[0])
        assert meet == lhs == rhs


def test_two_dim_partner_uniqueness_spot_checks(alg3):
    F = alg3.field
    rng = random.Random(5)
    v = PairVector((1, 0, 0), (0, 1, 0))
    for _ in range(25):
        x2 = tuple(rng.randrange(3) for _ in range(3))
        if len(rref_rows(F, (v.x, x2))[0]) != 2:
            continue
        v2 = construct_two_dim_partner(alg3, v, x2)
        delta = tuple(rng.randrange(3) for _ in range(3))
        if delta == (0, 0, 0):
            continue
        perturbed = PairVector(x2, tuple(F.add(a, b) for a, b in zip(v2.y, delta)))
        d, _ = intersection_dim(alg3, v, perturbed)
        assert d < 2


def test_two_dim_partner_preconditions(alg3, alg4):
    v = PairVector((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="independent"):
        construct_two_dim_partner(alg3, v, (1, 0, 0))
    with pytest.raises(ValueError, match="independent"):
        construct_two_dim_partner(alg3, v, (2, 0, 0))
    with pytest.raises(ValueError, match="nondegenerate"):
        construct_two_dim_partner(alg3, PairVector((1, 0, 0), (2, 0, 0)), (0, 1, 0))
    assert not alg4.is_commutative()
    with pytest.raises(ValueError, match="commutative"):
        construct_two_dim_partner(alg4, v, (0, 1, 0))


def test_plane_representatives_count(alg3, alg4):
    reps3 = plane_representatives(alg3.field)
    assert len(reps3) == 13
    assert len({rref_rows(alg3.field, (v.x, v.y))[0] for v in reps3}) == 13
    reps4 = plane_representatives(alg4.field)
    assert len(reps4) == 21
    for v in reps4:
        assert classify(alg4.field, v) == NONDEGENERATE

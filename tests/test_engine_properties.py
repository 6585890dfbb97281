"""Structural facts about nontrivial intersections, checked against enumeration."""

from __future__ import annotations

import random

import pytest

from twistfield.algebra3 import (
    TwistedFieldSpec,
    left_mul_matrix,
    mulvec,
    pick_c_by_norm,
    to_structure_constants,
)
from twistfield.engine.census import hit_span_conditions, span_frame
from twistfield.engine.spaces import (
    DEGENERATE,
    NONDEGENERATE,
    PairVector,
    av_subspace,
    classify,
    intersection_dim,
    pair_rows,
    plane_representatives,
    solve3,
)
from twistfield.linalg import Subspace, added_rank, decode_vector, intersect_rows, rref_rows


def nondeg_vectors(fld):
    q = fld.order
    for idx in range(1, q**6):
        coords = decode_vector(q, idx)
        v = PairVector(coords[:3], coords[3:])
        if classify(fld, v) == NONDEGENERATE:
            yield v


# -- degenerate base vectors ---------------------------------------------------


@pytest.mark.parametrize("which", ["q3", "q4"])
def test_degenerate_meets_trivially_or_equals(which, alg3, inv3, alg4, inv4):
    alg, inv = (alg3, inv3) if which == "q3" else (alg4, inv4)
    fld = alg.field
    q = fld.order
    deg_spaces = [rec for rec in inv.spaces if rec.kind == DEGENERATE]
    assert len(deg_spaces) == q + 1
    for rec in deg_spaces:
        assert rec.fiber == q**3 - 1  # one space per degenerate line
        for other in inv.spaces:
            d = len(other.rows) - added_rank(fld, rec.rows, rec.pivots, other.rows)
            if other.rows == rec.rows:
                assert d == 3
            else:
                assert d == 0


def test_degenerate_vector_level_q3(alg3):
    # v = (x, lambda x): Av meet Av' != 0 iff v' spans the same degenerate line
    fld = alg3.field
    v = PairVector((1, 2, 0), (2, 1, 0))  # y = 2x
    base_rows, base_pivots = rref_rows(fld, pair_rows(alg3, v.x, v.y))
    for idx in range(1, 3**6, 5):
        coords = decode_vector(3, idx)
        v2 = PairVector(coords[:3], coords[3:])
        d = 3 - added_rank(fld, base_rows, base_pivots, pair_rows(alg3, v2.x, v2.y))
        same_line = classify(fld, v2) == DEGENERATE and \
            av_subspace(alg3, v2) == Subspace(fld, 6, base_rows)
        assert (d != 0) == same_line
        if d != 0:
            assert d == 3


# -- shared x-line ---------------------------------------------------------------


def test_shared_x_line_exhaustive_q3(alg3):
    # v = (x, y), v' = (lambda x, y'): nontrivial meet only at v' = lambda v
    fld = alg3.field
    for xi in range(1, 27):
        x = (xi % 3, xi // 3 % 3, xi // 9)
        for yi in range(27):
            y = (yi % 3, yi // 3 % 3, yi // 9)
            base_rows, base_pivots = rref_rows(fld, pair_rows(alg3, x, y))
            for lam in (1, 2):
                lx = tuple(fld.mul(lam, c) for c in x)
                ly = tuple(fld.mul(lam, c) for c in y)
                for y2i in range(27):
                    y2 = (y2i % 3, y2i // 3 % 3, y2i // 9)
                    d = 3 - added_rank(fld, base_rows, base_pivots,
                                       pair_rows(alg3, lx, y2))
                    assert (d != 0) == (y2 == ly)


# -- equal coordinate planes -----------------------------------------------------


def _check_equal_plane_prop(alg):
    fld = alg.field
    q = fld.order
    for rep in plane_representatives(fld):
        r0, r1 = rep.x, rep.y
        elements = {}
        for a in range(q):
            for b in range(q):
                vec = tuple(fld.add(fld.mul(a, r0[i]), fld.mul(b, r1[i])) for i in range(3))
                if vec != (0, 0, 0):
                    s = fld.inv(next(c for c in vec if c))
                    elements[vec] = tuple(fld.mul(s, c) for c in vec)  # projective rep
        members = list(elements)
        bases = [(x, y) for x in members for y in members if elements[x] != elements[y]]
        keys = {}
        data = {}
        for x, y in bases:
            rows, pivots = rref_rows(fld, pair_rows(alg, x, y))
            keys[(x, y)] = rows
            data[rows] = (rows, pivots)
        dimmat = {}
        for k1, (rows1, piv1) in data.items():
            for k2, (rows2, _) in data.items():
                dimmat[(k1, k2)] = 3 - added_rank(fld, rows1, piv1, rows2)
        for x, y in bases:
            for x2, y2 in bases:
                if elements[x] == elements[x2] or elements[y] == elements[y2]:
                    continue  # <x,x'> or <y,y'> degenerates
                assert dimmat[(keys[(x, y)], keys[(x2, y2)])] == 0


def test_equal_coordinate_planes_meet_trivially_q3(alg3):
    _check_equal_plane_prop(alg3)


def test_equal_coordinate_planes_meet_trivially_q4(alg4):
    _check_equal_plane_prop(alg4)


# -- span conditions on every nontrivial hit -------------------------------------


@pytest.mark.parametrize("which", ["q3", "q4"])
def test_hits_force_span_conditions(which, alg3, inv3, alg4, inv4):
    alg, inv = (alg3, inv3) if which == "q3" else (alg4, inv4)
    fld = alg.field
    rng = random.Random(17)
    vectors = list(nondeg_vectors(fld))
    for v in rng.sample(vectors, 60):
        base_rows, base_pivots = rref_rows(fld, pair_rows(alg, v.x, v.y))
        frame = span_frame(fld, v)
        for rec in inv.spaces:
            d = len(rec.rows) - added_rank(fld, base_rows, base_pivots, rec.rows)
            if d in (1, 2):
                assert hit_span_conditions(frame, rec.rep), (v, rec.rep, d)


# -- dim-2 planes: distinctness and the bijection onto non-base planes -----------


def test_two_dim_planes_biject_q3(alg3, inv3):
    fld = alg3.field
    q = 3
    patterns = [(p.x, p.y) for p in plane_representatives(fld)]
    for v in nondeg_vectors(fld):
        base_rows, base_pivots = rref_rows(fld, pair_rows(alg3, v.x, v.y))
        mv_rows, _ = rref_rows(fld, (
            tuple(mulvec(alg3, v.x, v.x)) + tuple(mulvec(alg3, v.x, v.y)),
            tuple(mulvec(alg3, v.y, v.x)) + tuple(mulvec(alg3, v.y, v.y)),
        ))
        planes = set()
        for rec in inv3.spaces:
            if len(rec.rows) - added_rank(fld, base_rows, base_pivots, rec.rows) == 2:
                meet = intersect_rows(fld, base_rows, rec.rows)
                assert meet not in planes  # distinct spaces give distinct planes
                planes.add(meet)
        assert len(planes) == q * q + q
        assert mv_rows not in planes
        # the planes plus <x,y>v exhaust the 2-dim subspaces of Av
        all_planes = set()
        for pr0, pr1 in patterns:
            rows = []
            for pat in (pr0, pr1):
                vec = [0] * 6
                for j, c in enumerate(pat):
                    if c:
                        for i, b in enumerate(base_rows[j]):
                            vec[i] = fld.add(vec[i], fld.mul(c, b))
                rows.append(tuple(vec))
            all_planes.add(rref_rows(fld, rows)[0])
        assert all_planes == planes | {mv_rows}


# -- trichotomy for a v = a' v' ---------------------------------------------------


def _trichotomy_samples(spec, rng, count):
    alg = to_structure_constants(spec)
    fld = alg.field
    q = fld.order
    commutative = spec.tower.norm(spec.c) == fld.neg(1)
    vectors = list(nondeg_vectors(fld))
    for _ in range(count):
        v = rng.choice(vectors)
        a = tuple(rng.randrange(q) for _ in range(3))
        a2 = tuple(rng.randrange(q) for _ in range(3))
        if a == (0, 0, 0) or a2 == (0, 0, 0):
            continue
        # v' with a' v' = a v
        try:
            x2 = solve3(fld, left_mul_matrix(alg, a2), mulvec(alg, a, v.x))
            y2 = solve3(fld, left_mul_matrix(alg, a2), mulvec(alg, a, v.y))
        except ValueError:
            continue
        v2 = PairVector(x2, y2)
        d, meet = intersection_dim(alg, v, v2)
        same_a_line = len(rref_rows(fld, (a, a2))[0]) == 1
        same_space = av_subspace(alg, v) == av_subspace(alg, v2)
        assert same_a_line == same_space
        if same_a_line:
            continue
        av = tuple(mulvec(alg, a, v.x)) + tuple(mulvec(alg, a, v.y))
        if commutative:
            in_plane = len(rref_rows(fld, (v.x, v.y, a2))[0]) == 2
            if in_plane:
                assert d == 2
            else:
                assert d == 1 and meet == Subspace(fld, 6, rref_rows(fld, [av])[0])
        else:
            assert d == 1 and meet == Subspace(fld, 6, rref_rows(fld, [av])[0])


def test_trichotomy_commutative_q3(comm3):
    _trichotomy_samples(comm3, random.Random(31), 300)


def test_trichotomy_noncommutative_q4(noncomm4):
    _trichotomy_samples(noncomm4, random.Random(41), 150)


def test_trichotomy_noncommutative_q5(tower5):
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, 2))
    assert spec.tower.norm(spec.c) == 2
    _trichotomy_samples(spec, random.Random(51), 60)


# -- regularity of the action ------------------------------------------------------


@pytest.mark.parametrize("which", ["q3", "q4"])
def test_action_injective_for_nonzero_v(which, alg3, alg4):
    alg = alg3 if which == "q3" else alg4
    fld = alg.field
    q = fld.order
    rng = random.Random(7)
    for _ in range(200):
        idx = rng.randrange(1, q**6)
        coords = decode_vector(q, idx)
        rows = pair_rows(alg, coords[:3], coords[3:])
        assert len(rref_rows(fld, rows)[0]) == 3

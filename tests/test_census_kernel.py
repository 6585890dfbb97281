"""The rank-free census kernel against the rank-test reference, and the checks it makes."""

from __future__ import annotations

import dataclasses
import random
from array import array

import pytest

from twistfield.algebra3 import (
    Algebra3,
    IsotopyClass,
    TwistedFieldSpec,
    isotopy_class,
    left_division_tables,
    pick_c_by_norm,
    to_structure_constants,
)
from twistfield.engine import DEGENERATE, NONDEGENERATE, PairVector, census, classify
from twistfield.engine.census import (
    DIM_KEYS,
    build_inventory,
    decode_vector,
    index_chunks,
    line_profile,
    per_vector_profile,
    plane_algebra,
    predicted_line_profile,
    scan_all_nondegenerate,
)
from twistfield.engine.spaces import pair_rows
from twistfield.gf import parse_triple
from twistfield.linalg import Subspace, added_rank, intersect_rows, rref_rows

V0 = PairVector((1, 0, 0), (0, 1, 0))


# -- the rank-test reference (the census before the kernel) ----------------------


def reference_profile(alg, v, inventory):
    """Vector and space tallies by one added_rank per distinct Av', and the hits."""
    fld = alg.field
    base_rows, base_pivots = rref_rows(fld, pair_rows(alg, v.x, v.y))
    assert len(base_rows) == 3
    vectors = dict.fromkeys(DIM_KEYS, 0)
    spaces = dict.fromkeys(DIM_KEYS, 0)
    hits = []
    for rec in inventory.spaces:
        d = 3 - added_rank(fld, base_rows, base_pivots, rec.rows)
        key = "dim0_" + rec.kind if d == 0 else f"dim{d}"
        vectors[key] += rec.fiber
        spaces[key] += 1
        if d in (1, 2):
            hits.append((d, rec))
    return base_rows, base_pivots, vectors, spaces, hits


def reference_lines(plane_alg, v, base_rows, base_pivots, hits):
    """{line: (vectors, in base plane)} by intersect_rows, membership by added_rank."""
    fld = plane_alg.field
    mv_rows, mv_pivots = rref_rows(fld, (
        tuple(plane_alg.mulvec(v.x, v.x)) + tuple(plane_alg.mulvec(v.x, v.y)),
        tuple(plane_alg.mulvec(v.y, v.x)) + tuple(plane_alg.mulvec(v.y, v.y)),
    ))
    counts = {}
    for d, rec in hits:
        if d == 1:
            line = intersect_rows(fld, base_rows, base_pivots, rec.rows)
            counts[line] = counts.get(line, 0) + rec.fiber
    return {line: (n, added_rank(fld, mv_rows, mv_pivots, line) == 0)
            for line, n in counts.items()}


def assert_kernel_matches_reference(alg, inventory, plane_alg, v):
    base_rows, base_pivots, vectors, spaces, hits = reference_profile(alg, v, inventory)
    meet = census._meet(inventory, v)
    assert meet.vectors == vectors, v
    assert meet.spaces == spaces, v
    assert sorted((d, r.first_index) for d, r in meet.hits) == \
        sorted((d, r.first_index) for d, r in hits), v
    ref_lines = reference_lines(plane_alg, v, base_rows, base_pivots, hits)
    if classify(alg.field, v) == NONDEGENERATE:
        assert census._lines(plane_alg, v, meet) == ref_lines, v
    else:  # the base plane <x,y>v is not two-dimensional, and no v' meets Av in a line
        assert 1 not in meet.mult.values() and ref_lines == {}, v
    return ref_lines


def reference_inventory(alg):
    """(spaces, space_of) by the rank sweep: one RREF of Av' per v', in index chunks."""
    partials = [reference_scan_range(alg, start, end)
                for start, end in index_chunks(alg.field.order**6)]
    merged: dict = {}
    for found, _ in partials:
        for rows, pivots, kind, fiber, rep, first in found:
            rec = merged.get(rows)
            if rec is None:
                merged[rows] = [rows, pivots, kind, fiber, rep, first]
            else:
                rec[3] += fiber
                if first < rec[5]:
                    rec[4], rec[5] = rep, first
    fld = alg.field
    spaces = []
    position = {}
    for rows, pivots, kind, fiber, rep, first in sorted(merged.values(), key=lambda r: r[5]):
        plane = None
        if kind == NONDEGENERATE:
            plane = rref_rows(fld, (tuple(rep[:3]), tuple(rep[3:])))[0]
        position[rows] = len(spaces)
        spaces.append((tuple(rows), tuple(pivots), kind, fiber, tuple(rep), first, plane))
    space_of = array("i")
    for found, local in partials:
        ids = [position[rec[0]] for rec in found] + [-1]  # a local -1 maps to ids[-1]
        space_of.extend(ids[i] for i in local)
    return spaces, space_of


def reference_scan_range(alg, start, end):
    fld = alg.field
    q = fld.order
    found: dict = {}
    local = array("i", [-1] * (start == 0))
    for idx in range(max(start, 1), end):
        coords = decode_vector(q, idx)
        x, y = coords[:3], coords[3:]
        rows, pivots = rref_rows(fld, pair_rows(alg, x, y))
        rec = found.get(rows)
        if rec is None:
            stack, _ = rref_rows(fld, (x, y))
            kind = NONDEGENERATE if len(stack) == 2 else DEGENERATE
            rec = found[rows] = [rows, pivots, kind, 0, coords, idx, len(found)]
        rec[3] += 1
        local.append(rec[6])
    return [rec[:6] for rec in found.values()], local


def assert_inventory_matches_reference(alg, inventory):
    spaces, space_of = reference_inventory(alg)
    assert [(r.rows, r.pivots, r.kind, r.fiber, r.rep, r.first_index, r.plane)
            for r in inventory.spaces] == spaces
    assert inventory.space_of == space_of


def twisted(tower, c_literal):
    spec = TwistedFieldSpec(tower, parse_triple(tower, c_literal))
    return spec, to_structure_constants(spec)


def seeded_vectors(fld, seed, count, kind=NONDEGENERATE):
    rng = random.Random(seed)
    q = fld.order
    out = []
    while len(out) < count:
        coords = decode_vector(q, rng.randrange(1, q**6))
        v = PairVector(coords[:3], coords[3:])
        if classify(fld, v) == kind:
            out.append(v)
    return out


# -- cross-checks ------------------------------------------------------------------


@pytest.mark.parametrize("c", ["[2,0,0]", "[0,1,0]"])
def test_kernel_matches_reference_for_every_v_q3(tower3, c):
    spec, alg = twisted(tower3, c)
    assert isotopy_class(spec) is IsotopyClass.COMMUTATIVE_ISOTOPIC
    inv = build_inventory(alg)
    plane_alg = plane_algebra(alg)
    seen = 0
    for idx in range(1, 3**6):
        coords = decode_vector(3, idx)
        v = PairVector(coords[:3], coords[3:])
        lines = assert_kernel_matches_reference(alg, inv, plane_alg, v)
        if classify(alg.field, v) == NONDEGENERATE:
            seen += 1
            assert len(lines) == 3**2 + 3 + 1
        else:
            assert lines == {}
    assert seen == (3**3 - 1) * (3**3 - 3)


def test_kernel_matches_reference_q4(alg4, inv4):
    plane_alg = plane_algebra(alg4)
    assert plane_alg is alg4  # non-commutative: no commutative isotope
    for v in seeded_vectors(alg4.field, 4, 50):
        assert_kernel_matches_reference(alg4, inv4, plane_alg, v)
    for v in seeded_vectors(alg4.field, 44, 5, DEGENERATE):
        assert assert_kernel_matches_reference(alg4, inv4, plane_alg, v) == {}


@pytest.mark.parametrize("norm", ["-1", "2"])
def test_kernel_matches_reference_q5(tower5, norm):
    fld = tower5.base
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, fld.neg(1) if norm == "-1" else 2))
    alg = to_structure_constants(spec)
    inv = build_inventory(alg)
    plane_alg = plane_algebra(alg)
    assert (plane_alg is alg) == (isotopy_class(spec) is IsotopyClass.NON_COMMUTATIVE)
    for v in seeded_vectors(fld, 5, 25):
        assert_kernel_matches_reference(alg, inv, plane_alg, v)
    for v in seeded_vectors(fld, 55, 3, DEGENERATE):
        assert assert_kernel_matches_reference(alg, inv, plane_alg, v) == {}


def test_line_witnesses_match_reference(alg3, inv3):
    rep = line_profile(alg3, V0, inventory=inv3, algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    base_rows, base_pivots, _, _, hits = reference_profile(alg3, V0, inv3)
    ref = reference_lines(alg3, V0, base_rows, base_pivots, hits)
    assert rep.witnesses == [
        {"line": Subspace(alg3.field, 6, line).to_json(), "vectors": n, "in_base_plane": inside}
        for line, (n, inside) in sorted(ref.items())
    ]


# -- the tables and the inventory ----------------------------------------------------


@pytest.mark.parametrize("c", ["[2,0,0]", "[0,1,0]"])
def test_inventory_matches_rank_sweep_q3(tower3, c):
    _, alg = twisted(tower3, c)
    assert_inventory_matches_reference(alg, build_inventory(alg))


def test_inventory_matches_rank_sweep_q4(alg4, inv4):
    assert not alg4.is_commutative()
    assert_inventory_matches_reference(alg4, inv4)


@pytest.mark.parametrize("norm", ["-1", "2"])
def test_inventory_matches_rank_sweep_q5(tower5, norm):
    fld = tower5.base
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, fld.neg(1) if norm == "-1" else 2))
    alg = to_structure_constants(spec)
    assert_inventory_matches_reference(alg, build_inventory(alg))


@pytest.mark.parametrize("which", ["q3", "q4"])
def test_left_division_tables_match_products(which, alg3, alg4):
    alg = alg3 if which == "q3" else alg4
    q = alg.field.order
    n = q**3
    vec = [(i % q, i // q % q, i // (q * q)) for i in range(n)]
    index = {w: i for i, w in enumerate(vec)}
    mul, ldiv = left_division_tables(alg)
    assert len(mul) == len(ldiv) == n * n
    for a in range(n):
        for x in range(n):
            assert mul[a * n + x] == index[alg.mulvec(vec[a], vec[x])]
            if a:
                assert ldiv[a * n + mul[a * n + x]] == x


def test_space_of_places_every_vector_in_its_space(alg3, inv3):
    fld = alg3.field
    assert inv3.space_of[0] == -1
    assert len(inv3.space_of) == 3**6
    counts = [0] * len(inv3.spaces)
    for idx in range(1, 3**6):
        coords = decode_vector(3, idx)
        rec = inv3.spaces[inv3.space_of[idx]]
        assert rec.rows == rref_rows(fld, pair_rows(alg3, coords[:3], coords[3:]))[0]
        counts[inv3.space_of[idx]] += 1
    assert counts == [r.fiber for r in inv3.spaces]
    assert inv3.totals == {NONDEGENERATE: (624, 312), DEGENERATE: (104, 4)}


def test_space_of_does_not_depend_on_workers_or_chunks(alg3, inv3, monkeypatch):
    assert build_inventory(alg3, workers=2).space_of == inv3.space_of
    monkeypatch.setattr(census, "CHUNK", 100)
    assert build_inventory(alg3).space_of == inv3.space_of


def test_inventory_repr_and_equality_skip_the_tables(alg3, inv3):
    text = repr(inv3)
    for name in ("space_of", "mul", "ldiv", "totals"):
        assert name not in text
    assert dataclasses.replace(inv3, space_of=array("i")) == inv3


# -- the checks the run makes ----------------------------------------------------------


def test_zero_divisors_raise_runtime_error(tower3):
    # componentwise product on F^3: e_i e_j = delta_ij e_i, so e_0 e_1 = 0
    fld = tower3.base
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = (0, 0, 0)
    alg = Algebra3(fld, tuple(tuple(unit[i] if i == j else zero for j in range(3))
                              for i in range(3)))
    with pytest.raises(RuntimeError, match="not a division algebra"):
        left_division_tables(alg)
    with pytest.raises(RuntimeError):
        per_vector_profile(alg, V0)


def test_missing_division_vector_raises_runtime_error(alg3, monkeypatch):
    # column x' = e_0 of mul stops reaching e_0 (index 1): no a with a e_0 = e_0
    n = 27
    mul, ldiv = left_division_tables(alg3)
    mul = array("H", mul)
    a = mul[1::n].index(1)
    mul[a * n + 1] = 0
    monkeypatch.setattr(census, "left_division_tables", lambda alg: (mul, ldiv))
    with pytest.raises(RuntimeError, match="not a division algebra"):
        build_inventory(alg3)


def test_corrupted_space_of_raises_runtime_error(alg3, inv3):
    meet = census._meet(inv3, V0)
    vi = next(i for i, m in meet.mult.items() if m == 1)  # a v' with d = 1
    other = next(i for i in range(len(inv3.spaces)) if i != inv3.space_of[vi])
    space_of = array("i", inv3.space_of)
    space_of[vi] = other
    broken = dataclasses.replace(inv3, space_of=space_of)
    with pytest.raises(RuntimeError):
        per_vector_profile(alg3, V0, inventory=broken,
                           algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)


def test_wrong_multiplicity_raises_runtime_error(alg3, inv3):
    # make a' = 2 reach the same v' as a' = 1 from the first generator of Av
    n = 27
    w1, w2 = census._meet(inv3, V0).gens[0]
    ldiv = array("H", inv3.ldiv)
    ldiv[2 * n + w1], ldiv[2 * n + w2] = ldiv[n + w1], ldiv[n + w2]
    broken = dataclasses.replace(inv3, ldiv=ldiv)
    with pytest.raises(RuntimeError, match="reached"):
        census._meet(broken, V0)


# -- replayable scan witnesses -----------------------------------------------------------


def test_scan_witnesses_name_failed_checks_and_carry_lines(alg3, monkeypatch):
    q = 3
    cls = IsotopyClass.COMMUTATIVE_ISOTOPIC
    true_lines = predicted_line_profile(q, cls)
    wrong = {"in_base_plane": {}, "outside_base_plane": {}}
    monkeypatch.setattr(census, "predicted_line_profile", lambda q, c: wrong)
    rep = scan_all_nondegenerate(alg3, algebra_class=cls)
    assert rep.match is False
    assert rep.observed == {"vectors_checked": 624, "mismatches": 624}
    assert len(rep.witnesses) == 5
    for w in rep.witnesses:
        assert w["failed"] == ["lines"]
        assert w["observed"]["lines"] == true_lines
        v = PairVector(*w["v"])
        replay = per_vector_profile(alg3, v, algebra_class=cls)
        assert {**w["observed"]["vectors"], "zero_vector": 1} == replay.observed["vectors"]
        assert w["observed"]["spaces"] == replay.observed["spaces"]
        assert line_profile(alg3, v).observed == true_lines


def test_scan_witnesses_name_tally_and_complement(alg3, monkeypatch):
    cls = IsotopyClass.COMMUTATIVE_ISOTOPIC
    monkeypatch.setattr(census, "predicted_complementary_spaces", lambda q, c, k: -1)
    rep = scan_all_nondegenerate(alg3, algebra_class=cls, with_lines=False)
    assert rep.observed["mismatches"] == 624
    assert all(w["failed"] == ["complement"] and "lines" not in w["observed"]
               for w in rep.witnesses)
    real = census.predicted_profile
    monkeypatch.setattr(census, "predicted_profile",
                        lambda q, c, k: ({**real(q, c, k)[0], "dim3": 0}, real(q, c, k)[1]))
    rep = scan_all_nondegenerate(alg3, algebra_class=cls, with_lines=False)
    assert all(w["failed"] == ["tally", "complement"] for w in rep.witnesses)
    monkeypatch.setattr(census, "hit_span_conditions", lambda frame, rec: False)
    rep = scan_all_nondegenerate(alg3, algebra_class=cls, with_lines=False)
    assert all(w["failed"] == ["tally", "complement", "span"] for w in rep.witnesses)

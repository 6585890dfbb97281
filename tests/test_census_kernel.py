"""The rank-free census kernel against the rank-test reference, and the checks it makes."""

from __future__ import annotations

import random
import tracemalloc
from array import array
from collections import Counter

import pytest

from twistfield import algebra3
from twistfield.algebra3 import (
    Algebra3,
    IsotopyClass,
    TwistedFieldSpec,
    isotopy_class,
    mulvec,
    pick_c_by_norm,
    to_structure_constants,
    valid_c_values,
)
from twistfield.engine import census
from twistfield.engine.census import (
    DIM_KEYS,
    REPRESENTATIVE,
    build_inventory,
    certified_tables,
    index_chunks,
    line_profile,
    per_vector_profile,
    plane_algebra,
    predicted_line_profile,
    scan_all_nondegenerate,
    scan_orbit,
)
from twistfield.engine.spaces import DEGENERATE, NONDEGENERATE, PairVector, classify, pair_rows
from twistfield.engine.verify import verify_theorem_B
from twistfield.gf import FieldTower, parse_elem, parse_triple
from twistfield.linalg import (Subspace, added_rank, decode_vector, f3_vectors, intersect_rows,
                               points, rref_rows)

from reference_kernels import (left_division_tables, reference_build_inventory,
                               reference_meet_all, with_space_of)

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
    return base_rows, vectors, spaces, hits


def reference_lines(plane_alg, v, base_rows, hits):
    """{line: (vectors, in base plane)} by intersect_rows, membership by added_rank."""
    fld = plane_alg.field
    mv_rows, mv_pivots = rref_rows(fld, (
        tuple(mulvec(plane_alg, v.x, v.x)) + tuple(mulvec(plane_alg, v.x, v.y)),
        tuple(mulvec(plane_alg, v.y, v.x)) + tuple(mulvec(plane_alg, v.y, v.y)),
    ))
    counts = {}
    for d, rec in hits:
        if d == 1:
            line = intersect_rows(fld, base_rows, rec.rows)
            counts[line] = counts.get(line, 0) + rec.fiber
    return {line: (n, added_rank(fld, mv_rows, mv_pivots, line) == 0)
            for line, n in counts.items()}


def assert_kernel_matches_reference(alg, inventory, plane_alg, v):
    base_rows, vectors, spaces, hits = reference_profile(alg, v, inventory)
    meet = census.meet_all(inventory, v)
    assert meet.vectors == vectors, v
    assert meet.spaces == spaces, v
    assert sorted(meet.hits) == sorted((d, r.first_index) for d, r in hits), v
    ref_lines = reference_lines(plane_alg, v, base_rows, hits)
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
    spaces = []
    position = {}
    for rows, pivots, kind, fiber, rep, first in sorted(merged.values(), key=lambda r: r[5]):
        position[rows] = len(spaces)
        spaces.append((tuple(rows), tuple(pivots), kind, fiber, tuple(rep), first))
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
    assert [(r.rows, r.pivots, r.kind, r.fiber, r.rep, r.first_index)
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
    base_rows, _, _, hits = reference_profile(alg3, V0, inv3)
    ref = reference_lines(alg3, V0, base_rows, hits)
    assert rep.witnesses == [
        {"line": Subspace(alg3.field, 6, line).to_json(), "vectors": n, "in_base_plane": inside}
        for line, (n, inside) in sorted(ref.items())
    ]


# -- the keyed kernel against the position-based reference ---------------------------


KEYED_VS = [V0, PairVector((1, 2, 0), (0, 1, 1)),  # nondegenerate
            PairVector((1, 1, 0), (2, 2, 0)), PairVector((0, 0, 0), (0, 1, 1))]  # degenerate


def assert_keyed_matches_reference(spec):
    """`meet_all` on the certified tables and on the inventory against `reference_meet_all`:
    tallies, hits (as least indices), lines (against `reference_lines`) and Theorem B's
    witness."""
    tables = certified_tables(spec)
    alg, plane_alg = tables.alg, tables.plane_alg
    inv = build_inventory(alg)
    assert tables.totals == inv.totals
    q_tables = left_division_tables(alg)
    for v in KEYED_VS:
        ref = reference_meet_all(inv, v, q_tables)
        ref_hits = sorted((d, inv.first[pos]) for d, pos in ref.hits)
        nondegenerate = classify(alg.field, v) == NONDEGENERATE
        if nondegenerate:
            base_rows = rref_rows(alg.field, pair_rows(alg, v.x, v.y))[0]
            ref_lines = reference_lines(plane_alg, v, base_rows,
                                        [(d, inv.spaces[pos]) for d, pos in ref.hits])
        for got in (census.meet_all(tables, v), census.meet_all(inv, v)):
            assert (got.vectors, got.spaces) == (ref.vectors, ref.spaces), v
            assert sorted(got.hits) == ref_hits, v
            if nondegenerate:
                assert census._lines(plane_alg, v, got) == ref_lines, v
            else:
                assert 1 not in got.mult.values(), v
    two_dim = [pos for d, pos in reference_meet_all(inv, REPRESENTATIVE, q_tables).hits
               if d == 2]
    rep = inv.spaces[min(two_dim)].rep if two_dim else None
    want = [{"v": REPRESENTATIVE.to_json(), "v2": [list(rep[:3]), list(rep[3:])]}] if rep else []
    assert verify_theorem_B(spec).witnesses == want
    return bool(want)


@pytest.mark.parametrize("which", ["tower3", "tower3_alt"])
def test_keyed_kernel_matches_reference_for_every_c_q3(which, request):
    tower = request.getfixturevalue(which)
    assert all(assert_keyed_matches_reference(TwistedFieldSpec(tower, c))
               for c in valid_c_values(tower))  # every c is commutative-isotopic at q=3


@pytest.mark.parametrize("q", [4, 5, 7])
def test_keyed_kernel_matches_reference(q, request):
    """Two c per q, one of each class where both exist (q=4 has only the non-commutative)."""
    tower = request.getfixturevalue("tower4") if q == 4 else (
        request.getfixturevalue("tower5") if q == 5 else FieldTower.build(7))
    if q == 4:
        cs = valid_c_values(tower)[::41]
    else:
        cs = [pick_c_by_norm(tower, tower.base.neg(1)), pick_c_by_norm(tower, 2)]
    witnesses = [assert_keyed_matches_reference(TwistedFieldSpec(tower, c)) for c in cs]
    assert witnesses == ([False, False] if q == 4 else [True, False])


def test_fiber_that_does_not_divide_raises_runtime_error(comm3, monkeypatch):
    real = census.division_tables

    def division_tables(alg):  # four more classes keyed as A(e_0, e_1): a fiber of 10,
        division = real(alg)  # and 624 % 10 = 4
        keys = division.keys
        keys[max(keys)][1:5] = array("q", [keys[1][3]] * 4)
        return division

    monkeypatch.setattr(census, "division_tables", division_tables)
    with pytest.raises(RuntimeError, match="do not divide the 624"):
        certified_tables(comm3)


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


def assert_columns_match_dict_build(alg):
    inventory = build_inventory(alg)
    ref = reference_build_inventory(alg)
    assert list(inventory.spaces) == ref.spaces
    assert len(inventory.spaces) == len(ref.spaces)
    assert inventory.space_of == ref.space_of
    assert inventory.totals == ref.totals


def test_columns_match_dict_build_for_every_c_q3(tower3):
    for c in valid_c_values(tower3):
        assert_columns_match_dict_build(to_structure_constants(TwistedFieldSpec(tower3, c)))


def test_columns_match_dict_build_q4(tower4):
    cs = valid_c_values(tower4)
    for c in (cs[0], cs[-1]):
        assert_columns_match_dict_build(to_structure_constants(TwistedFieldSpec(tower4, c)))


@pytest.mark.parametrize("norm", ["-1", "2"])
def test_columns_match_dict_build_q5(tower5, norm):
    fld = tower5.base
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, fld.neg(1) if norm == "-1" else 2))
    assert_columns_match_dict_build(to_structure_constants(spec))


def traced_peak(build, alg) -> int:
    tracemalloc.start()
    try:
        build(alg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_inventory_peak_memory_q5(tower5):
    """The tracemalloc peak of `build_inventory` at q=5 stays under 1.5 MB.

    Measured on the first c of norm 2: 0.56 MB for the columns, 3.0 MB for the
    dict-of-tuples build in `reference_kernels` (3.2 MB at norm -1), which the
    test checks stays above the bound.
    """
    alg = to_structure_constants(TwistedFieldSpec(tower5, pick_c_by_norm(tower5, 2)))
    build_inventory(alg)  # fill the caches (f3_vectors) outside the trace
    bound = 1_500_000
    assert traced_peak(build_inventory, alg) < bound
    assert traced_peak(reference_build_inventory, alg) > bound


def test_certified_census_peak_memory_q5(tower5):
    """The tracemalloc peak of one certified census at q=5 stays under 0.45 MB.

    Measured on the first c of norm 2: 0.27 MB for `certified_tables` and the
    census at (e_0, e_1), which count the reached classes of F^x v' in a Counter.
    `build_inventory`, which keys every v', peaks at 0.53 MB; the test checks
    that it stays above the bound, so no such keying is back.
    """
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, 2))

    def census_v(spec):
        tables = certified_tables(spec)
        per_vector_profile(tables.alg, V0, inventory=tables, algebra_class=tables.cls)

    census_v(spec)  # fill the caches outside the trace
    bound = 450_000
    assert traced_peak(census_v, spec) < bound
    assert traced_peak(build_inventory, to_structure_constants(spec)) > bound


def test_certified_census_peak_memory_q9():
    """The tracemalloc peak of one certified census at q=9 stays under 3.19 MB: what
    three q^6 arrays of two bytes per v' take on their own, as the q^6 tables of left
    multiplication and division and a multiplicity per v' once did.

    Measured at N(c) = u: 2.28 MB for the division tables and the census at
    (e_0, e_1); the q^6 tables and array took the census to 5.66 MB.
    """
    tower = FieldTower.build(9)
    spec = TwistedFieldSpec(tower, pick_c_by_norm(tower, parse_elem(tower.base, "u")))

    def census_v(spec):
        tables = certified_tables(spec)
        per_vector_profile(tables.alg, V0, inventory=tables, algebra_class=tables.cls)

    census_v(spec)  # fill the caches outside the trace
    assert traced_peak(census_v, spec) < 3 * 2 * 9**6


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
            assert mul[a * n + x] == index[mulvec(alg, vec[a], vec[x])]
            if a:
                assert ldiv[a * n + mul[a * n + x]] == x


@pytest.mark.parametrize("which", ["q3", "q4"])
def test_division_tables_match_the_reference(which, alg3, inv3, alg4, inv4):
    # at every point a: L_a^-1 against the q^6 division table, and the keys of A(a, y)
    # against the inventory's; then the scalings that carry a vector to its point
    alg, inv = (alg3, inv3) if which == "q3" else (alg4, inv4)
    fld = alg.field
    q = fld.order
    n, size = q**3, q * q + q + 1
    vecs = f3_vectors(q)
    linv, keys, scale, lead = census.division_tables(alg)
    _, ldiv = left_division_tables(alg)
    assert list(keys) == list(points(q)) and len(linv) == n * size
    for p, a in enumerate(points(q)):
        assert linv[p::size] == ldiv[a * n:(a + 1) * n]
        assert list(keys[a]) == [inv.key[inv.space_of[a + n * y]] for y in range(n)]
    for k in range(q):
        assert [vecs[i] for i in scale[k * n:(k + 1) * n]] == [
            tuple(fld.mul(k, c) for c in v) for v in vecs]
    assert lead[0] == 0
    for y in range(1, n):
        point = scale[lead[y] + y]
        assert lead[y] % n == 0 and point in points(q)
        assert len(rref_rows(fld, (vecs[point], vecs[y]))[0]) == 1


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
    for name in ("space_of", "division", "totals"):
        assert name not in text
    assert inv3._replace(space_of=array("i")) == inv3


# -- the checks the run makes ----------------------------------------------------------


def test_zero_divisors_raise_runtime_error(tower3):
    # componentwise product on F^3: e_i e_j = delta_ij e_i, so e_0 e_1 = 0
    fld = tower3.base
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = (0, 0, 0)
    alg = Algebra3(fld, tuple(tuple(unit[i] if i == j else zero for j in range(3))
                              for i in range(3)))
    with pytest.raises(RuntimeError, match="singular at a = .*: not a division algebra"):
        census.division_tables(alg)
    with pytest.raises(RuntimeError, match="not a division algebra"):
        left_division_tables(alg)
    with pytest.raises(RuntimeError):
        build_inventory(alg)


def test_missing_division_vector_raises_runtime_error(alg3, monkeypatch):
    # R_a^-1 e_j goes missing at the point a = e_2: the inventory, whose keys come
    # from the division tables through algebra3.graph_keys, must not be built
    real = algebra3.inverse_columns
    r_e2 = algebra3.right_mul_matrix(alg3, (0, 0, 1))
    monkeypatch.setattr(algebra3, "inverse_columns",
                        lambda fld, rows: None if rows == r_e2 else real(fld, rows))
    with pytest.raises(RuntimeError, match=r"R_x is singular at x = \(0, 0, 1\)"):
        build_inventory(alg3)


def test_corrupted_space_of_raises_runtime_error(alg3, inv3):
    # a v' with d = 1 counted in a degenerate space: the totals no longer give each
    # met space its kind's vectors/spaces ratio
    meet = census.meet_all(inv3, V0)
    vi = min(ci for ci, m in meet.mult.items() if m == 1)  # a class is its least vector index
    other = next(i for i, k in enumerate(inv3.kind) if census.KINDS[k] == DEGENERATE)
    space_of = array("i", inv3.space_of)
    space_of[vi] = other
    broken = with_space_of(inv3, space_of)
    assert broken.totals[NONDEGENERATE] == (623, 312)
    with pytest.raises(RuntimeError, match="met on"):
        per_vector_profile(alg3, V0, inventory=broken,
                           algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    with pytest.raises(RuntimeError, match="met on"):
        reference_meet_all(broken, V0)


def test_wrong_totals_raise_runtime_error(comm3):
    tables = certified_tables(comm3)
    vectors, spaces = tables.totals[NONDEGENERATE]
    broken = tables._replace(totals={**tables.totals, NONDEGENERATE: (vectors, spaces + 1)})
    with pytest.raises(RuntimeError, match="met on"):
        census.meet_all(broken, V0)


def with_linv(tables, linv):
    return tables._replace(division=tables.division._replace(linv=linv))


def test_wrong_multiplicity_raises_runtime_error(alg3, inv3):
    # make the second point reach the same class as the first from the first generator of Av
    size = 13
    w1, w2 = census.meet_all(inv3, V0).gens[0]
    linv = array("H", inv3.division.linv)
    linv[w1 * size + 1], linv[w2 * size + 1] = linv[w1 * size], linv[w2 * size]
    with pytest.raises(RuntimeError, match="reached"):
        census.meet_all(with_linv(inv3, linv), V0)


def test_key_met_in_two_dimensions_raises_runtime_error(comm3):
    # q + 2 reaches of d = 1 classes moved into 0 + A, which V0 does not meet: q + 1 onto
    # the class of (0, e_0) and one onto that of (0, e_1), so 0 + A is met in dimensions
    # 2 and 1
    q, n, size = 3, 27, 13
    tables = certified_tables(comm3)
    meet = census.meet_all(tables, V0)
    # an entry w P + p of linv is read for every generator with w among its coordinates
    shared = Counter(w for gen in meet.gens for w in gen)
    once = [(g, p) for g, classes in enumerate(meet.reached) for p, ci in enumerate(classes)
            if meet.mult[ci] == 1 and all(shared[w] == 1 for w in meet.gens[g])]
    linv = array("H", tables.division.linv)
    for (g, p), y in zip(once, [1] * (q + 1) + [q]):
        w1, w2 = meet.gens[g]
        linv[w1 * size + p], linv[w2 * size + p] = 0, y
    broken = with_linv(tables, linv)
    mult = census._reach(broken.alg, broken.division, V0)[2]
    assert (mult[n], mult[q * n]) == (q + 1, 1)
    with pytest.raises(RuntimeError, match="met in dimensions"):
        census.meet_all(broken, V0)


# -- replayable scan witnesses -----------------------------------------------------------


def test_scan_witnesses_name_failed_checks_and_carry_lines(alg3, inv3, monkeypatch):
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
        replay = per_vector_profile(alg3, v, inventory=inv3, algebra_class=cls)
        assert {**w["observed"]["vectors"], "zero_vector": 1} == replay.observed["vectors"]
        assert w["observed"]["spaces"] == replay.observed["spaces"]
        assert line_profile(alg3, v, inventory=inv3).observed == true_lines


def test_scan_witnesses_name_tally_and_complement(alg3, monkeypatch):
    cls = IsotopyClass.COMMUTATIVE_ISOTOPIC
    monkeypatch.setattr(census, "predicted_complementary_spaces", lambda q, c, k: -1)
    rep = scan_all_nondegenerate(alg3, algebra_class=cls)
    assert rep.observed["mismatches"] == 624
    assert all(w["failed"] == ["complement"]
               and w["observed"]["lines"] == census.predicted_line_profile(3, cls)
               for w in rep.witnesses)
    real = census.predicted_profile
    monkeypatch.setattr(census, "predicted_profile",
                        lambda q, c, k: ({**real(q, c, k)[0], "dim3": 0}, real(q, c, k)[1]))
    rep = scan_all_nondegenerate(alg3, algebra_class=cls)
    assert all(w["failed"] == ["tally", "complement"] for w in rep.witnesses)
    monkeypatch.setattr(census, "hit_span_conditions", lambda frame, rep: False)
    rep = scan_all_nondegenerate(alg3, algebra_class=cls)
    assert all(w["failed"] == ["tally", "complement", "span"] for w in rep.witnesses)


# -- orbit mode: one representative under the checked K^x x GL2 symmetry -----------------


def without_mode(report):
    """The report's JSON without its timing and the fields that name the mode."""
    payload = report.to_json_dict()
    payload.pop("runtime_ms")
    payload["parameters"] = {k: v for k, v in payload["parameters"].items()
                             if k not in ("mode", "orbit")}
    return payload


def assert_orbit_matches_exhaustive(spec, workers=1):
    orbit = scan_orbit(spec)
    q = spec.q
    assert orbit.parameters["mode"] == "orbit"
    assert orbit.parameters["orbit"]["plane_orbit"] == q * q + q + 1
    assert orbit.parameters["orbit"]["vectors_profiled"] == 1
    exhaustive = scan_all_nondegenerate(to_structure_constants(spec),
                                        algebra_class=isotopy_class(spec), workers=workers)
    assert exhaustive.parameters["mode"] == "exhaustive"
    assert without_mode(orbit) == without_mode(exhaustive), spec.c
    assert orbit.match is True


@pytest.mark.parametrize("which", ["tower3", "tower3_alt"])
def test_orbit_scan_matches_exhaustive_for_every_c_q3(which, request):
    tower = request.getfixturevalue(which)
    for c in valid_c_values(tower):
        assert_orbit_matches_exhaustive(TwistedFieldSpec(tower, c))


def test_orbit_scan_matches_exhaustive_q4(tower4):
    cs = valid_c_values(tower4)
    for c in (cs[0], cs[-1]):
        assert_orbit_matches_exhaustive(TwistedFieldSpec(tower4, c), workers=2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_one_coverage_fact_for_every_class(q, request):
    # certified_tables states how many v its representative covers; B and the scan read it
    tower = request.getfixturevalue(f"tower{q}")
    specs = {}
    for target in range(2, q):  # every norm but 0 and 1, each class at its first norm
        spec = TwistedFieldSpec(tower, pick_c_by_norm(tower, target))
        specs.setdefault(isotopy_class(spec), spec)
    assert len(specs) == (1 if q in (3, 4) else 2)
    for spec in specs.values():
        counts = (certified_tables(spec).covered, verify_theorem_B(spec).checked,
                  scan_orbit(spec).observed["vectors_checked"])
        assert counts == ((q**3 - 1) * (q**3 - q),) * 3, spec.c


def test_beta_of_short_orbit_trips_the_plane_walk(tower3, alg3):
    for beta in (1, 2):  # F^x fixes every plane
        gamma = tower3.ext.mul(beta, tower3.frob_t[beta])
        with pytest.raises(RuntimeError, match="not one orbit"):
            census.orbit_certificate(tower3, [alg3], beta, gamma)


@pytest.mark.parametrize("c", ["[2,0,0]", "[0,1,0]"])
def test_gamma_other_than_beta_beta_sigma_trips_the_autotopism_check(tower3, c):
    spec, alg = twisted(tower3, c)
    algs = [alg, plane_algebra(alg)]
    beta = census.singer_element(tower3)
    K = tower3.ext
    cert = census.orbit_certificate(tower3, algs, beta, K.mul(beta, tower3.frob_t[beta]))
    assert cert["autotopism_pairs_checked"] == 18 and cert["plane_orbit"] == 13
    with pytest.raises(RuntimeError, match="not an autotopism"):
        census.orbit_certificate(tower3, algs, beta, K.mul(beta, beta))


def test_broken_generator_fails_scan_orbit(comm3, monkeypatch):
    monkeypatch.setattr(census, "singer_element", lambda tower: 1)
    with pytest.raises(RuntimeError, match="not one orbit"):
        scan_orbit(comm3)


@pytest.mark.parametrize("wrong", ["lines", "tally"])
def test_failing_representative_gives_the_exhaustive_report(comm3, alg3, monkeypatch, wrong):
    cls = IsotopyClass.COMMUTATIVE_ISOTOPIC
    if wrong == "lines":
        monkeypatch.setattr(census, "predicted_line_profile",
                            lambda q, c: {"in_base_plane": {}, "outside_base_plane": {}})
    else:
        real = census.predicted_profile
        monkeypatch.setattr(census, "predicted_profile",
                            lambda q, c, k: ({**real(q, c, k)[0], "dim3": 0}, real(q, c, k)[1]))
    rep = scan_orbit(comm3)
    assert rep.parameters["mode"] == "exhaustive" and rep.match is False
    assert rep.observed == {"vectors_checked": 624, "mismatches": 624}
    assert len(rep.witnesses) == 5
    assert all(w["failed"] == [wrong] for w in rep.witnesses)
    ref = scan_all_nondegenerate(alg3, algebra_class=cls)
    assert {**rep.to_json_dict(), "runtime_ms": 0} == {**ref.to_json_dict(), "runtime_ms": 0}


def test_span_check_covers_mixed_coordinates(alg3):
    # v' with x' outside F x and y' outside F y, but x' + y' = x + y for v = V0
    fld = alg3.field
    frame = census.span_frame(fld, V0)

    mixed = (1, 0, 1) + (0, 1, 2)
    assert all(mixed[:3] != tuple(fld.mul(k, c) for c in V0.x) for k in range(3))
    assert all(mixed[3:] != tuple(fld.mul(k, c) for c in V0.y) for k in range(3))
    assert not census.hit_span_conditions(frame, mixed)
    assert census.hit_span_conditions(frame, (1, 0, 1) + (1, 1, 1))


@pytest.mark.parametrize("which", ["q3", "q4"])
def test_span_conditions_fail_on_degenerate_and_same_plane_spaces(which, alg3, inv3, alg4, inv4):
    # a degenerate v' gives w' = 0 and <x',y'> = <x,y> gives w = 0, so neither passes
    alg, inv = (alg3, inv3) if which == "q3" else (alg4, inv4)
    fld = alg.field
    planes = [rref_rows(fld, (rec.rep[:3], rec.rep[3:]))[0] for rec in inv.spaces]
    for v in [V0] + seeded_vectors(fld, 11, 8):
        frame = census.span_frame(fld, v)
        base = rref_rows(fld, (v.x, v.y))[0]
        excluded = [rec for rec, plane in zip(inv.spaces, planes)
                    if rec.kind == DEGENERATE or plane == base]
        assert sum(rec.kind == DEGENERATE for rec in excluded) == fld.order + 1
        assert len(excluded) > fld.order + 1  # some nondegenerate space shares the plane
        assert not any(census.hit_span_conditions(frame, rec.rep) for rec in excluded), v

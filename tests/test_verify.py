from __future__ import annotations

import itertools
from array import array

import pytest

from twistfield import gf, linalg
from twistfield.algebra3 import (
    Algebra3,
    IsotopyClass,
    TwistedFieldSpec,
    isotopy_class,
    pick_c_by_norm,
    to_structure_constants,
    valid_c_values,
)
from twistfield.engine import census, normalform, verify as verify_module
from twistfield.engine.census import REPRESENTATIVE, build_inventory, division_tables, meet_all
from twistfield.engine.normalform import det2, template_matches
from twistfield.engine.spaces import (
    DEGENERATE,
    NONDEGENERATE,
    PairVector,
    classify,
    pair_rows,
    plane_representatives,
)
from twistfield.engine.verify import (
    Verdict,
    search_theorem_7_2_analogue,
    verify_normal_forms,
    verify_split_theorem_3_1,
    verify_theorem_A,
    verify_theorem_B,
)
from twistfield.linalg import (added_rank, cross, decode_vector, f3_vectors, image_table,
                               kernel_rows, rref_rows, vec_index)
from twistfield.splitalbert import SplitAlbertSpec, TriVector, rmat, rmat_inv

from reference_kernels import mat_inv, mat_mul, reference_projective_sum_table, with_space_of


def test_theorem_A_q3_commutative_tensor(alg3):
    verdict = verify_theorem_A(alg3)
    assert verdict.passed and verdict.details["mode"] == "exhaustive"
    assert verdict.checked == 624


def test_scalar_multiples_are_built_once_per_field(monkeypatch, alg3):
    # the census tables, both graph-key passes of split 3.1 and Theorem A read one copy
    fld = alg3.field
    linalg.scalar_multiples.cache_clear()
    built, real = [], linalg.scaling_table
    monkeypatch.setattr(linalg, "scaling_table", lambda f, s: built.append(s) or real(f, s))
    tables = division_tables(alg3)
    assert verify_split_theorem_3_1(SplitAlbertSpec(fld, (1, 1, 1))).passed
    assert verify_theorem_A(alg3).passed
    assert tables.scale is linalg.scalar_multiples(fld)
    assert built == [(k, k, k) for k in range(3)]


def test_theorem_A_q3_noncommutative_tensor(tower3):
    c = next(c for c in valid_c_values(tower3) if c >= 3)  # c outside the base field
    alg = to_structure_constants(TwistedFieldSpec(tower3, c))
    assert not alg.is_commutative()
    verdict = verify_theorem_A(alg)
    assert verdict.passed


def test_theorem_A_q4(alg4):
    verdict = verify_theorem_A(alg4)
    assert verdict.passed and verdict.checked == 3780


def test_theorem_A_q5_exhaustive(tower5):
    alg = to_structure_constants(TwistedFieldSpec(tower5, pick_c_by_norm(tower5, 2)))
    verdict = verify_theorem_A(alg)
    assert verdict.passed and verdict.details["mode"] == "exhaustive"
    assert verdict.checked == (5**3 - 1) * (5**3 - 5) == 14880


@pytest.mark.parametrize("q", [3, 4])
def test_theorem_A_builds_no_inventory(request, monkeypatch, q):
    def refuse(*args, **kwargs):
        raise AssertionError("Theorem A built the q^6 inventory")

    monkeypatch.setattr(census, "build_inventory", refuse)
    verdict = verify_theorem_A(request.getfixturevalue(f"alg{q}"))
    assert verdict.passed and verdict.checked == (q**3 - 1) * (q**3 - q)


def test_theorem_B_commutative_q3(comm3):
    verdict = verify_theorem_B(comm3)
    assert verdict.passed
    assert verdict.witnesses, "a two-dim witness pair must be produced"


def test_theorem_B_commutative_class_nonsymmetric_tensor(tower3):
    # isotopic-to-commutative but not commutative as a tensor: witness still exists
    c = next(c for c in valid_c_values(tower3) if c >= 3)
    spec = TwistedFieldSpec(tower3, c)
    assert not to_structure_constants(spec).is_commutative()
    verdict = verify_theorem_B(spec)
    assert verdict.passed and verdict.witnesses


def test_theorem_B_commutative_q5(tower5):
    minus_one = tower5.base.neg(1)
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, minus_one))
    verdict = verify_theorem_B(spec)
    assert verdict.passed and verdict.witnesses


def test_theorem_B_noncommutative_q4(noncomm4):
    verdict = verify_theorem_B(noncomm4)
    assert verdict.passed and not verdict.witnesses


@pytest.mark.parametrize("target", [2, 3])
def test_theorem_B_noncommutative_q5(tower5, target):
    spec = TwistedFieldSpec(tower5, pick_c_by_norm(tower5, target))
    verdict = verify_theorem_B(spec)
    assert verdict.passed and not verdict.witnesses


def test_split_theorem_31_gf3():
    spec = SplitAlbertSpec(gf.Field.of_order(3), (1, 1, 1))
    verdict = verify_split_theorem_3_1(spec)
    assert verdict.passed
    assert verdict.checked == 2**12
    assert verdict.details["mode"] == "exhaustive"


def test_split_theorem_31_gf4():
    # u * u = u + 1, so the product is u+1 != 1 = -1 in characteristic 2
    spec = SplitAlbertSpec(gf.Field.of_order(4), (1, 2, 2))
    verdict = verify_split_theorem_3_1(spec)
    assert verdict.passed
    assert verdict.checked == 3**12


def test_split_theorem_31_gf5_exhaustive():
    spec = SplitAlbertSpec(gf.Field.of_order(5), (1, 2, 3))
    verdict = verify_split_theorem_3_1(spec)
    assert verdict.passed and verdict.details["mode"] == "exhaustive"
    assert verdict.checked == 4**12


def test_normal_forms_exhaustive():
    for q in (2, 3):
        verdict = verify_normal_forms(gf.Field.of_order(q))
        assert verdict.passed
        assert verdict.checked == q**8
        assert verdict.details["tag_counts"].get("I*", 0) > 0


def test_two_dim_search_gf4_nonunit_d():
    spec = SplitAlbertSpec(gf.Field.of_order(4), (1, 1, 2))
    verdict = search_theorem_7_2_analogue(spec)
    assert verdict.passed
    assert verdict.details["two_dim_hits"] == 0
    assert verdict.details["d_product"] != 1


def test_two_dim_search_gf3_unit_d_has_hits():
    spec = SplitAlbertSpec(gf.Field.of_order(3), (1, 1, 1))
    verdict = search_theorem_7_2_analogue(spec)
    assert verdict.passed  # informational at d = 1
    assert verdict.details["two_dim_hits"] > 0
    assert verdict.witnesses


def test_two_dim_search_notes_heuristic():
    spec = SplitAlbertSpec(gf.Field.of_order(3), (1, 1, 1))
    verdict = search_theorem_7_2_analogue(spec)
    assert "heuristic" in verdict.details["note"]


# -- the checkers before the census kernel, kept as references -------------------------


def reference_theorem_A(alg):
    """Theorem A by grouping every nondegenerate v on a fresh RREF key of Av."""
    fld = alg.field
    q = fld.order
    groups: dict = {}
    for idx in range(1, q**6):
        coords = decode_vector(q, idx)
        v = PairVector(coords[:3], coords[3:])
        if classify(fld, v) == NONDEGENERATE:
            key = rref_rows(fld, pair_rows(alg, v.x, v.y))[0]
            groups.setdefault(key, []).append((v.x, v.y))
    witnesses = []
    for key, members in groups.items():
        x, y = members[0]
        line = {(tuple(fld.mul(k, c) for c in x), tuple(fld.mul(k, c) for c in y))
                for k in range(1, q)}
        if set(members) != line:
            witnesses.append({"Av_key": [list(r) for r in key], "members": sorted(members)[:4]})
    return Verdict("theorem-A", not witnesses, sum(map(len, groups.values())), witnesses[:5],
                   {"mode": "exhaustive", "q": q})


def reference_theorem_B(tf, inventory):
    """Theorem B by one added_rank per (plane representative, distinct Av'), with the early stops."""
    alg = to_structure_constants(tf)
    fld = alg.field
    cls = isotopy_class(tf)
    expect_witness = cls is IsotopyClass.COMMUTATIVE_ISOTOPIC
    hits = []
    checked = 0
    for v in plane_representatives(fld):
        base_rows, base_pivots = rref_rows(fld, pair_rows(alg, v.x, v.y))
        for rec in inventory.spaces:
            checked += 1
            if 3 - added_rank(fld, base_rows, base_pivots, rec.rows) == 2:
                hits.append({"v": v.to_json(), "v2": [list(rec.rep[:3]), list(rec.rep[3:])]})
                break
        if hits and expect_witness:
            break
    return Verdict("theorem-B", bool(hits) == expect_witness, checked, hits[:3],
                   {"q": fld.order, "algebra_class": cls.value,
                    "expected": "witness" if expect_witness else "no dim-2 pairs"})


def same_verdict(got, want):
    return ((got.name, got.passed, got.checked, got.witnesses, got.details)
            == (want.name, want.passed, want.checked, want.witnesses, want.details))


def cases(q, tower):
    """The c compared at each q: every valid c at q=3, 5 spread over the 42 at q=4,
    and one c per class (norm -1 and norm 2) at q=5."""
    if q == 3:
        return valid_c_values(tower)
    if q == 4:
        return valid_c_values(tower)[::9]
    return [pick_c_by_norm(tower, tower.base.neg(1)), pick_c_by_norm(tower, 2)]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_theorem_B_matches_rank_reference(request, q):
    tower = request.getfixturevalue(f"tower{q}")
    classes = set()
    for c in cases(q, tower):
        spec = TwistedFieldSpec(tower, c)
        verdict = verify_theorem_B(spec)
        want = reference_theorem_B(spec, build_inventory(to_structure_constants(spec)))
        details = {k: v for k, v in verdict.details.items() if k not in ("mode", "orbit")}
        assert (verdict.name, verdict.passed, verdict.witnesses, details) == (
            want.name, want.passed, want.witnesses, want.details), c
        # `checked` counts the nondegenerate v the certified representative covers
        assert verdict.checked == (q**3 - 1) * (q**3 - q) and verdict.details["mode"] == "orbit"
        assert verdict.passed
        classes.add(verdict.details["algebra_class"])
    assert len(classes) == (2 if q == 5 else 1)  # N(c) != 1 leaves only -1 at q=3


def field_algebra(tower):
    """K itself on the basis (1, t, t^2), built as `test_field_product_is_division` builds
    it: Av = K v, so every nondegenerate fiber is K^x v and Theorem A fails."""
    K, q = tower.ext, tower.q
    basis = [1, q, q * q]
    return Algebra3(tower.base, tuple(tuple(K.coeffs(K.mul(bi, bj)) for bj in basis)
                                      for bi in basis))


@pytest.mark.parametrize("case", ["q3-[2,0,0]", "q3-[0,1,0]", "alg4", "q5-norm-1", "q5-norm2",
                                  "q3-field", "q4-field"])
def test_theorem_A_matches_grouping_reference(request, tower3, tower5, case):
    if case == "alg4":
        alg = request.getfixturevalue("alg4")
    elif case.endswith("field"):  # the negative control
        alg = field_algebra(request.getfixturevalue(f"tower{case[1]}"))
    elif case.startswith("q3"):
        alg = to_structure_constants(TwistedFieldSpec(tower3, gf.parse_triple(tower3, case[3:])))
    else:
        target = tower5.base.neg(1) if case == "q5-norm-1" else 2
        alg = to_structure_constants(TwistedFieldSpec(tower5, pick_c_by_norm(tower5, target)))
    verdict = verify_theorem_A(alg)
    assert same_verdict(verdict, reference_theorem_A(alg))
    q = alg.field.order
    assert verdict.passed is not case.endswith("field")
    assert verdict.checked == (q**3 - 1) * (q**3 - q)
    assert len(verdict.witnesses) == (5 if case.endswith("field") else 0)


def index3(w):
    """The F^6 index of a vector over GF(3) (inverse of decode_vector)."""
    return sum(c * 3**j for j, c in enumerate(w))


def key_class_as(monkeypatch, v, target):
    """Patch `census.division_tables` so that its key table keys the class F^x v as the
    class F^x target (the x of both a point): the class of v moves into A target."""
    real = census.division_tables

    def division_tables(alg):
        division = real(alg)
        q = alg.field.order
        (a, y), (b, z) = ((vec_index(q, u.x), vec_index(q, u.y)) for u in (v, target))
        division.keys[a][y] = division.keys[b][z]
        return division

    monkeypatch.setattr(census, "division_tables", division_tables)


def class_members(fld, *vs):
    """The sorted (x, y) of the vectors k v, k in F^x, for each v of `vs`."""
    return sorted((tuple(fld.mul(k, c) for c in v.x), tuple(fld.mul(k, c) for c in v.y))
                  for v in vs for k in range(1, fld.order))


def test_corrupted_inventory_is_never_a_verdict_for_B_and_a_witness_for_A(
        monkeypatch, alg3, inv3):
    # point the space of 2 v, v the first plane representative, at a degenerate space;
    # the fibers and totals are counted from the corrupted space_of
    fld = alg3.field
    v = plane_representatives(fld)[0]
    broken = inv3.space_of[index3(v.flat)]
    other = next(i for i, rec in enumerate(inv3.spaces) if rec.kind == DEGENERATE)
    space_of = array("i", inv3.space_of)
    space_of[index3(tuple(fld.mul(2, c) for c in v.flat))] = other
    bad = with_space_of(inv3, space_of)
    # Theorem B's kernel call, at its representative (this same v), raises
    with pytest.raises(RuntimeError, match="met on"):
        meet_all(bad, REPRESENTATIVE)
    # Theorem A's key table with the class of v2 = (e_0, e_2) keyed as Av: a fiber of 2(q-1)
    v2 = PairVector(v.x, (0, 0, 1))
    key_class_as(monkeypatch, v2, v)
    verdict = verify_theorem_A(alg3)
    assert verdict.passed is False and verdict.checked == 624
    assert verdict.witnesses == [{"Av_key": [list(r) for r in inv3.spaces[broken].rows],
                                  "members": class_members(fld, v, v2)}]


def test_theorem_A_checks_both_fiber_size_and_fiber_members(monkeypatch, alg3, inv3):
    # the class of v moved into the space of v2 = (e_0, e_2): that space has 2(q-1)
    # vectors and v's none; the witness names the space that grew, with both classes
    fld = alg3.field
    v = plane_representatives(fld)[0]
    v2 = PairVector(v.x, (0, 0, 1))
    key_class_as(monkeypatch, v, v2)
    verdict = verify_theorem_A(alg3)
    grown = inv3.spaces[inv3.space_of[index3(v2.flat)]]
    assert grown.kind == NONDEGENERATE and grown.fiber == 2
    assert verdict.passed is False and verdict.checked == 624
    assert verdict.witnesses == [{"Av_key": [list(r) for r in grown.rows],
                                  "members": class_members(fld, v, v2)}]


# -- Theorem 3.1 by the quadruple loop before the partition check, kept as the reference --


def reference_theorem_3_1(spec):
    """The old loop over every regular quadruple; also returns its per-quadruple `examine`.

    U(x, y) is the RREF of the rows (R_x e_m | R_y e_m), and the matrix criterion is
    the product of a dense inverse with R (`reference_kernels`).  R is read off the
    structure tensor of `spec`, as the graph keys read it, so a mutated tensor reaches
    both.
    """
    fld = spec.field
    q = fld.order
    regs = [(a, b, c) for a in range(1, q) for b in range(1, q) for c in range(1, q)]
    r = len(regs)
    index = {v: i for i, v in enumerate(regs)}
    rep_id = []
    for v in regs:
        s = fld.inv(v[0])
        rep_id.append(index[tuple(fld.mul(s, c) for c in v)])
    div = [[fld.mul(a, fld.inv(b)) if b else 0 for b in range(q)] for a in range(q)]
    skey_pool, mkey_pool = {}, {}
    skey = [[0] * r for _ in range(r)]
    mkey = [[0] * r for _ in range(r)]
    rmats = [rmat(spec, TriVector("V", v)) for v in regs]
    rinvs = [mat_inv(fld, m) for m in rmats]
    for i in range(r):
        for j in range(r):
            rows, _ = rref_rows(fld, [a + b for a, b in zip(zip(*rmats[i]), zip(*rmats[j]))])
            skey[i][j] = skey_pool.setdefault(rows, len(skey_pool))
            m = mat_mul(fld, rinvs[j], rmats[i])
            mkey[i][j] = mkey_pool.setdefault(m, len(mkey_pool))

    def examine(i, j, k, l):
        eq = skey[i][j] == skey[k][l]
        same_scale = (rep_id[i] == rep_id[k] and rep_id[j] == rep_id[l]
                      and div[regs[k][0]][regs[i][0]] == div[regs[l][0]][regs[j][0]])
        swap_scale = (rep_id[j] == rep_id[i] and rep_id[l] == rep_id[k]
                      and div[regs[j][0]][regs[i][0]] == div[regs[l][0]][regs[k][0]])
        cond = same_scale or swap_scale
        matrix_eq = mkey[i][k] == mkey[j][l]
        if eq != cond or eq != matrix_eq:
            return {"x": regs[i], "y": regs[j], "x2": regs[k], "y2": regs[l],
                    "span_equal": eq, "proportionality": cond, "matrix_criterion": matrix_eq}
        return None

    witnesses = []
    checked = 0
    for i, j, k, l in itertools.product(range(r), repeat=4):
        checked += 1
        w = examine(i, j, k, l)
        if w is not None:
            witnesses.append(w)
            if len(witnesses) > 5:
                break
    verdict = Verdict("split-theorem-3.1", not witnesses, checked, witnesses[:5],
                      {"mode": "exhaustive", "q": q})
    return verdict, lambda w: examine(*(index[w[key]] for key in ("x", "y", "x2", "y2")))


def valid_d(fld):
    for d in itertools.product(range(1, fld.order), repeat=3):
        try:
            yield SplitAlbertSpec(fld, d)
        except ValueError:  # d0 d1 d2 = -1
            continue


@pytest.mark.parametrize("q", [3, 4, 5])
def test_split_theorem_31_matches_quadruple_reference(q):
    fld = gf.Field.of_order(q)
    specs = list(valid_d(fld))
    assert len(specs) == {3: 4, 4: 18, 5: 48}[q]
    for spec in specs if q < 5 else [SplitAlbertSpec(fld, (1, 2, 3))]:
        got = verify_split_theorem_3_1(spec)
        want, _ = reference_theorem_3_1(spec)
        assert same_verdict(got, want), spec.d
        assert got.passed and got.checked == (q - 1) ** 12


@pytest.mark.parametrize("entry, value", [((2, 0, 1), 0), ((0, 0, 0), 1)],
                         ids=["zeroed_entry", "singular_entry"])
def test_split_theorem_31_mutations_fail_with_replayable_witnesses(entry, value):
    # one entry of the structure tensor changed, which the graph keys and the reference
    # both read: zeroing s[2][0][1] splits span and prediction, and the reference replays
    # every witness; s[0][0][0] = 1 makes R_x singular at the regular x = (1, 1, 2), from
    # which no key can be built, which the run checks
    spec = SplitAlbertSpec(gf.Field.of_order(3), (1, 1, 1))
    tensor = [[list(row) for row in plane] for plane in spec.tensor]
    i, j, k = entry
    tensor[i][j][k] = value
    spec = spec._replace(tensor=tuple(tuple(map(tuple, plane)) for plane in tensor))
    if value:
        with pytest.raises(RuntimeError, match=r"R_x is singular at x = \(1, 1, 2\)"):
            verify_split_theorem_3_1(spec)
        return
    verdict = verify_split_theorem_3_1(spec)
    reference, examine = reference_theorem_3_1(spec)
    assert verdict.passed is False and reference.passed is False
    assert verdict.checked == 2**12
    assert 0 < len(verdict.witnesses) <= 5
    for w in verdict.witnesses:
        assert examine(w) == w


@pytest.mark.parametrize("q", [3, 4, 5])
def test_graph_keys_partition_pairs_as_rref_keys(q):
    # skey: the RREF of pair_rows; mkey: R_{x_k}^-1 R_{x_i} as a dense product
    fld = gf.Field.of_order(q)
    specs = list(valid_d(fld))
    for spec in (specs[0], specs[-1]):
        regs = list(itertools.product(range(1, q), repeat=3))
        skey, mrow = verify_module._graph_keys(spec, regs)
        rref_pool, product_pool = {}, {}
        rref_keys = [rref_pool.setdefault(rref_rows(fld, pair_rows(spec, x, y)), len(rref_pool))
                     for x in regs for y in regs]
        rmats = [rmat(spec, TriVector("V", v)) for v in regs]
        rinvs = [rmat_inv(spec, TriVector("V", v)) for v in regs]
        product_keys = [[product_pool.setdefault(mat_mul(fld, rinvs[k], rmats[i]), len(product_pool))
                         for k in range(len(regs))] for i in range(len(regs))]
        assert list(skey) == rref_keys  # ids by first occurrence: equal lists, equal partitions
        assert [list(row) for row in mrow] == product_keys


# -- Theorem 7.1 by the loop over all q^8 pairs, and the 7.2 sweep by one kernel and one
# -- rank test per quadruple, before the orbit and projection-table sweeps; kept as references


def reference_normal_forms(fld):
    """Every one of the q^8 pairs through `pair_normal_form`, read through its module."""
    q = fld.order
    mats = [((a, b), (c, d))
            for a in range(q) for b in range(q) for c in range(q) for d in range(q)]
    tag_counts = {}
    witnesses = []
    for g0 in mats:
        for g1 in mats:
            form = normalform.pair_normal_form(fld, g0, g1)
            tag_counts[form.tag] = tag_counts.get(form.tag, 0) + 1
            if not template_matches(fld, form):
                witnesses.append({"g0": g0, "g1": g1, "tag": form.tag})
    return Verdict("pair-normal-form", not witnesses, len(mats) ** 2, witnesses[:5],
                   {"q": q, "tag_counts": dict(sorted(tag_counts.items()))})


def reference_admissible(fld, x, y, x2, y2):
    """One line as the kernel of [x y x' y'], with an invertible 2x2 pattern."""
    kern = kernel_rows(fld, [(x[c], y[c], x2[c], y2[c]) for c in range(3)], 4)
    if len(kern) != 1:
        return False
    w = kern[0]
    return det2(fld, ((w[0], w[1]), (w[2], w[3]))) != 0


def reference_theorem_7_2(spec):
    """The sweep with one kernel and one added_rank per quadruple."""
    fld = spec.field
    q = fld.order
    vecs = [(i % q, i // q % q, i // (q * q)) for i in range(q**3)]
    pairs = [(x, y) for x in vecs for y in vecs if len(rref_rows(fld, (x, y))[0]) == 2]
    urows = {(x, y): rref_rows(fld, pair_rows(spec, x, y)) for x, y in pairs}
    hits = []
    admissible = checked = 0
    for v in plane_representatives(fld):
        x, y = v.x, v.y
        base_rows, base_pivots = urows[(x, y)]
        for x2, y2 in pairs:
            checked += 1
            if not reference_admissible(fld, x, y, x2, y2):
                continue
            admissible += 1
            if added_rank(fld, base_rows, base_pivots, urows[(x2, y2)][0]) == 1:
                hits.append({"x": list(x), "y": list(y), "x2": list(x2), "y2": list(y2)})
    return Verdict("two-dim-search", spec.d_product == 1 or not hits, checked, hits[:5], {
        "q": q, "d_product": spec.d_product,
        "admissible_quadruples": admissible, "two_dim_hits": len(hits),
        "note": "finite-field analogue; heuristic evidence, not a theorem check"})


@pytest.mark.parametrize("q", [3, 4, 5])
def test_projective_sum_table_matches_the_per_entry_reference(q):
    fld = gf.Field.of_order(q)
    assert verify_module._projective_sum_table(fld) == reference_projective_sum_table(fld)


def full_plane_theorem_7_2(spec):
    """The projection-table sweep over every one of the q^2+q+1 base planes, before the
    torus orbits; also returns each plane's (admissible, hits), keyed by its base pair."""
    fld = spec.field
    q = fld.order
    mul, add, sub = fld.mul_t, fld.add_t, fld.sub_t
    vecs = f3_vectors(q)
    groups = []
    for x2 in vecs:
        groups.append([(iy, *(vec_index(q, r[k:k + 3]) for r in pair_rows(spec, x2, y2)
                              for k in (0, 3)))
                       for iy, y2 in enumerate(vecs) if any(cross(fld, x2, y2))])
    pairs = sum(map(len, groups))
    rank_one = verify_module._projective_sum_table(fld)
    hits, per_plane = [], {}
    admissible = checked = 0
    for v in plane_representatives(fld):
        x, y = v.x, v.y
        n = cross(fld, x, y)
        j = next(j for j, c in enumerate(n) if c)
        m = tuple(fld.inv(n[j]) if k == j else 0 for k in range(3))
        alpha, beta, p = (image_table(fld, [(c, 0, 0) for c in f])
                          for f in (cross(fld, y, m), cross(fld, m, x), n))
        ann = kernel_rows(fld, pair_rows(spec, x, y), 6)
        left = image_table(fld, zip(*(r[:3] for r in ann)))
        right = image_table(fld, zip(*(r[3:] for r in ann)))
        checked += pairs
        base = [0, 0]
        for ix, group in enumerate(groups):
            p1, a1, b1 = p[ix], alpha[ix], beta[ix]
            for iy, l0, r0, l1, r1, l2, r2 in group:
                p2 = p[iy]
                det = sub[add[mul[mul[p1][p2]][sub[a1][beta[iy]]]][mul[b1][mul[p2][p2]]]][
                    mul[mul[p1][p1]][alpha[iy]]]
                if not (p1 or p2) or not det:
                    continue
                base[0] += 1
                line = {rank_one[left[l0]][right[r0]], rank_one[left[l1]][right[r1]],
                        rank_one[left[l2]][right[r2]]}
                line.discard(0)
                if len(line) == 1:
                    base[1] += 1
                    hits.append({"x": list(x), "y": list(y),
                                 "x2": list(vecs[ix]), "y2": list(vecs[iy])})
        admissible += base[0]
        per_plane[(x, y)] = tuple(base)
    verdict = Verdict("two-dim-search", spec.d_product == 1 or not hits, checked, hits[:5], {
        "q": q, "d_product": spec.d_product,
        "admissible_quadruples": admissible, "two_dim_hits": len(hits),
        "note": "finite-field analogue; heuristic evidence, not a theorem check"})
    return verdict, per_plane


@pytest.mark.parametrize("q", [2, 3, 4])
def test_normal_forms_match_q8_reference(q):
    fld = gf.Field.of_order(q)
    verdict = verify_normal_forms(fld)
    assert same_verdict(verdict, reference_normal_forms(fld))
    assert verdict.passed and verdict.checked == q**8


@pytest.mark.parametrize("q", [2, *gf.SUPPORTED_Q])
def test_normal_form_tag_counts_closed_forms(q):
    # orbit counts of the Kronecker classes, each a multiple of G = |GL2(F)|
    g = (q * q - 1) * (q * q - q)
    want = {
        "I": g * (q + q * q * (q * q - 1) // 2),
        "II": g * q * (q * q - 1),
        "I*": g * (q * q - q) ** 2 // 2,
        "III": g * (q**4 - g - q * q + 1),
        "IV": g * (q * q - 1),
        "V": g * q * (q + 1),
        "VII": g * (q + 1),
    }
    want["VI"] = q**8 - sum(want.values())
    verdict = verify_normal_forms(gf.Field.of_order(q))
    assert verdict.passed and verdict.checked == q**8
    assert verdict.details["tag_counts"] == dict(sorted(want.items()))


def test_normal_forms_non_invariant_tag_trips_the_generator_check(monkeypatch):
    # a tag that also reads G0[0][0], which row swaps change
    real = normalform.pair_normal_form

    def broken(fld, g0, g1):
        form = real(fld, g0, g1)
        return form._replace(tag=form.tag + "'" * (g0[0][0] == 0))

    monkeypatch.setattr(normalform, "pair_normal_form", broken)
    with pytest.raises(RuntimeError, match="changes under"):
        verify_normal_forms(gf.Field.of_order(3))


def test_normal_forms_dropped_orbit_trips_the_weight_sum(monkeypatch):
    real = verify_module._row_spaces
    monkeypatch.setattr(verify_module, "_row_spaces", lambda q: itertools.islice(real(q), 1, None))
    with pytest.raises(RuntimeError, match="sum to"):
        verify_normal_forms(gf.Field.of_order(3))


def test_row_spaces_are_the_subspaces_of_f4_once_each():
    q = 3
    spaces = list(verify_module._row_spaces(q))
    assert len(spaces) == 1 + (q**4 - 1) // (q - 1) + (q * q + 1) * (q * q + q + 1)
    fld = gf.Field.of_order(q)
    keys = {rref_rows(fld, rows) for _, rows in spaces}
    assert len(keys) == len(spaces)
    assert all(len(rref_rows(fld, rows)[0]) == rank for rank, rows in spaces)


TWO_DIM_CASES = [
    *((3, spec.d) for spec in valid_d(gf.Field.of_order(3))),
    (4, (2, 1, 1)), (4, (1, 2, 1)), (4, (2, 3, 2)),
    (5, (1, 1, 1)),
]


@pytest.mark.parametrize("q, d", TWO_DIM_CASES)
def test_two_dim_search_matches_rank_reference(q, d):
    spec = SplitAlbertSpec(gf.Field.of_order(q), d)
    verdict = search_theorem_7_2_analogue(spec)
    assert same_verdict(verdict, reference_theorem_7_2(spec))
    assert verdict.passed
    assert (verdict.details["two_dim_hits"] > 0) == (spec.d_product == 1)


def test_two_dim_search_follows_a_changed_pair_rows(monkeypatch):
    # every pair's rows come from the products of another valid d: the torus identity
    # holds for every d, so the certificate lets this through and the counts follow that d,
    # here from no hits (d0 d1 d2 = 2) to the hits of d = (1, 1, 1) and a failed verdict
    fld = gf.Field.of_order(5)
    spec, other = SplitAlbertSpec(fld, (1, 1, 2)), SplitAlbertSpec(fld, (1, 1, 1))
    before = search_theorem_7_2_analogue(spec)
    real = verify_module.left_mul_matrix
    monkeypatch.setattr(verify_module, "left_mul_matrix", lambda sp, a: real(other, a))
    verdict = search_theorem_7_2_analogue(spec)
    want, _ = full_plane_theorem_7_2(other)
    keys = ("admissible_quadruples", "two_dim_hits")
    assert (verdict.checked, [verdict.details[k] for k in keys], verdict.witnesses) == (
        want.checked, [want.details[k] for k in keys], want.witnesses)
    assert before.passed and before.details["two_dim_hits"] == 0
    assert not verdict.passed and verdict.details["two_dim_hits"] > 0


def test_two_dim_search_changed_products_trip_the_torus_certificate(monkeypatch):
    # alpha_0 gets the products of alpha_0 + alpha_1: the product table is no longer
    # torus-equivariant
    spec = SplitAlbertSpec(gf.Field.of_order(3), (1, 1, 1))
    real = verify_module.left_mul_matrix
    monkeypatch.setattr(verify_module, "left_mul_matrix", lambda sp, a: real(
        sp, (1, 1, 0) if tuple(a) == (1, 0, 0) else a))
    with pytest.raises(RuntimeError, match="phi\\(t.alpha_"):
        search_theorem_7_2_analogue(spec)


def test_two_dim_search_dropped_orbit_trips_the_cover_check(monkeypatch):
    # the last plane, with normal (1, 0, 0), is alone in its torus orbit
    real = verify_module.plane_representatives
    monkeypatch.setattr(verify_module, "plane_representatives", lambda fld: real(fld)[:-1])
    with pytest.raises(RuntimeError, match="cover 12 planes"):
        search_theorem_7_2_analogue(SplitAlbertSpec(gf.Field.of_order(3), (1, 1, 1)))


@pytest.mark.parametrize("q, d", TWO_DIM_CASES)
def test_two_dim_orbit_sweep_matches_full_plane_sweep(q, d):
    spec = SplitAlbertSpec(gf.Field.of_order(q), d)
    want, per_plane = full_plane_theorem_7_2(spec)
    assert same_verdict(search_theorem_7_2_analogue(spec), want)
    # the per-plane counts are constant on each torus orbit: the zero pattern of x cross y
    by_pattern = {}
    for (x, y), counts in per_plane.items():
        by_pattern.setdefault(tuple(c != 0 for c in cross(spec.field, x, y)), set()).add(counts)
    assert len(by_pattern) == 7 and all(len(c) == 1 for c in by_pattern.values())

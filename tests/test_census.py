from __future__ import annotations

import json

import pytest

from twistfield.algebra3 import (
    IsotopyClass,
    TwistedFieldSpec,
    isotopy_class,
    pick_c_by_norm,
    to_structure_constants,
    valid_c_values,
)
from twistfield.engine import census
from twistfield.engine.census import (
    build_inventory,
    complementary_space_count,
    global_counts,
    index_chunks,
    line_profile,
    per_vector_profile,
    pool_size,
    predicted_complementary_spaces,
    predicted_global_counts,
    scan_all_nondegenerate,
)
from twistfield.engine.spaces import DEGENERATE, PairVector

V0 = PairVector((1, 0, 0), (0, 1, 0))


def test_global_counts_q3(alg3, inv3):
    rep = global_counts(alg3, inventory=inv3)
    assert rep.observed == {
        "nondegenerate_vectors": 624,
        "degenerate_nonzero_vectors": 104,
        "nondegenerate_spaces": 312,
        "degenerate_spaces": 4,
    }
    assert rep.match is True


def test_global_counts_q4(alg4, inv4):
    rep = global_counts(alg4, inventory=inv4)
    assert rep.observed == {
        "nondegenerate_vectors": 3780,
        "degenerate_nonzero_vectors": 315,
        "nondegenerate_spaces": 1260,
        "degenerate_spaces": 5,
    }
    assert rep.match is True


def test_global_predictions_formula():
    assert predicted_global_counts(3) == {
        "nondegenerate_vectors": 624,
        "degenerate_nonzero_vectors": 104,
        "nondegenerate_spaces": 312,
        "degenerate_spaces": 4,
    }


def test_profile_commutative_q3(alg3, inv3):
    rep = per_vector_profile(alg3, V0, inventory=inv3,
                             algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    assert rep.observed["vectors"] == {
        "dim3": 2, "dim2": 24, "dim1": 216,
        "dim0_nondegenerate": 382, "dim0_degenerate": 104, "zero_vector": 1,
    }
    assert rep.observed["spaces"] == {
        "dim3": 1, "dim2": 12, "dim1": 108,
        "dim0_nondegenerate": 191, "dim0_degenerate": 4,
    }
    assert rep.match is True
    total = sum(rep.observed["vectors"].values())
    assert total == 3**6


def test_profile_degenerate_v_q3(alg3, inv3):
    v = PairVector((1, 0, 0), (2, 0, 0))
    rep = per_vector_profile(alg3, v, inventory=inv3,
                             algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    assert rep.observed["vectors"]["dim3"] == 26
    assert rep.observed["vectors"]["dim2"] == 0
    assert rep.observed["vectors"]["dim1"] == 0
    assert rep.match is True


def test_profile_noncommutative_q4(alg4, inv4):
    rep = per_vector_profile(alg4, V0, inventory=inv4,
                             algebra_class=IsotopyClass.NON_COMMUTATIVE)
    assert rep.observed["vectors"] == {
        "dim3": 3, "dim2": 0, "dim1": 1260,
        "dim0_nondegenerate": 2517, "dim0_degenerate": 315, "zero_vector": 1,
    }
    assert rep.match is True


def test_complementary_counts(alg3, inv3, alg4, inv4):
    assert complementary_space_count(alg3, V0, inventory=inv3) == 195
    assert complementary_space_count(alg4, V0, inventory=inv4) == 844
    deg = PairVector((0, 0, 0), (1, 2, 0))
    assert complementary_space_count(alg3, deg, inventory=inv3) == 315
    assert complementary_space_count(alg4, PairVector((0, 0, 0), (1, 0, 0)),
                                     inventory=inv4) == 1264


@pytest.mark.parametrize("q, expected", [(3, 315), (4, 1264), (5, 3725)])
def test_degenerate_complement_matches_prediction(q, expected, tower3, tower4, tower5):
    tower = {3: tower3, 4: tower4, 5: tower5}[q]
    spec = TwistedFieldSpec(tower, valid_c_values(tower)[0])
    alg = to_structure_constants(spec)
    inv = build_inventory(alg)
    predicted = predicted_complementary_spaces(q, isotopy_class(spec), DEGENERATE)
    assert predicted == q**2 * (q**3 + q**2 - 1) == expected
    x = (1, 1, 0)
    for v in (((1, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 0)), (x, x)):
        assert complementary_space_count(alg, PairVector(*v), inventory=inv) == predicted, v


def test_line_profile_q3(alg3, inv3):
    rep = line_profile(alg3, V0, inventory=inv3,
                       algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    assert rep.observed == {
        "in_base_plane": {"18": 4},
        "outside_base_plane": {"16": 9},
    }
    assert rep.match is True


def test_line_profile_q4(alg4, inv4):
    rep = line_profile(alg4, V0, inventory=inv4,
                       algebra_class=IsotopyClass.NON_COMMUTATIVE)
    assert rep.observed == {
        "in_base_plane": {"60": 5},
        "outside_base_plane": {"60": 16},
    }
    assert rep.match is True


def test_line_profile_every_commutative_isotopic_c_q3(tower3):
    # the distinguished plane is <x,y>v in the commutative isotope, not in A_c
    for c in valid_c_values(tower3):
        spec = TwistedFieldSpec(tower3, c)
        alg = to_structure_constants(spec)
        inv = build_inventory(alg)
        for v in (V0, PairVector((0, 1, 2), (1, 1, 0))):
            rep = line_profile(alg, v, inventory=inv, algebra_class=isotopy_class(spec))
            assert rep.match is True, (c, v)


def test_line_profile_commutative_isotope_q5(tower5):
    c = next(c for c in valid_c_values(tower5)
             if c != tower5.ext.neg(1) and tower5.norm(c) == tower5.base.neg(1))
    spec = TwistedFieldSpec(tower5, c)
    alg = to_structure_constants(spec)
    rep = line_profile(alg, PairVector((1, 2, 0), (0, 3, 1)), inventory=build_inventory(alg),
                       algebra_class=isotopy_class(spec))
    assert rep.match is True


def test_pool_size_is_bounded_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    assert pool_size(1, 10) == 1
    assert pool_size(3, 10) == 3
    assert pool_size(10**6, 10) == 4
    assert pool_size(10**6, 2) == 2
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert pool_size(8, 10) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            pool_size(bad, 10)


def test_index_chunks_cover_the_range_in_order():
    chunks = index_chunks(3**6)
    assert chunks[0][0] == 0 and chunks[-1][1] == 3**6
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert len(index_chunks(4**6)) == 4**6 // census.CHUNK


def test_line_counts_partition_dim1_total(alg3, inv3):
    prof = per_vector_profile(alg3, V0, inventory=inv3,
                              algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    lines = line_profile(alg3, V0, inventory=inv3,
                         algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    total = sum(int(count) * n
                for bucket in lines.observed.values()
                for count, n in bucket.items())
    assert total == prof.observed["vectors"]["dim1"]


def test_line_profile_rejects_degenerate(alg3, inv3):
    with pytest.raises(ValueError):
        line_profile(alg3, PairVector((1, 0, 0), (2, 0, 0)), inventory=inv3)


def test_profile_rejects_zero(alg3, inv3):
    with pytest.raises(ValueError):
        per_vector_profile(alg3, PairVector((0, 0, 0), (0, 0, 0)), inventory=inv3)


def test_profiles_without_tables_are_a_type_error(alg3):
    # the tables are the caller's to pass: no profile builds the q^6 inventory by itself
    with pytest.raises(TypeError, match="inventory"):
        per_vector_profile(alg3, V0, algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    with pytest.raises(TypeError, match="inventory"):
        line_profile(alg3, V0)


def test_profile_without_class_has_no_predictions(alg3, inv3):
    rep = per_vector_profile(alg3, V0, inventory=inv3)
    assert rep.predicted is None and rep.match is None


def test_csv_rows_shape(alg3, inv3):
    rep = per_vector_profile(alg3, V0, inventory=inv3,
                             algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    rows = rep.csv_rows()
    assert [r["dim"] for r in rows] == ["3", "2", "1", "0_nondegenerate",
                                        "0_degenerate", "0_zero_vector"]
    assert all(set(r) == {"dim", "observed_vectors", "predicted_vectors",
                          "observed_spaces", "predicted_spaces", "match"} for r in rows)
    assert all(r["match"] == "true" for r in rows)


def test_report_round_trips_through_json(alg3, inv3):
    rep = per_vector_profile(alg3, V0, inventory=inv3,
                             algebra_class=IsotopyClass.COMMUTATIVE_ISOTOPIC)
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["observed"] == rep.observed
    assert back["match"] is True


def test_noncommutative_profiles_for_every_valid_c_q4(tower4):
    for c in valid_c_values(tower4):
        spec = TwistedFieldSpec(tower4, c)
        alg = to_structure_constants(spec)
        inv = build_inventory(alg)
        rep = per_vector_profile(alg, V0, inventory=inv,
                                 algebra_class=isotopy_class(spec))
        assert rep.match is True, c


def test_worker_count_does_not_change_inventory(alg3):
    a = build_inventory(alg3, workers=1)
    b = build_inventory(alg3, workers=3)
    assert [(r.rows, r.fiber, r.kind, r.rep, r.first_index) for r in a.spaces] == \
           [(r.rows, r.fiber, r.kind, r.rep, r.first_index) for r in b.spaces]


def test_worker_count_does_not_change_scan(alg3):
    cls = IsotopyClass.COMMUTATIVE_ISOTOPIC
    r1 = scan_all_nondegenerate(alg3, algebra_class=cls, workers=1)
    r2 = scan_all_nondegenerate(alg3, algebra_class=cls, workers=2)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1.pop("runtime_ms")
    d2.pop("runtime_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert r1.match is True


def test_spawn_pool_does_not_change_scan(alg3, monkeypatch):
    # where fork is unavailable, parallel_map starts its pool by spawn; q^6 = 729 is two chunks
    import multiprocessing

    get_context, methods = multiprocessing.get_context, []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: methods.append(method) or get_context(method))
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    cls = IsotopyClass.COMMUTATIVE_ISOTOPIC
    d1, d2 = (scan_all_nondegenerate(alg3, algebra_class=cls, workers=w).to_json_dict()
              for w in (1, 2))
    d1.pop("runtime_ms")
    d2.pop("runtime_ms")
    assert methods == ["spawn"]
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

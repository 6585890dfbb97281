from __future__ import annotations

import pytest

from twistfield import gf
from twistfield.engine.normalform import (
    E11,
    E22,
    ID2,
    _eigen_split,
    det2,
    inv2,
    mul2,
    pair_normal_form,
    template_matches,
)

from reference_kernels import (reference_det2, reference_eigen_split, reference_inv2,
                               reference_mul2)

F2 = gf.Field.of_order(2)
F3 = gf.Field.of_order(3)
F4 = gf.Field.of_order(4)


def all_mats(fld):
    n = fld.order
    return [((a, b), (c, d)) for a in range(n) for b in range(n)
            for c in range(n) for d in range(n)]


def test_identity_diag_pair_is_fixed():
    form = pair_normal_form(F3, ID2, ((1, 0), (0, 2)))
    assert form.tag == "I" and form.params == (1, 2)
    assert form.p_mat == ID2 and form.q_mat == ID2
    assert form.rep == (ID2, ((1, 0), (0, 2)))


def test_scalar_pair():
    form = pair_normal_form(F3, ID2, ((2, 0), (0, 2)))
    assert form.tag == "I" and form.params == (2, 2)


def test_jordan_block_detected():
    form = pair_normal_form(F3, ID2, ((1, 0), (1, 1)))
    assert form.tag == "II" and form.params == (1,)
    assert form.rep[1] == ((1, 0), (1, 1))


def test_column_swap_example_lands_in_v():
    # both factors rank one; a column swap aligns them to (E11, E22)
    form = pair_normal_form(F2, ((0, 1), (0, 0)), ((0, 0), (1, 0)))
    assert form.tag == "V"
    assert form.rep == (E11, E22)


def test_switched_tags():
    form = pair_normal_form(F3, ((1, 0), (0, 0)), ID2)
    assert form.tag == "III"
    assert 0 in form.params
    form = pair_normal_form(F3, ((1, 1), (2, 0)), ((1, 1), (1, 2)))
    assert form.tag in ("I", "II", "I*", "III", "IV")


def test_irreducible_case_gets_companion():
    # over GF(2), x^2 + x + 1 is irreducible; M = [[0,1],[1,1]] realizes it
    form = pair_normal_form(F2, ID2, ((0, 1), (1, 1)))
    assert form.tag == "I*"
    assert form.rep[0] == ID2
    assert template_matches(F2, form)


def test_zero_pairs():
    zero = ((0, 0), (0, 0))
    form = pair_normal_form(F2, zero, zero)
    assert form.tag == "VI" and form.rep == (zero, zero)
    form = pair_normal_form(F2, zero, ((0, 0), (0, 1)))
    assert form.tag == "VI" and form.rep == (zero, E11)


@pytest.mark.parametrize("fld", [F2, F3], ids=["GF2", "GF3"])
def test_exhaustive_all_pairs(fld):
    mats = all_mats(fld)
    tags = {}
    for g0 in mats:
        for g1 in mats:
            form = pair_normal_form(fld, g0, g1)
            tags[form.tag] = tags.get(form.tag, 0) + 1
            # (P, Q) verification happens inside pair_normal_form; check shape here
            assert template_matches(fld, form), (g0, g1, form.tag)
            assert det2(fld, form.p_mat) != 0 and det2(fld, form.q_mat) != 0
    assert sum(tags.values()) == len(mats) ** 2
    # the finite-field deviation really occurs, and only for invertible G0
    assert tags.get("I*", 0) > 0


def test_rank_one_reduction_covers_vi_and_vii():
    tags = set()
    for g0 in all_mats(F2):
        if det2(F2, g0) != 0 and g0 != ((0, 0), (0, 0)):
            continue
        for g1 in all_mats(F2):
            if det2(F2, g1) != 0:
                continue
            tags.add(pair_normal_form(F2, g0, g1).tag)
    assert {"V", "VI", "VII"} <= tags


def test_equivalence_is_witnessed():
    # spot-check that P g Q reproduces the representative through mul2
    g0, g1 = ((1, 2), (0, 1)), ((2, 1), (1, 1))
    form = pair_normal_form(F3, g0, g1)
    left0 = mul2(F3, mul2(F3, form.p_mat, g0), form.q_mat)
    left1 = mul2(F3, mul2(F3, form.p_mat, g1), form.q_mat)
    assert (left0, left1) == form.rep


@pytest.mark.parametrize("fld, count", [(F2, 60), (F3, 1584)], ids=["GF2", "GF3"])
def test_singular_g0_is_the_exchanged_invertible_case(fld, count):
    # with det G0 = 0 != det G1, (G0, G1) is (G1, G0) read with III for I and IV for II
    mats = all_mats(fld)
    singular = [g for g in mats if det2(fld, g) == 0]
    invertible = [g for g in mats if det2(fld, g) != 0]
    switched = {"I": "III", "II": "IV"}
    for g0 in singular:
        for g1 in invertible:
            form = pair_normal_form(fld, g0, g1)
            exchanged = pair_normal_form(fld, g1, g0)
            assert form.tag == switched[exchanged.tag], (g0, g1)
            assert form.params == exchanged.params
            assert form.rep == exchanged.rep[::-1]
            assert (form.p_mat, form.q_mat) == (exchanged.p_mat, exchanged.q_mat)
    assert len(singular) * len(invertible) == count


@pytest.mark.parametrize("fld", [F3, F4], ids=["GF3", "GF4"])
def test_table_helpers_match_the_field_method_reference(fld):
    # GF(4) is not prime, so its tables are not arithmetic mod q
    mats = all_mats(fld)
    for m in mats:
        assert det2(fld, m) == reference_det2(fld, m), m
        assert _eigen_split(fld, m) == reference_eigen_split(fld, m), m
        if reference_det2(fld, m):
            assert inv2(fld, m) == reference_inv2(fld, m), m
        else:
            with pytest.raises(ZeroDivisionError):
                inv2(fld, m)
    for a in mats:
        for b in mats:
            assert mul2(fld, a, b) == reference_mul2(fld, a, b), (a, b)

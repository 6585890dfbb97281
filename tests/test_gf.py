from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from twistfield import gf
from twistfield.linalg import decode_vector, f3_vectors, vec_index


def field_orders_small():
    return [2, 3, 4, 5]


def test_prime_field_examples():
    F3 = gf.Field.of_order(3)
    assert F3.add(2, 2) == 1
    assert F3.inv(2) == 2
    assert F3.mul(2, 2) == 1


def test_gf4_u_times_u():
    F4 = gf.Field.of_order(4)
    assert F4.spec.modulus == (1, 1, 1)
    u = F4.from_coeffs((0, 1))
    assert F4.mul(u, u) == F4.from_coeffs((1, 1))


def test_inverse_of_zero_raises():
    F5 = gf.Field.of_order(5)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_out_of_range_element_rejected():
    F3 = gf.Field.of_order(3)
    with pytest.raises(ValueError):
        F3.pow(7, 2)
    with pytest.raises(ValueError):
        F3.coeffs(-1)


@pytest.mark.parametrize("q", field_orders_small())
def test_field_axioms_exhaustive(q):
    F = gf.Field.of_order(q)
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3])
def test_tower_field_axioms_exhaustive(q):
    # the cubic extensions of orders 8 and 27
    K = gf.FieldTower.build(q).ext
    elems = list(K.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    for a in elems:
        if a:
            assert K.mul(a, K.inv(a)) == 1


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_only_base_fields_are_tabulated(q):
    # the kernels read GF(q) tables; K = GF(q^3) computes each operation on demand
    tower = gf.FieldTower.build(q)
    tables = ("add_t", "sub_t", "mul_t", "inv_t")
    assert all(getattr(tower.base, t) is not None for t in tables)
    assert all(getattr(tower.ext, t) is None for t in tables)


def test_pow_matches_repeated_multiplication():
    F9 = gf.Field.of_order(9)
    for a in F9.elements():
        acc = 1
        for e in range(1, 10):
            acc = F9.mul(acc, a)
            assert F9.pow(a, e) == acc
    assert F9.pow(5, 0) == 1
    assert F9.pow(5, -1) == F9.inv(5)


def test_elements_order_and_count():
    for q in (3, 4, 27):
        F = gf.Field.of_order(q) if q != 27 else gf.FieldTower.build(3).ext
        got = list(F.elements())
        assert got[0] == 0
        assert len(got) == q
        assert got == sorted(got)


# -- modulus selection -------------------------------------------------------


def test_find_cubic_modulus_gf2():
    F2 = gf.Field.of_order(2)
    assert gf.rootless_monic(F2, 3) == (1, 1, 0, 1)  # t^3 + t + 1


# every report header prints the tower modulus; at q = 3 it is t^3 + 2t + 1
PINNED_CUBICS = {3: (1, 2, 0, 1), 4: (2, 0, 0, 1), 5: (1, 1, 0, 1),
                 7: (2, 0, 0, 1), 8: (2, 1, 0, 1), 9: (3, 1, 0, 1)}


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_find_cubic_modulus_gf3_pinned(q):
    # regression constants for the documented scan (a_2 slowest) at every supported q
    assert gf.rootless_monic(gf.Field.of_order(q), 3) == PINNED_CUBICS[q]
    assert gf.FieldTower.build(q).f == PINNED_CUBICS[q]


def test_find_cubic_modulus_gf3_oracle():
    # independent re-scan with plain integer arithmetic mod 3
    def has_root(a0, a1, a2):
        return any((x**3 + a2 * x**2 + a1 * x + a0) % 3 == 0 for x in range(3))

    first = next(
        (a0, a1, a2, 1)
        for a2 in range(3) for a1 in range(3) for a0 in range(3)
        if not has_root(a0, a1, a2)
    )
    assert gf.rootless_monic(gf.Field.of_order(3), 3) == first


@pytest.mark.parametrize("q", field_orders_small())
def test_cubic_modulus_has_no_root(q):
    F = gf.Field.of_order(q)
    f = gf.rootless_monic(F, 3)
    for a in F.elements():
        acc = 0
        for c in reversed(f):
            acc = F.add(F.mul(acc, a), c)
        assert acc != 0


def test_default_field_specs():
    assert gf.default_field_spec(4).modulus == (1, 1, 1)
    assert gf.default_field_spec(8).modulus == (1, 1, 0, 1)
    assert gf.default_field_spec(9).modulus == (1, 0, 1)
    with pytest.raises(ValueError):
        gf.factor_prime_power(6)


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_k_index_is_the_f3_index(q):
    # K and F^3 share one index codec; orbit_certificate reads K.coeffs rows as F^3 vectors
    K = gf.FieldTower.build(q).ext
    vecs = f3_vectors(q)
    for x in K.elements():
        assert K.coeffs(x) == vecs[x]
        assert K.from_coeffs(vecs[x]) == vec_index(q, vecs[x]) == x


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_digit_views_at_every_level(q):
    # the prime subfield, GF(q) and K = GF(q^3): width 1, m and 3 digits, 3m prime digits
    tower = gf.FieldTower.build(q)
    F, K = tower.base, tower.ext
    p, m = gf.factor_prime_power(q)
    levels = [(F, m, m), (K, 3, 3 * m)]
    if m > 1:
        levels.insert(0, (F.subfield, 1, 1))
    for fld, width, total in levels:
        step = 7 if fld is K and q > 5 else 1
        for x in range(0, fld.order, step):
            digits = fld.coeffs(x)
            assert len(digits) == width
            assert fld.from_coeffs(digits) == x
            assert fld.prime_coeffs(x) == decode_vector(p, x, total)
            if fld is K:
                assert fld.prime_coeffs(x) == sum((F.prime_coeffs(d) for d in digits), ())


def test_field_spec_validation():
    with pytest.raises(ValueError):
        gf.FieldSpec(4, 1, (0, 1))  # p not prime
    for p in (1, 6, 9):  # below 2, not a prime power, a prime square
        with pytest.raises(ValueError, match="characteristic must be prime"):
            gf.FieldSpec(p, 1, (0, 1))
    with pytest.raises(ValueError):
        gf.FieldSpec(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        gf.FieldSpec(2, 2, (1, 0, 1))  # (u+1)^2 has a root


# -- tower: Frobenius and norm ------------------------------------------------


def test_frobenius_fixes_embedded_base(tower3):
    for a in range(3):
        assert tower3.frobenius(tower3.embed(a)) == tower3.embed(a)


def test_frobenius_order_three(tower3):
    for x in tower3.ext.elements():
        y = tower3.frobenius(tower3.frobenius(tower3.frobenius(x)))
        assert y == x
    fixed = [x for x in tower3.ext.elements() if tower3.frobenius(x) == x]
    assert len(fixed) == 3


def test_frobenius_of_t_in_alt_tower(tower3_alt):
    # K = GF(3)[t]/(t^3 - t - 1): sigma(t) = t^3 = t + 1
    t = tower3_alt.ext.from_coeffs((0, 1, 0))
    assert tower3_alt.ext.coeffs(tower3_alt.frobenius(t)) == (1, 1, 0)


def test_frobenius_is_ring_morphism(tower3):
    K = tower3.ext
    for x in K.elements():
        for y in range(0, 27, 5):
            assert tower3.frobenius(K.add(x, y)) == K.add(tower3.frobenius(x), tower3.frobenius(y))
            assert tower3.frobenius(K.mul(x, y)) == K.mul(tower3.frobenius(x), tower3.frobenius(y))


def test_norm_basic_values(tower3):
    assert tower3.norm(0) == 0
    assert tower3.norm(1) == 1


def test_norm_multiplicative(tower3):
    K = tower3.ext
    F = tower3.base
    for x in K.elements():
        for y in range(0, 27, 4):
            assert tower3.norm(K.mul(x, y)) == F.mul(tower3.norm(x), tower3.norm(y))


@pytest.mark.parametrize("q", field_orders_small())
def test_norm_fibers_exhaustive(q):
    tower = gf.FieldTower.build(q)
    fibers: dict[int, int] = {}
    for x in tower.ext.elements():
        if x:
            fibers[tower.norm(x)] = fibers.get(tower.norm(x), 0) + 1
    expected = (q**3 - 1) // (q - 1)
    assert set(fibers) == set(range(1, q))  # onto F^x
    assert all(n == expected for n in fibers.values())


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_frobenius_table_is_the_power_map(q):
    # the table comes from t^q and t^2q alone; every entry is x^q
    tower = gf.FieldTower.build(q)
    K = tower.ext
    assert tower.frob_t == [K.pow(x, q) for x in K.elements()]


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_negation_table_at_every_level(q):
    # neg_t is built digit by digit from the subfield's; sub reads it, so x + neg_t[x] = 0
    # is the independent check
    tower = gf.FieldTower.build(q)
    for fld in (tower.ext, tower.base, tower.base.subfield):
        if fld is not None:
            assert all(fld.neg_t[x] == fld.sub(0, x) and fld.add(x, fld.neg_t[x]) == 0
                       for x in fld.elements())


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_norm_table_is_the_product_of_the_conjugates(q):
    # the table is read off the table of y -> t y at the points of P^2(F) and scaled from
    # them; every entry is x x^sigma x^sigma^2 in K's own multiplication
    tower = gf.FieldTower.build(q)
    K, frob = tower.ext, tower.frob_t
    assert tower.norm_t == [K.mul(x, K.mul(frob[x], frob[frob[x]])) for x in K.elements()]


def tamper_first_power(monkeypatch, value):
    """Make the first `Field.pow` call return `value`: in `FieldTower.build` that call
    is t^q, the one power the Frobenius table reads."""
    real, calls = gf.Field.pow, []

    def tampered(fld, a, e):
        calls.append((a, e))
        return value if len(calls) == 1 else real(fld, a, e)

    monkeypatch.setattr(gf.Field, "pow", tampered)
    return calls


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_tampered_t_power_trips_the_tower_checks(monkeypatch, q):
    # t^q -> 1 makes x -> x_0 + x_1 + x_2, of rank 1, so never of order 3
    calls = tamper_first_power(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="Frobenius does not have order 3"):
        gf.FieldTower.build(q)
    assert calls == [(q, q)]  # the index of t is q
    # t^q -> t makes the identity, of order 3 but fixing all of K
    monkeypatch.undo()
    tamper_first_power(monkeypatch, q)
    with pytest.raises(RuntimeError, match="fixed field is not the embedded base"):
        gf.FieldTower.build(q)


def test_bad_tower_modulus_rejected():
    F3 = gf.Field.of_order(3)
    with pytest.raises(ValueError):
        F3.extension((0, 0, 0, 1))  # t^3 has the root 0


# -- element syntax -----------------------------------------------------------


@pytest.mark.parametrize("q", gf.SUPPORTED_Q)
def test_format_parse_round_trip(q):
    F = gf.Field.of_order(q)
    for a in F.elements():
        assert gf.parse_elem(F, gf.format_elem(F, a)) == a


def test_parse_negative_integers():
    F5 = gf.Field.of_order(5)
    assert gf.parse_elem(F5, "-1") == 4
    F4 = gf.Field.of_order(4)
    assert gf.parse_elem(F4, "u") == 2


def test_triple_round_trip(tower4):
    for x in range(0, 64, 7):
        assert gf.parse_triple(tower4, gf.format_triple(tower4, x)) == x
    with pytest.raises(ValueError):
        gf.parse_triple(tower4, "[1,2]")


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_gf9_commutativity_hypothesis(a, b):
    F9 = gf.Field.of_order(9)
    assert F9.mul(a, b) == F9.mul(b, a)
    assert F9.add(a, b) == F9.add(b, a)

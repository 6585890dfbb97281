from __future__ import annotations

import itertools

import pytest

from twistfield import algebra3 as a3
from twistfield import gf
from twistfield.algebra3 import (
    Algebra3,
    IsotopyClass,
    TwistedFieldSpec,
    basis_products,
    commutative_isotope,
    det3,
    is_division,
    isotopy_class,
    isotopy_witness,
    left_mul_matrix,
    mulvec,
    pick_c_by_norm,
    right_mul_matrix,
    to_structure_constants,
    twisted_product,
    valid_c_values,
)
from twistfield.engine.spaces import pair_rows
from twistfield.linalg import f3_vectors, mat_vec
from twistfield.splitalbert import SplitAlbertSpec, TriVector, phi, rmat

# q=3, c=2, f = t^3 - t - 1: structure constants computed once from the mini
# oracle below and frozen.
PINNED_TENSOR = (
    ((2, 0, 0), (1, 2, 0), (1, 2, 2)),
    ((1, 2, 0), (0, 2, 2), (2, 0, 0)),
    ((1, 2, 2), (2, 0, 0), (1, 0, 1)),
)


def _poly_mul_mod3(a, b):
    # multiplication in GF(3)[t]/(t^3 - t - 1), plain integer arithmetic
    prod = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % 3
    for k in (4, 3):
        c = prod[k]
        prod[k] = 0
        prod[k - 3] = (prod[k - 3] + c) % 3  # t^3 = t + 1
        prod[k - 2] = (prod[k - 2] + c) % 3
    return tuple(prod[:3])


def _mini_oracle_tensor():
    def frob(x):
        y = _poly_mul_mod3(x, x)
        return _poly_mul_mod3(y, x)

    def mu_raw(x, y):
        xy_s = _poly_mul_mod3(x, frob(y))
        c_xs_y = _poly_mul_mod3((2, 0, 0), _poly_mul_mod3(frob(x), y))
        return tuple((p - q) % 3 for p, q in zip(xy_s, c_xs_y))

    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return tuple(tuple(mu_raw(bi, bj) for bj in basis) for bi in basis)


def test_pinned_tensor_matches_mini_oracle():
    assert _mini_oracle_tensor() == PINNED_TENSOR


def test_structure_constants_pinned(tower3_alt):
    spec = TwistedFieldSpec(tower3_alt, 2)
    assert to_structure_constants(spec).tensor == PINNED_TENSOR


def test_mu_bilinear_zeroes(comm3):
    for z in comm3.tower.ext.elements():
        assert twisted_product(comm3.tower, comm3.c, 0, z) == 0
        assert twisted_product(comm3.tower, comm3.c, z, 0) == 0


def test_mu_commutative_for_c_minus_one(comm3):
    # c = 2 = -1 in GF(3)
    tower, c = comm3
    for x in tower.ext.elements():
        for y in tower.ext.elements():
            assert twisted_product(tower, c, x, y) == twisted_product(tower, c, y, x)


def test_mu_with_c_one_has_isotropic_vectors(tower3):
    # invalid twisting element c = 1: mu(x, x) = 0 identically
    for x in tower3.ext.elements():
        assert twisted_product(tower3, 1, x, x) == 0


def test_structure_constants_round_trip(comm3, noncomm4):
    for spec in (comm3, noncomm4):
        alg = to_structure_constants(spec)
        K = spec.tower.ext
        q = spec.q
        basis = [1, q, q * q]
        for i, j in itertools.product(range(3), repeat=2):
            direct = K.coeffs(twisted_product(spec.tower, spec.c, basis[i], basis[j]))
            assert mulvec(alg, K.coeffs(basis[i]), K.coeffs(basis[j])) == direct


def test_commutative_tensor_symmetry(comm3):
    alg = to_structure_constants(comm3)
    assert alg.is_commutative()
    s = alg.tensor
    assert all(s[i][j] == s[j][i] for i in range(3) for j in range(3))


def test_mul_matrices_vanish_at_zero(alg3, alg4):
    zero = (0, 0, 0)
    for alg in (alg3, alg4):
        assert all(c == 0 for row in left_mul_matrix(alg, zero) for c in row)
        assert all(c == 0 for row in right_mul_matrix(alg, zero) for c in row)
        assert basis_products(alg, zero) == [zero] * 3


@pytest.mark.parametrize("q", [3, 4])
def test_contraction_reproduces_products_and_matrices(q):
    # every product derives from basis_products; check them all against mu itself
    tower = gf.FieldTower.build(q)
    K = tower.ext
    F = tower.base
    basis = [1, q, q * q]
    for c in (valid_c_values(tower)[0], valid_c_values(tower)[-1]):
        spec = TwistedFieldSpec(tower, c)
        alg = to_structure_constants(spec)
        for y in K.elements():
            b = K.coeffs(y)
            assert basis_products(alg, b) == [K.coeffs(twisted_product(tower, c, e, y))
                                              for e in basis]
            R = right_mul_matrix(alg, b)
            for x in K.elements():
                a = K.coeffs(x)
                want = K.coeffs(twisted_product(tower, c, x, y))
                assert mulvec(alg, a, b) == want
                assert mat_vec(F, left_mul_matrix(alg, a), b) == want
                assert mat_vec(F, R, a) == want
    # over the split Albert tensor, row i is phi(alpha_i, y): column i of R_y
    split = SplitAlbertSpec(F, (1, 2, 2))
    vecs = [K.coeffs(x) for x in K.elements()]  # all of F^3
    for y in vecs:
        ry = rmat(split, TriVector("V", y))
        assert basis_products(split, y) == [tuple(ry[k][i] for k in range(3)) for i in range(3)]
    for x, y in zip(vecs, reversed(vecs)):
        rx = rmat(split, TriVector("V", x))
        ry = rmat(split, TriVector("V", y))
        assert pair_rows(split, x, y) == [
            tuple(rx[k][i] for k in range(3)) + tuple(ry[k][i] for k in range(3))
            for i in range(3)]


def test_contraction_needs_a_tabulated_field():
    K = gf.FieldTower.build(7).ext  # GF(343) has no tables
    split = SplitAlbertSpec(K, (1, 1, 1))
    with pytest.raises(ValueError, match="tabulated") as raised:
        basis_products(split, (1, 0, 0))
    # phi and R_y contract the same tensor, so they refuse the same way
    for call in (lambda: phi(split, TriVector("U", (1, 0, 0)), TriVector("V", (0, 1, 0))),
                 lambda: rmat(split, TriVector("V", (0, 1, 0)))):
        with pytest.raises(ValueError) as again:
            call()
        assert str(again.value) == str(raised.value)


@pytest.mark.parametrize("q", [3, 5])
def test_commutative_isotope_is_multiplication_by_the_inverse_witness(q):
    # x o y = (T x) y with T = 1/a in K, up to F^x, a the witness from c = -1
    tower = gf.FieldTower.build(q)
    K = tower.ext
    minus_one = K.neg(1)
    basis = [1, q, q * q]
    for c in valid_c_values(tower):
        spec = TwistedFieldSpec(tower, c)
        iso = commutative_isotope(to_structure_constants(spec))
        if isotopy_class(spec) is IsotopyClass.NON_COMMUTATIVE:
            assert iso is None
            continue
        assert iso.is_commutative()
        a_inv = K.inv(isotopy_witness(tower, minus_one, c))
        want = [K.mul(a_inv, twisted_product(tower, minus_one, x, y))
                for x in basis for y in basis]
        got = [K.from_coeffs(mulvec(iso, K.coeffs(x), K.coeffs(y)))
               for x in basis for y in basis]
        assert any(got == [K.mul(lam, w) for w in want] for lam in range(1, q)), c
        if c == minus_one:
            assert iso == to_structure_constants(spec)


def test_left_matrix_agrees_with_tensor_contraction(alg3):
    F = alg3.field
    for ai in range(27):
        a = (ai % 3, ai // 3 % 3, ai // 9)
        L = left_mul_matrix(alg3, a)
        for bi in range(27):
            b = (bi % 3, bi // 3 % 3, bi // 9)
            via_matrix = tuple(
                F.add(F.add(F.mul(L[k][0], b[0]), F.mul(L[k][1], b[1])), F.mul(L[k][2], b[2]))
                for k in range(3)
            )
            assert via_matrix == mulvec(alg3, a, b)


def test_division_determinants_nonzero(alg3):
    F = alg3.field
    for ai in range(1, 27):
        a = (ai % 3, ai // 3 % 3, ai // 9)
        assert det3(F, left_mul_matrix(alg3, a)) != 0
        assert det3(F, right_mul_matrix(alg3, a)) != 0


@pytest.mark.parametrize("q", [3, 4, 5])
def test_is_division_for_every_valid_c(q):
    tower = gf.FieldTower.build(q)
    for c in valid_c_values(tower):
        assert is_division(to_structure_constants(TwistedFieldSpec(tower, c)))


def test_norm_one_c_is_not_division(tower3):
    # c = 1 has norm 1; the product acquires zero divisors
    K = tower3.ext
    basis = [1, 3, 9]
    tensor = tuple(
        tuple(K.coeffs(twisted_product(tower3, 1, bi, bj)) for bj in basis)
        for bi in basis
    )
    alg = Algebra3(tower3.base, tensor)
    assert not is_division(alg)
    # exhibit a vanishing determinant by enumeration
    F = tower3.base
    found = False
    for ai in range(1, 27):
        a = (ai % 3, ai // 3 % 3, ai // 9)
        if det3(F, left_mul_matrix(alg, a)) == 0:
            found = True
            break
    assert found
    # the right multiplications, which is_division no longer reads, are singular too
    assert any(det3(F, right_mul_matrix(alg, a)) == 0 for a in f3_vectors(3)[1:])


def test_field_product_is_division(tower3):
    K = tower3.ext
    basis = [1, 3, 9]
    tensor = tuple(tuple(K.coeffs(K.mul(bi, bj)) for bj in basis) for bi in basis)
    assert is_division(Algebra3(tower3.base, tensor))


# -- twisted field spec validation --------------------------------------------


def test_q2_rejected_with_norm_explanation():
    tower2 = gf.FieldTower.build(2)
    with pytest.raises(ValueError, match="norm"):
        TwistedFieldSpec(tower2, 1)


def test_zero_and_norm_one_c_rejected(tower3):
    with pytest.raises(ValueError):
        TwistedFieldSpec(tower3, 0)
    with pytest.raises(ValueError, match="norm 1"):
        TwistedFieldSpec(tower3, 1)


def test_pick_c_by_norm_deterministic(tower3):
    assert pick_c_by_norm(tower3, 2) == 2
    with pytest.raises(ValueError):
        pick_c_by_norm(tower3, 0)


# -- isotopy -------------------------------------------------------------------


def test_witness_for_equal_c_is_identity(tower3):
    assert isotopy_witness(tower3, 2, 2) == 1


def test_witness_exists_for_all_equal_norm_pairs_q3(tower3):
    cs = valid_c_values(tower3)
    assert len(cs) == 13
    for c in cs:
        for c2 in cs:
            assert isotopy_witness(tower3, c, c2) != 0


def test_witness_identity_on_full_space(tower3):
    cs = valid_c_values(tower3)
    K = tower3.ext
    a = isotopy_witness(tower3, cs[0], cs[5])
    for x in range(0, 27, 2):
        for y in range(0, 27, 3):
            lhs = K.mul(a, twisted_product(tower3, cs[5], x, y))
            rhs = twisted_product(tower3, cs[0], K.mul(a, x), y)
            assert lhs == rhs


def test_witness_refused_for_distinct_norms(tower4):
    cs = valid_c_values(tower4)
    c_lo = next(c for c in cs if tower4.norm(c) == 2)
    c_hi = next(c for c in cs if tower4.norm(c) == 3)
    with pytest.raises(ValueError, match="differs"):
        isotopy_witness(tower4, c_lo, c_hi)


def test_isotopy_class_q3(comm3):
    assert isotopy_class(comm3) is IsotopyClass.COMMUTATIVE_ISOTOPIC


def test_isotopy_class_q4_never_commutative(tower4):
    minus_one = tower4.base.neg(1)
    assert minus_one == 1  # characteristic 2
    for c in valid_c_values(tower4):
        assert tower4.norm(c) != minus_one
        assert isotopy_class(TwistedFieldSpec(tower4, c)) is IsotopyClass.NON_COMMUTATIVE


def test_isotopy_class_q5_norm_two(tower5):
    c = pick_c_by_norm(tower5, 2)
    assert isotopy_class(TwistedFieldSpec(tower5, c)) is IsotopyClass.NON_COMMUTATIVE


def test_algebra_json_shape(alg3):
    payload = alg3.to_json()
    assert payload["q"] == 3
    assert len(payload["tensor"]) == 27
    assert all(isinstance(s, str) for s in payload["tensor"])

from __future__ import annotations

import functools
import itertools
import random

import pytest

from twistfield import gf, splitalbert
from twistfield.algebra3 import TwistedFieldSpec, det3, pick_c_by_norm, valid_c_values
from twistfield.linalg import f3_vectors, identity_rows, mat_vec, rref_rows
from twistfield.splitalbert import (
    SplitAlbertSpec,
    TriVector,
    char_poly_ratio,
    check_splitting_identity,
    cyclic_isomorphism,
    lambda_map,
    lmat,
    nu_product,
    nu_via_phi,
    phi,
    reversal_isomorphism,
    rho_map,
    rmat,
    rmat_inv,
    scale_isomorphism,
    split_twisted_field,
    splitting_counterexample,
)

from reference_kernels import mat_mul, reference_phi

F3 = gf.Field.of_order(3)
F5 = gf.Field.of_order(5)
F7 = gf.Field.of_order(7)

BASIS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def U(v):
    return TriVector("U", v)


def V(v):
    return TriVector("V", v)


def spec_with(fld, d):
    return SplitAlbertSpec(fld, d)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_with(F3, (0, 1, 1))
    with pytest.raises(ValueError):
        spec_with(F3, (1, 1, 2))  # product 2 = -1 over GF(3)
    with pytest.raises(ValueError):
        TriVector("X", (1, 0, 0))


def test_phi_tag_mismatch():
    spec = spec_with(F3, (1, 1, 1))
    with pytest.raises(ValueError):
        phi(spec, V((1, 0, 0)), V((0, 1, 0)))


def test_phi_basis_table():
    spec = spec_with(F5, (2, 3, 3))
    d = spec.d
    for i in range(3):
        assert phi(spec, U(BASIS[i]), V(BASIS[i])).coords == (0, 0, 0)
        got = phi(spec, U(BASIS[i]), V(BASIS[(i + 1) % 3])).coords
        expect = tuple(1 if k == (i + 2) % 3 else 0 for k in range(3))
        assert got == expect
        got = phi(spec, U(BASIS[i]), V(BASIS[(i + 2) % 3])).coords
        expect = tuple(d[(i + 1) % 3] if k == (i + 1) % 3 else 0 for k in range(3))
        assert got == expect


def test_phi_alpha0_beta2_is_d1_gamma1():
    spec = spec_with(F5, (2, 3, 3))
    assert phi(spec, U((1, 0, 0)), V((0, 0, 1))).coords == (0, 3, 0)


def test_phi_all_ones_matches_matrix():
    # row sums of the L_x matrix: coordinates (1+d0, 1+d1, 1+d2)
    spec = spec_with(F5, (1, 1, 1))
    ones = (1, 1, 1)
    via_matrix = mat_vec(F5, lmat(spec, U(ones)), ones)
    assert phi(spec, U(ones), V(ones)).coords == tuple(via_matrix) == (2, 2, 2)


def test_phi_agrees_with_lmat_and_rmat():
    spec = spec_with(F3, (1, 1, 1))
    for u in itertools.product(range(3), repeat=3):
        for v in itertools.product(range(3), repeat=3):
            w = phi(spec, U(u), V(v)).coords
            assert w == tuple(mat_vec(F3, lmat(spec, U(u)), v))
            assert w == tuple(mat_vec(F3, rmat(spec, V(v)), u))


def first_and_last_valid_d(fld):
    q = fld.order
    ds = [d for d in itertools.product(range(1, q), repeat=3)
          if fld.mul(d[0], fld.mul(d[1], d[2])) != fld.neg(1)]
    return ds[0], ds[-1]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_tensor_phi_lmat_rmat_match_the_basis_rules(q):
    # the tensor is written from the rules and phi, L_x, R_y contract it; reference_phi
    # sums the rules term by term: every pair at q=3, basis and mixed vectors above
    fld = gf.Field.of_order(q)
    vecs = f3_vectors(q) if q == 3 else BASIS + list(f3_vectors(q)[::7])
    for d in first_and_last_valid_d(fld):
        spec = spec_with(fld, d)
        assert spec.tensor == tuple(tuple(reference_phi(spec, a, b) for b in BASIS)
                                    for a in BASIS)
        rmats = {v: rmat(spec, V(v)) for v in vecs}
        for u in vecs:
            lu = lmat(spec, U(u))
            for v in vecs:
                want = reference_phi(spec, u, v)
                assert phi(spec, U(u), V(v)).coords == want, (d, u, v)
                assert mat_vec(fld, lu, v) == want == mat_vec(fld, rmats[v], u), (d, u, v)


def test_lmat_template_at_alpha0():
    spec = spec_with(F5, (2, 3, 3))
    assert lmat(spec, U((1, 0, 0))) == ((0, 0, 0), (0, 0, 3), (0, 1, 0))


# over GF(2) no valid constants exist: d is forced to 1 = -1
@pytest.mark.parametrize("q,d", [(3, (1, 1, 1)), (4, (1, 1, 2)), (5, (1, 2, 3))])
def test_determinant_formulas_exhaustive(q, d):
    fld = gf.Field.of_order(q)
    spec = spec_with(fld, d)
    one_plus_d = fld.add(1, spec.d_product)
    for x in itertools.product(range(q), repeat=3):
        expect = fld.mul(one_plus_d, fld.mul(x[0], fld.mul(x[1], x[2])))
        assert det3(fld, lmat(spec, U(x))) == expect
        assert det3(fld, rmat(spec, V(x))) == expect


def test_kernel_of_lmat_when_x0_vanishes():
    spec = spec_with(F5, (2, 3, 3))
    for x1 in range(5):
        for x2 in range(5):
            if (x1, x2) == (0, 0):
                continue
            x = (0, x1, x2)
            killer = (0, x1, F5.neg(F5.mul(2, x2)))  # x1 beta1 - d0 x2 beta2
            assert tuple(mat_vec(F5, lmat(spec, U(x)), killer)) == (0, 0, 0)
            assert killer != (0, 0, 0)


@pytest.mark.parametrize("q,d", [(3, (1, 1, 1)), (5, (1, 2, 3))])
def test_nonregular_kernels_are_one_dimensional(q, d):
    fld = gf.Field.of_order(q)
    spec = spec_with(fld, d)
    for x in itertools.product(range(q), repeat=3):
        if x == (0, 0, 0) or all(c != 0 for c in x):
            continue
        assert len(rref_rows(fld, lmat(spec, U(x)))[0]) == 2


def test_injectivity_for_independent_pairs():
    # independent y, y' make x -> (xy, xy') injective: the stacked 6x3 map has rank 3
    spec = spec_with(F3, (1, 1, 1))
    for y in itertools.product(range(3), repeat=3):
        for y2 in itertools.product(range(3), repeat=3):
            stack, _ = rref_rows(F3, (y, y2))
            if len(stack) != 2:
                continue
            ry = rmat(spec, V(y))
            ry2 = rmat(spec, V(y2))
            rows = [tuple(ry[k][i] for k in range(3)) + tuple(ry2[k][i] for k in range(3))
                    for i in range(3)]
            assert len(rref_rows(F3, rows)[0]) == 3


def test_rmat_inv_exhaustive_gf3():
    spec = spec_with(F3, (1, 1, 1))
    for y in itertools.product((1, 2), repeat=3):
        prod = mat_mul(F3, rmat_inv(spec, V(y)), rmat(spec, V(y)))
        assert prod == identity_rows(3)


def test_rmat_inv_leading_entry():
    # y = (1,1,1), d = (1,1,1) over GF(5): leading entry -d2/(1+d) = -1/2 = 2
    spec = spec_with(F5, (1, 1, 1))
    assert rmat_inv(spec, V((1, 1, 1)))[0][0] == F5.mul(F5.neg(1), F5.inv(2))


def test_rmat_inv_requires_regular():
    spec = spec_with(F5, (1, 1, 1))
    with pytest.raises(ValueError):
        rmat_inv(spec, V((0, 1, 1)))


# -- characteristic roots ------------------------------------------------------


def char_poly_coeffs(fld, m):
    tr = fld.add(fld.add(m[0][0], m[1][1]), m[2][2])
    minors = 0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minors = fld.add(minors, fld.sub(fld.mul(m[i][i], m[j][j]), fld.mul(m[i][j], m[j][i])))
    return tr, minors, det3(fld, m)


def elementary_symmetric(fld, roots):
    e1 = 0
    for r in roots:
        e1 = fld.add(e1, r)
    e2 = 0
    for a, b in itertools.combinations(roots, 2):
        e2 = fld.add(e2, fld.mul(a, b))
    e3 = fld.mul(roots[0], fld.mul(roots[1], roots[2]))
    return e1, e2, e3


def test_char_poly_identity_map():
    spec = spec_with(F5, (1, 2, 3))
    y = V((1, 2, 3))
    assert char_poly_ratio(spec, y, y) == (1, 1, 1)


def test_char_poly_example_gf5():
    spec = spec_with(F5, (1, 1, 1))
    assert char_poly_ratio(spec, V((1, 2, 3)), V((1, 1, 1))) == (1, 2, 3)


def test_char_poly_all_regular_pairs_gf3():
    spec = spec_with(F3, (1, 1, 1))
    regs = list(itertools.product((1, 2), repeat=3))
    for y in regs:
        for y2 in regs:
            m = mat_mul(F3, rmat_inv(spec, V(y2)), rmat(spec, V(y)))
            roots = char_poly_ratio(spec, V(y), V(y2))
            assert elementary_symmetric(F3, roots) == char_poly_coeffs(F3, m)


def test_char_poly_random_pairs_gf7():
    spec = spec_with(F7, (2, 2, 3))
    rng = random.Random(7)
    for _ in range(500):
        y = tuple(rng.randrange(1, 7) for _ in range(3))
        y2 = tuple(rng.randrange(1, 7) for _ in range(3))
        m = mat_mul(F7, rmat_inv(spec, V(y2)), rmat(spec, V(y)))
        roots = char_poly_ratio(spec, V(y), V(y2))
        e1, e2, e3 = elementary_symmetric(F7, roots)
        tr, minors, det = char_poly_coeffs(F7, m)
        assert (e1, e2, e3) == (tr, minors, det)
        assert tr == e1  # trace equals t0 + t1 + t2


# -- isomorphism families ------------------------------------------------------


def test_scale_isomorphism_identity():
    spec = spec_with(F5, (1, 2, 3))
    dst, iso = scale_isomorphism(spec, (1, 1, 1), (1, 1, 1))
    assert dst == spec
    assert iso.f == identity_rows(3) and iso.g == identity_rows(3) and iso.h == identity_rows(3)


def test_scale_isomorphism_product_invariant():
    rng = random.Random(5)
    spec = spec_with(F5, (1, 2, 3))
    for _ in range(100):
        r = tuple(rng.randrange(1, 5) for _ in range(3))
        s = tuple(rng.randrange(1, 5) for _ in range(3))
        dst, _ = scale_isomorphism(spec, r, s)
        assert dst.d_product == spec.d_product


def test_scale_isomorphism_intertwines_gf3():
    # check_on_basis runs inside the constructor; exercise every (r, s) pair
    spec = spec_with(F3, (1, 1, 1))
    for r in itertools.product((1, 2), repeat=3):
        for s in itertools.product((1, 2), repeat=3):
            scale_isomorphism(spec, r, s)


def test_wrong_h_fails_the_isomorphism_check():
    spec = spec_with(F5, (1, 2, 3))
    _, iso = cyclic_isomorphism(spec)
    bad = iso._replace(h=tuple(tuple(F5.mul(2, c) for c in row) for row in iso.h))
    with pytest.raises(RuntimeError, match=r"isomorphism fails on basis pair \(0,1\)"):
        bad.check_on_basis()


def test_scale_isomorphism_rejects_zero():
    with pytest.raises(ValueError):
        scale_isomorphism(spec_with(F5, (1, 2, 3)), (0, 1, 1), (1, 1, 1))


def test_cyclic_isomorphism_cubes_to_identity():
    spec = spec_with(F5, (1, 2, 3))
    s1, _ = cyclic_isomorphism(spec)
    s2, _ = cyclic_isomorphism(s1)
    s3, _ = cyclic_isomorphism(s2)
    assert s1.d == (3, 1, 2) and s3 == spec


def test_reversal_isomorphism_squares_to_identity():
    spec = spec_with(F5, (1, 2, 3))
    s1, _ = reversal_isomorphism(spec)
    assert s1.d == (F5.inv(2), F5.inv(1), F5.inv(3))
    s2, _ = reversal_isomorphism(s1)
    assert s2 == spec


def test_reversal_inverts_d_product():
    spec = spec_with(F5, (2, 2, 3))
    s1, _ = reversal_isomorphism(spec)
    assert s1.d_product == F5.inv(spec.d_product)
    one = spec_with(F5, (1, 1, 1))
    assert reversal_isomorphism(one)[0].d_product == 1


# -- splitting a twisted field --------------------------------------------------


def test_split_q3_constants(comm3, tower3):
    stf = split_twisted_field(comm3)
    # c = 2 lies in the base field, so every conjugate is 2 and d_i = -2 = 1
    assert stf.spec.d == (1, 1, 1)
    assert stf.spec.d_product == tower3.ext.neg(tower3.norm(2))
    assert stf.embed(1) == (1, 1, 1)


def test_splitting_identity_exhaustive_q3(comm3):
    stf = split_twisted_field(comm3)
    pairs = [(x, y) for x in range(27) for y in range(27)]
    check_splitting_identity(stf, pairs)


def test_splitting_counterexample_is_the_first_failing_pair(comm3, monkeypatch):
    stf = split_twisted_field(comm3)
    pairs = [(x, y) for x in range(27) for y in range(27)]
    assert splitting_counterexample(stf, pairs) is None
    real = splitalbert.twisted_mu
    bad = {(4, 9), (5, 1)}
    monkeypatch.setattr(splitalbert, "twisted_mu",
                        lambda tf, x, y: (real(tf, x, y) + ((x, y) in bad)) % 27)
    assert splitting_counterexample(stf, pairs) == (4, 9)
    assert splitting_counterexample(stf, pairs[::-1]) == (5, 1)
    with pytest.raises(RuntimeError, match=r"\(4, 9\)"):
        check_splitting_identity(stf, pairs)


@pytest.mark.parametrize("q", [4, 5])
def test_splitting_identity_random(q):
    tower = gf.FieldTower.build(q)
    stf = split_twisted_field(TwistedFieldSpec(tower, valid_c_values(tower)[0]))
    rng = random.Random(q)
    n = tower.ext.order
    check_splitting_identity(stf, [(rng.randrange(n), rng.randrange(n)) for _ in range(300)])


@functools.lru_cache(maxsize=None)
def tabulated_tower(q):
    """A tower of its own whose K = GF(q^3) carries add, sub, mul and inverse tables,
    filled from its untabulated operations.

    The exhaustive references below make about n^2 products in K each; the shared
    `tower*` fixtures keep K untabulated, the path the CLI runs.
    """
    tower = gf.FieldTower.build(q)
    K = tower.ext
    n = K.order
    add, sub, mul = ([[op(a, b) for b in range(n)] for a in range(n)]
                     for op in (K.add, K.sub, K.mul))
    inv = [0] + [K.inv(a) for a in range(1, n)]
    K.add_t, K.sub_t, K.mul_t, K.inv_t = add, sub, mul, inv
    return tower


def basis_pairs(q):
    """The 9 pairs of the F-basis (1, t, t^2) of K, as element indices."""
    basis = (1, q, q * q)
    return [(x, y) for x in basis for y in basis]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_basis_pairs_decide_the_splitting_identity(request, q):
    # both sides are F-bilinear, so the 9 basis pairs agree with all n^2 pairs, also
    # for a nu with rotated conjugates of c (still K-bilinear, and wrong off the base field)
    tower = tabulated_tower(q)
    assert tower.base.order == q and request.getfixturevalue(f"tower{q}").f == tower.f
    n = tower.ext.order
    every = [(x, y) for x in range(n) for y in range(n)]
    if q == 5:
        cs = [pick_c_by_norm(tower, tower.base.neg(1)), pick_c_by_norm(tower, 2)]
    else:
        cs = valid_c_values(tower)
    failing = 0
    for c in cs:
        stf = split_twisted_field(TwistedFieldSpec(tower, c))
        assert splitting_counterexample(stf, basis_pairs(q)) is None
        assert splitting_counterexample(stf, every) is None
        a, b, d = stf.c_conj
        rotated = stf._replace(c_conj=(b, d, a))
        on_basis = splitting_counterexample(rotated, basis_pairs(q))
        assert (on_basis is None) == (splitting_counterexample(rotated, every) is None), c
        failing += on_basis is not None
    assert failing == sum(c >= q for c in cs)  # exactly the c outside F have distinct conjugates


def test_nonlinear_frobenius_table_is_refused(tower3):
    tower = tower3._replace(frob_t=list(tower3.frob_t))
    tower.frob_t[1 + 3] = tower.frob_t[2 + 3]  # 1 + t now maps where 2 + t does
    with pytest.raises(RuntimeError, match="not F-linear at 4"):
        split_twisted_field(TwistedFieldSpec(tower, 2))


def test_nu_matches_phi_on_basis():
    # the one place the W-relabeling gamma_i = e_{i+1} is pinned; phi contracts over K
    stf = split_twisted_field(TwistedFieldSpec(tabulated_tower(3), 2))  # comm3's c = -1
    for ei in BASIS:
        for ej in BASIS:
            assert nu_product(stf, ei, ej) == nu_via_phi(stf, ei, ej)


def test_nu_matches_phi_exhaustive_q3():
    stf = split_twisted_field(TwistedFieldSpec(tabulated_tower(3), 2))  # comm3's c = -1
    for xi in itertools.product(range(27), repeat=3):
        eta = (xi[2], xi[0], (xi[1] * 7 + 1) % 27)
        assert nu_product(stf, xi, eta) == nu_via_phi(stf, xi, eta)


def test_nu_componentwise_formula(comm3):
    K = comm3.tower.ext
    stf = split_twisted_field(comm3)
    rng = random.Random(11)
    for _ in range(200):
        xi = tuple(rng.randrange(27) for _ in range(3))
        eta = tuple(rng.randrange(27) for _ in range(3))
        er, xr = rho_map(eta), rho_map(xi)
        direct = tuple(
            K.sub(K.mul(xi[i], er[i]), K.mul(stf.c_conj[i], K.mul(xr[i], eta[i])))
            for i in range(3)
        )
        assert direct == nu_product(stf, xi, eta)


def test_lambda_fixes_exactly_embedded_field(comm3):
    stf = split_twisted_field(comm3)
    fixed = [xi for xi in itertools.product(range(27), repeat=3)
             if lambda_map(stf, xi) == xi]
    assert len(fixed) == 27
    assert set(fixed) == {stf.embed(a) for a in range(27)}


def test_lambda_permutes_basis(comm3):
    stf = split_twisted_field(comm3)
    for i in range(3):
        assert lambda_map(stf, BASIS[i]) == BASIS[(i + 1) % 3]


def test_rho_has_order_three():
    xi = (5, 11, 23)
    assert rho_map(rho_map(rho_map(xi))) == xi
    assert rho_map(xi) == (11, 23, 5)

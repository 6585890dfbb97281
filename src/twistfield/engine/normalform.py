"""Normal form of a 2x2 matrix pair (G0, G1) under (P, Q) -> (P G0 Q, P G1 Q).

Tags follow the seven-class list: I (identity, diagonal), II (identity, lower
Jordan block), III/IV the switched versions, V the (E11, E22) pair, VI/VII the
pairs supported on the top row / left column with residual entries verbatim.
Over a finite field a pair with G0 invertible may have an irreducible
characteristic polynomial for G0^{-1} G1; those get the extra tag I* with the
companion-matrix representative (I, [[0, -det], [1, tr]]).  A switched pair
never needs the analogue: a singular 2x2 matrix always has eigenvalues
{0, trace} in the field.

The tag is invariant under (G0, G1) -> (P G0, P G1), P in GL2: det(P G) =
det P det G keeps which matrix is invertible, (P G0)^{-1} (P G1) = G0^{-1} G1
keeps the similarity class that picks I, II, I* (and likewise III, IV), and
for two singular matrices the tag reads only whether the pencil s G0 + t G1
is regular (V), whether the rows of [G0 | G1] span at most a line (VI), or
else whether the columns of [G0 ; G1] do (VII), none of which P changes.
`verify_normal_forms` classifies one pair per left-GL2 orbit on that ground,
and checks the invariance on generators of GL2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..gf import Field

Mat2 = tuple[tuple[int, int], tuple[int, int]]

ID2: Mat2 = ((1, 0), (0, 1))
E11: Mat2 = ((1, 0), (0, 0))
E22: Mat2 = ((0, 0), (0, 1))


def det2(fld: Field, m: Mat2) -> int:
    return fld.sub(fld.mul(m[0][0], m[1][1]), fld.mul(m[0][1], m[1][0]))


def mul2(fld: Field, a: Mat2, b: Mat2) -> Mat2:
    return tuple(
        tuple(fld.add(fld.mul(a[i][0], b[0][j]), fld.mul(a[i][1], b[1][j])) for j in range(2))
        for i in range(2)
    )


def inv2(fld: Field, m: Mat2) -> Mat2:
    d = det2(fld, m)
    s = fld.inv(d)
    return (
        (fld.mul(s, m[1][1]), fld.mul(s, fld.neg(m[0][1]))),
        (fld.mul(s, fld.neg(m[1][0])), fld.mul(s, m[0][0])),
    )


@dataclass(frozen=True)
class PairNormalForm:
    field: Field = dc_field(compare=False)
    tag: str = ""
    params: tuple[int, ...] = ()
    rep: tuple[Mat2, Mat2] = ()
    p_mat: Mat2 = ID2
    q_mat: Mat2 = ID2


def _eigen_split(fld: Field, m: Mat2):
    """Roots in F of X^2 - tr X + det, or None."""
    tr = fld.add(m[0][0], m[1][1])
    det = det2(fld, m)
    roots = [x for x in fld.elements()
             if fld.add(fld.mul(x, x), det) == fld.mul(tr, x)]
    return roots, tr, det


def _eigenvector(fld: Field, m: Mat2, lam: int) -> tuple[int, int]:
    """A kernel vector of m - lam*I, leading coordinate normalized to 1."""
    a = ((fld.sub(m[0][0], lam), m[0][1]), (m[1][0], fld.sub(m[1][1], lam)))
    if a[0] != (0, 0):
        v = (a[0][1], fld.neg(a[0][0]))
    else:
        v = (a[1][1], fld.neg(a[1][0]))
    lead = v[0] if v[0] else v[1]
    s = fld.inv(lead)
    return (fld.mul(s, v[0]), fld.mul(s, v[1]))


def _apply2(fld: Field, m: Mat2, v) -> tuple[int, int]:
    return (
        fld.add(fld.mul(m[0][0], v[0]), fld.mul(m[0][1], v[1])),
        fld.add(fld.mul(m[1][0], v[0]), fld.mul(m[1][1], v[1])),
    )


def _similarity_to_normal(fld: Field, m: Mat2):
    """(rep, tag, params, S) with S^{-1} m S = rep."""
    roots, tr, det = _eigen_split(fld, m)
    if len(roots) == 2:
        lam, mu_ = roots
        s1 = _eigenvector(fld, m, lam)
        s2 = _eigenvector(fld, m, mu_)
        S = ((s1[0], s2[0]), (s1[1], s2[1]))
        return ((lam, 0), (0, mu_)), "diag", (lam, mu_), S
    if len(roots) == 1:
        lam = roots[0]
        if m == ((lam, 0), (0, lam)):
            return ((lam, 0), (0, lam)), "diag", (lam, lam), ID2
        # lower Jordan block: columns s1 with (m - lam) s1 != 0, then s2 = (m - lam) s1
        shifted = ((fld.sub(m[0][0], lam), m[0][1]), (m[1][0], fld.sub(m[1][1], lam)))
        for cand in ((1, 0), (0, 1)):
            s2 = _apply2(fld, shifted, cand)
            if s2 != (0, 0):
                s1 = cand
                break
        S = ((s1[0], s2[0]), (s1[1], s2[1]))
        return ((lam, 0), (1, lam)), "jordan", (lam,), S
    # irreducible characteristic polynomial: companion form on the basis (w, m w)
    s1 = (1, 0)
    s2 = _apply2(fld, m, s1)
    S = ((s1[0], s2[0]), (s1[1], s2[1]))
    return ((0, fld.neg(det)), (1, tr)), "companion", (det, tr), S


def _reduce_rank1(fld: Field, a: Mat2) -> tuple[Mat2, Mat2]:
    """(P, Q) with P a Q = E11 for a nonzero singular matrix."""
    P, Q = ID2, ID2
    i, j = next((i, j) for i in range(2) for j in range(2) if a[i][j])
    if i == 1:
        P = ((0, 1), (1, 0))
    if j == 1:
        Q = ((0, 1), (1, 0))
    m = mul2(fld, mul2(fld, P, a), Q)
    s = fld.inv(m[0][0])
    P = mul2(fld, ((s, 0), (0, 1)), P)
    m = mul2(fld, mul2(fld, P, a), Q)
    if m[1][0]:
        P = mul2(fld, ((1, 0), (fld.neg(m[1][0]), 1)), P)
        m = mul2(fld, mul2(fld, P, a), Q)
    if m[0][1]:
        Q = mul2(fld, Q, ((1, fld.neg(m[0][1])), (0, 1)))
        m = mul2(fld, mul2(fld, P, a), Q)
    if m != E11:
        raise RuntimeError("rank-1 reduction failed")  # would mean rank 2 input
    return P, Q


def pair_normal_form(fld: Field, g0: Mat2, g1: Mat2) -> PairNormalForm:
    g0 = tuple(tuple(r) for r in g0)
    g1 = tuple(tuple(r) for r in g1)
    if det2(fld, g0) != 0:
        m = mul2(fld, inv2(fld, g0), g1)
        rep1, kind, params, S = _similarity_to_normal(fld, m)
        Sinv = inv2(fld, S)
        P = mul2(fld, Sinv, inv2(fld, g0))
        tag = {"diag": "I", "jordan": "II", "companion": "I*"}[kind]
        form = PairNormalForm(fld, tag, params, (ID2, rep1), P, S)
    elif det2(fld, g1) != 0:
        m = mul2(fld, inv2(fld, g1), g0)
        rep0, kind, params, S = _similarity_to_normal(fld, m)
        if kind == "companion":
            raise RuntimeError("singular matrix with irreducible characteristic polynomial")
        Sinv = inv2(fld, S)
        P = mul2(fld, Sinv, inv2(fld, g1))
        tag = {"diag": "III", "jordan": "IV"}[kind]
        form = PairNormalForm(fld, tag, params, (rep0, ID2), P, S)
    elif g0 != ((0, 0), (0, 0)):
        P, Q = _reduce_rank1(fld, g0)
        b = mul2(fld, mul2(fld, P, g1), Q)
        if b[1][1]:
            s = fld.inv(b[1][1])
            if b[0][1]:
                # row0 -= (b01/b11) row1 keeps E11 (its second row is zero)
                P = mul2(fld, ((1, fld.neg(fld.mul(b[0][1], s))), (0, 1)), P)
            if b[1][0]:
                Q = mul2(fld, Q, ((1, 0), (fld.neg(fld.mul(b[1][0], s)), 0 + 1)))
            P = mul2(fld, ((1, 0), (0, s)), P)
            b = mul2(fld, mul2(fld, P, g1), Q)
            if b != E22:
                raise RuntimeError("V-normalization failed")
            form = PairNormalForm(fld, "V", (), (E11, E22), P, Q)
        elif b[1][0] == 0:
            form = PairNormalForm(fld, "VI", (1, 0, b[0][0], b[0][1]), (E11, b), P, Q)
        elif b[0][1] == 0:
            form = PairNormalForm(fld, "VII", (1, 0, b[0][0], b[1][0]), (E11, b), P, Q)
        else:
            raise RuntimeError("singular matrix with b12*b21 != 0")
    elif g1 != ((0, 0), (0, 0)):
        P, Q = _reduce_rank1(fld, g1)
        zero = ((0, 0), (0, 0))
        form = PairNormalForm(fld, "VI", (0, 0, 1, 0), (zero, E11), P, Q)
    else:
        zero = ((0, 0), (0, 0))
        form = PairNormalForm(fld, "VI", (0, 0, 0, 0), (zero, zero), ID2, ID2)

    left0 = mul2(fld, mul2(fld, form.p_mat, g0), form.q_mat)
    left1 = mul2(fld, mul2(fld, form.p_mat, g1), form.q_mat)
    if (left0, left1) != form.rep:
        raise RuntimeError("normal form verification failed")
    if det2(fld, form.p_mat) == 0 or det2(fld, form.q_mat) == 0:
        raise RuntimeError("singular change of basis")
    return form


def template_matches(fld: Field, form: PairNormalForm) -> bool:
    """Does the stored representative have the printed shape of its tag?"""
    a, b = form.rep
    tag = form.tag
    if tag == "I":
        lam, mu_ = form.params
        return a == ID2 and b == ((lam, 0), (0, mu_))
    if tag == "II":
        (lam,) = form.params
        return a == ID2 and b == ((lam, 0), (1, lam))
    if tag == "I*":
        det, tr = form.params
        roots, _, _ = _eigen_split(fld, b)
        return a == ID2 and b == ((0, fld.neg(det)), (1, tr)) and not roots
    if tag == "III":
        lam, mu_ = form.params
        return b == ID2 and a == ((lam, 0), (0, mu_))
    if tag == "IV":
        (lam,) = form.params
        return b == ID2 and a == ((lam, 0), (1, lam))
    if tag == "V":
        return a == E11 and b == E22
    if tag == "VI":
        return a[1] == (0, 0) and b[1] == (0, 0)
    if tag == "VII":
        return a[0][1] == 0 and a[1][1] == 0 and b[0][1] == 0 and b[1][1] == 0
    return False

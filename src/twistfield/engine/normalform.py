"""Normal form of a 2x2 matrix pair (G0, G1) under (P, Q) -> (P G0 Q, P G1 Q).

Tags follow the seven-class list: I (identity, diagonal), II (identity, lower
Jordan block), III/IV the switched versions, V the (E11, E22) pair, VI/VII the
pairs supported on the top row / left column with residual entries verbatim.
Over a finite field a pair with G0 invertible may have an irreducible
characteristic polynomial for G0^{-1} G1; those get the extra tag I* with the
companion-matrix representative (I, [[0, -det], [1, tr]]).  `template` is the
one table of these representatives; `pair_normal_form` computes only the tag,
its params and (P, Q).  III/IV are I/II of the exchanged pair (G1, G0), and a
switched pair never needs an analogue of I*: a singular 2x2 matrix always has
eigenvalues {0, trace} in the field.

The tag is invariant under (G0, G1) -> (P G0, P G1), P in GL2: det(P G) =
det P det G keeps which matrix is invertible, (P G0)^{-1} (P G1) = G0^{-1} G1
keeps the similarity class that picks I, II, I* (and likewise III, IV), and
for two singular matrices the tag reads only whether the pencil s G0 + t G1
is regular (V), whether the rows of [G0 | G1] span at most a line (VI), or
else whether the columns of [G0 ; G1] do (VII), none of which P changes.
`verify_normal_forms` classifies one pair per left-GL2 orbit on that ground,
and spot-checks the invariance at each representative on generators of GL2.

The 2x2 kernels read rows of the field's `mul_t`, `add_t`, `sub_t`, `neg_t`
and `inv_t`, so `fld` must be tabulated (a base field GF(q) from `gf`).
"""

from __future__ import annotations

from collections import namedtuple

from ..gf import Field
from ..linalg import Keyed

Mat2 = tuple[tuple[int, int], tuple[int, int]]

ID2: Mat2 = ((1, 0), (0, 1))
E11: Mat2 = ((1, 0), (0, 0))
E22: Mat2 = ((0, 0), (0, 1))
ZERO: Mat2 = ((0, 0), (0, 0))


def det2(fld: Field, m: Mat2) -> int:
    (a, b), (c, d) = m
    mul = fld.mul_t
    return fld.sub_t[mul[a][d]][mul[b][c]]


def mul2(fld: Field, a: Mat2, b: Mat2) -> Mat2:
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    add, mul = fld.add_t, fld.mul_t
    r00, r01, r10, r11 = mul[a00], mul[a01], mul[a10], mul[a11]
    return ((add[r00[b00]][r01[b10]], add[r00[b01]][r01[b11]]),
            (add[r10[b00]][r11[b10]], add[r10[b01]][r11[b11]]))


def inv2(fld: Field, m: Mat2) -> Mat2:
    (a, b), (c, d) = m
    det = det2(fld, m)
    if not det:
        raise ZeroDivisionError("inverse of a singular matrix")
    s, neg = fld.mul_t[fld.inv_t[det]], fld.neg_t
    return ((s[d], s[neg[b]]), (s[neg[c]], s[a]))


class PairNormalForm(Keyed, namedtuple("PairNormalForm", "field tag params rep p_mat q_mat")):
    __slots__ = ()


def _eigen_split(fld: Field, m: Mat2):
    """(roots in F of X^2 - tr X + det, tr, det) for m's trace tr and determinant det."""
    mul = fld.mul_t
    tr = fld.add_t[m[0][0]][m[1][1]]
    det = det2(fld, m)
    plus_det, times_tr = fld.add_t[det], mul[tr]
    roots = [x for x, row in enumerate(mul) if plus_det[row[x]] == times_tr[x]]
    return roots, tr, det


def _eigenvector(fld: Field, m: Mat2, lam: int) -> tuple[int, int]:
    """A kernel vector of m - lam*I, leading coordinate normalized to 1."""
    (a, b), (c, d) = m
    sub, neg = fld.sub_t, fld.neg_t
    a = sub[a][lam]
    if a or b:
        v0, v1 = b, neg[a]
    else:
        v0, v1 = sub[d][lam], neg[c]
    s = fld.mul_t[fld.inv_t[v0 or v1]]
    return (s[v0], s[v1])


def _apply2(fld: Field, m: Mat2, v) -> tuple[int, int]:
    (a, b), (c, d) = m
    x, y = v
    add, mul = fld.add_t, fld.mul_t
    return (add[mul[a][x]][mul[b][y]], add[mul[c][x]][mul[d][y]])


def _similarity_to_normal(fld: Field, m: Mat2):
    """(tag, params, S) with S^{-1} m S the block of `template(fld, tag, params)`: tag
    I (diagonal), II (lower Jordan) or I* (companion)."""
    roots, tr, det = _eigen_split(fld, m)
    if len(roots) == 2:
        lam, mu_ = roots
        s1 = _eigenvector(fld, m, lam)
        s2 = _eigenvector(fld, m, mu_)
        return "I", (lam, mu_), ((s1[0], s2[0]), (s1[1], s2[1]))
    if len(roots) == 1:
        lam = roots[0]
        if m == ((lam, 0), (0, lam)):
            return "I", (lam, lam), ID2
        # lower Jordan block: columns s1 with (m - lam) s1 != 0, then s2 = (m - lam) s1
        sub = fld.sub_t
        shifted = ((sub[m[0][0]][lam], m[0][1]), (m[1][0], sub[m[1][1]][lam]))
        for cand in ((1, 0), (0, 1)):
            s2 = _apply2(fld, shifted, cand)
            if s2 != (0, 0):
                s1 = cand
                break
        return "II", (lam,), ((s1[0], s2[0]), (s1[1], s2[1]))
    # irreducible characteristic polynomial: companion form on the basis (w, m w)
    s2 = _apply2(fld, m, (1, 0))
    return "I*", (det, tr), ((1, s2[0]), (0, s2[1]))


def _reduce_rank1(fld: Field, a: Mat2) -> tuple[Mat2, Mat2]:
    """(P, Q) with P a Q = E11 for a nonzero singular matrix."""
    P, Q = ID2, ID2
    i, j = next((i, j) for i in range(2) for j in range(2) if a[i][j])
    if i == 1:
        P = ((0, 1), (1, 0))
    if j == 1:
        Q = ((0, 1), (1, 0))
    neg = fld.neg_t
    m = mul2(fld, mul2(fld, P, a), Q)
    P = mul2(fld, ((fld.inv_t[m[0][0]], 0), (0, 1)), P)
    m = mul2(fld, mul2(fld, P, a), Q)
    if m[1][0]:
        P = mul2(fld, ((1, 0), (neg[m[1][0]], 1)), P)
        m = mul2(fld, mul2(fld, P, a), Q)
    if m[0][1]:
        Q = mul2(fld, Q, ((1, neg[m[0][1]]), (0, 1)))
        m = mul2(fld, mul2(fld, P, a), Q)
    if m != E11:
        raise RuntimeError("rank-1 reduction failed")  # would mean rank 2 input
    return P, Q


def template(fld: Field, tag: str, params: tuple[int, ...]):
    """The representative pair of `tag` with `params`, or None for a tag not in the list.

    I, II and I* are (I, block) and III, IV are (block, I), the block diag(lam, mu),
    the lower Jordan block of lam or the companion of (det, tr); V is (E11, E22); VI is
    ((a0, a1), 0), ((b0, b1), 0) on the top rows and VII the same on the left columns.
    """
    if tag in ("I", "III"):
        lam, mu_ = params
        block = ((lam, 0), (0, mu_))
    elif tag in ("II", "IV"):
        (lam,) = params
        block = ((lam, 0), (1, lam))
    elif tag == "I*":
        det, tr = params
        block = ((0, fld.neg_t[det]), (1, tr))
    elif tag == "V":
        return E11, E22
    elif tag in ("VI", "VII"):
        a0, a1, b0, b1 = params
        if tag == "VI":
            return ((a0, a1), (0, 0)), ((b0, b1), (0, 0))
        return ((a0, 0), (a1, 0)), ((b0, 0), (b1, 0))
    else:
        return None
    return (block, ID2) if tag in ("III", "IV") else (ID2, block)


def pair_normal_form(fld: Field, g0: Mat2, g1: Mat2) -> PairNormalForm:
    g0 = tuple(map(tuple, g0))
    g1 = tuple(map(tuple, g1))
    det0 = det2(fld, g0)
    if det0 or det2(fld, g1):
        # III/IV are I/II of the exchanged pair (G1, G0)
        switched = not det0
        a, b = (g1, g0) if switched else (g0, g1)
        a_inv = inv2(fld, a)
        tag, params, Q = _similarity_to_normal(fld, mul2(fld, a_inv, b))
        if switched:
            if tag == "I*":
                raise RuntimeError("singular matrix with irreducible characteristic polynomial")
            tag = {"I": "III", "II": "IV"}[tag]
        P = mul2(fld, inv2(fld, Q), a_inv)
    elif g0 != ZERO:
        P, Q = _reduce_rank1(fld, g0)
        b = mul2(fld, mul2(fld, P, g1), Q)
        if b[1][1]:
            s = fld.inv_t[b[1][1]]
            by_s, neg = fld.mul_t[s], fld.neg_t
            if b[0][1]:
                # row0 -= (b01/b11) row1 keeps E11 (its second row is zero)
                P = mul2(fld, ((1, neg[by_s[b[0][1]]]), (0, 1)), P)
            if b[1][0]:
                Q = mul2(fld, Q, ((1, 0), (neg[by_s[b[1][0]]], 1)))
            P = mul2(fld, ((1, 0), (0, s)), P)
            if mul2(fld, mul2(fld, P, g1), Q) != E22:
                raise RuntimeError("V-normalization failed")
            tag, params = "V", ()
        elif b[1][0] == 0:
            tag, params = "VI", (1, 0, b[0][0], b[0][1])
        elif b[0][1] == 0:
            tag, params = "VII", (1, 0, b[0][0], b[1][0])
        else:
            raise RuntimeError("singular matrix with b12*b21 != 0")
    elif g1 != ZERO:
        P, Q = _reduce_rank1(fld, g1)
        tag, params = "VI", (0, 0, 1, 0)
    else:
        tag, params, P, Q = "VI", (0, 0, 0, 0), ID2, ID2

    form = PairNormalForm(fld, tag, params, template(fld, tag, params), P, Q)
    left0 = mul2(fld, mul2(fld, P, g0), Q)
    left1 = mul2(fld, mul2(fld, P, g1), Q)
    if (left0, left1) != form.rep:
        raise RuntimeError("normal form verification failed")
    if det2(fld, P) == 0 or det2(fld, Q) == 0:
        raise RuntimeError("singular change of basis")
    return form


def template_matches(fld: Field, form: PairNormalForm) -> bool:
    """Is the stored representative `template(fld, form.tag, form.params)`, with an
    I* block that has no root in F?  False for a tag not in the list."""
    return form.rep == template(fld, form.tag, form.params) and (
        form.tag != "I*" or not _eigen_split(fld, form.rep[1])[0])

"""The split Albert bilinear map phi_{d0,d1,d2}: U x V -> W and its machinery.

Basis products, indices mod 3 throughout:

    phi(alpha_i, beta_i)     = 0
    phi(alpha_i, beta_{i+1}) = gamma_{i+2}
    phi(alpha_i, beta_{i+2}) = d_{i+1} * gamma_{i+1}

with d_i nonzero and d = d0*d1*d2 != -1.  `SplitAlbertSpec.tensor` is written
from these three rules, and phi, L_x and R_y are the `algebra3` contraction of
it.  U, V, W stay distinct spaces; a coordinate vector carries its space tag
and mixing tags is a usage error.

A twisted field (K, mu) lands here after scalar extension: on K^3 the product
is nu(xi, eta)_i = xi_i*eta_{i+1} - c_i*xi_{i+1}*eta_i with c_i = c^(sigma^i),
and nu is phi over K under alpha_i = e_i, beta_i = e_i, gamma_i = e_{i+1},
d_i = -c^(sigma^{i+1}).  That relabeling is the one convention in this module
fixed purely by the 9-basis-product test (test_nu_matches_phi_on_basis); note
d = -N(c) and the d_i are the Galois conjugates of -c either way.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .algebra3 import (TwistedFieldSpec, autotopism_counterexample, left_mul_matrix, mulvec,
                       right_mul_matrix, mu as twisted_mu)
from .gf import Field
from .linalg import Keyed, Row, image_table

Vec3 = tuple[int, int, int]


def m3(i: int) -> int:
    """All basis-index arithmetic goes through here."""
    return i % 3


class SplitAlbertSpec(Keyed, namedtuple("SplitAlbertSpec", "field d tensor")):
    """phi_{d0,d1,d2}; `tensor[i][j]` holds the W-coordinates of phi(alpha_i, beta_j).

    `tensor` is built from `d`, so only `d` is compared and pickled."""

    __slots__ = ()
    _key = itemgetter(slice(1, 2))

    def __new__(cls, field: Field, d: tuple[int, int, int] = (1, 1, 1)) -> "SplitAlbertSpec":
        for di in d:
            field.check(di)
            if di == 0:
                raise ValueError("split Albert constants must be nonzero")
        tensor = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
        for i in range(3):  # the basis rules of the module docstring
            tensor[i][m3(i + 1)][m3(i + 2)] = 1
            tensor[i][m3(i + 2)][m3(i + 1)] = d[m3(i + 1)]
        self = super().__new__(cls, field, d, tuple(tuple(map(tuple, p)) for p in tensor))
        if self.d_product == field.neg(1):
            raise ValueError("d0*d1*d2 = -1 is excluded")
        return self

    def __getnewargs__(self) -> tuple:
        return self.field, self.d

    def __repr__(self) -> str:
        return f"SplitAlbertSpec(field={self.field!r}, d={self.d!r})"

    @property
    def d_product(self) -> int:
        fld = self.field
        return fld.mul(self.d[0], fld.mul(self.d[1], self.d[2]))


class TriVector(namedtuple("TriVector", "space coords")):
    __slots__ = ()

    def __new__(cls, space: str, coords: Vec3) -> "TriVector":
        if space not in ("U", "V", "W"):
            raise ValueError(f"unknown space tag {space!r}")
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("three coordinates required")
        return super().__new__(cls, space, coords)

    @property
    def regular(self) -> bool:
        return all(c != 0 for c in self.coords)


def _want(vec: TriVector, space: str) -> Vec3:
    if vec.space != space:
        raise ValueError(f"expected a {space}-vector, got {vec.space}")
    return vec.coords


def phi(spec: SplitAlbertSpec, u: TriVector, v: TriVector) -> TriVector:
    """Bilinear extension of the basis table."""
    return TriVector("W", mulvec(spec, _want(u, "U"), _want(v, "V")))


def lmat(spec: SplitAlbertSpec, x_vec: TriVector) -> tuple[Row, ...]:
    """Matrix of L_x: V -> W; det = (1+d) x0 x1 x2."""
    return left_mul_matrix(spec, _want(x_vec, "U"))


def rmat(spec: SplitAlbertSpec, y_vec: TriVector) -> tuple[Row, ...]:
    """Matrix of R_y: U -> W; det = (1+d) y0 y1 y2."""
    return right_mul_matrix(spec, _want(y_vec, "V"))


def rmat_inv(spec: SplitAlbertSpec, y_vec: TriVector) -> tuple[Row, ...]:
    """Closed-form inverse of rmat; requires y regular."""
    y = _want(y_vec, "V")
    if not y_vec.regular:
        raise ValueError("R_y is invertible only for regular y")
    fld = spec.field
    d0, d1, d2 = spec.d
    s = fld.inv(fld.add(1, spec.d_product))
    i0, i1, i2 = fld.inv(y[0]), fld.inv(y[1]), fld.inv(y[2])

    def cell(v: int) -> int:
        return fld.mul(s, v)

    return (
        (cell(fld.neg(fld.mul(d2, fld.mul(y[0], fld.mul(i1, i2))))),
         cell(fld.mul(fld.mul(d0, d2), i2)),
         cell(i1)),
        (cell(i2),
         cell(fld.neg(fld.mul(d0, fld.mul(y[1], fld.mul(i0, i2))))),
         cell(fld.mul(fld.mul(d0, d1), i0))),
        (cell(fld.mul(fld.mul(d1, d2), i1)),
         cell(i0),
         cell(fld.neg(fld.mul(d1, fld.mul(y[2], fld.mul(i0, i1)))))),
    )


def char_poly_ratio(spec: SplitAlbertSpec, y_vec: TriVector, yp_vec: TriVector) -> tuple[int, int, int]:
    """Eigenroot multiset {y_i / y'_i} of R_{y'}^{-1} R_y, sorted by index."""
    y = _want(y_vec, "V")
    yp = _want(yp_vec, "V")
    if not (y_vec.regular and yp_vec.regular):
        raise ValueError("characteristic roots need regular y and y'")
    fld = spec.field
    roots = sorted(fld.mul(a, fld.inv(b)) for a, b in zip(y, yp))
    return tuple(roots)


# ---------------------------------------------------------------------------
# isomorphism families
# ---------------------------------------------------------------------------


class BilinearIso(namedtuple("BilinearIso", "src dst f g h")):
    """Maps (f, g, h) with h(phi(u, v)) = phi'(f u, g v), as 3x3 matrices."""

    __slots__ = ()

    def check_on_basis(self) -> None:
        bad = autotopism_counterexample(self.src, self.dst, self.f, self.g, self.h)
        if bad is not None:
            raise RuntimeError(f"isomorphism fails on basis pair ({bad[0]},{bad[1]})")


def _diag(entries: Vec3) -> tuple:
    return tuple(tuple(entries[i] if i == j else 0 for j in range(3)) for i in range(3))


def _basis_map(fld: Field, image_index, image_scale=None) -> tuple:
    """Matrix sending basis vector i to scale(i) * basis vector image_index(i)."""
    rows = [[0, 0, 0] for _ in range(3)]
    for i in range(3):
        k = m3(image_index(i))
        rows[k][i] = 1 if image_scale is None else image_scale(i)
    return tuple(tuple(r) for r in rows)


def scale_isomorphism(spec: SplitAlbertSpec, r: Vec3, s: Vec3) -> tuple[SplitAlbertSpec, BilinearIso]:
    """Diagonal rescaling; d'_i = (r_{i+1}/r_{i-1}) (s_{i-1}/s_{i+1}) d_i, product preserved."""
    fld = spec.field
    for t in (*r, *s):
        if fld.check(t) == 0:
            raise ValueError("scale factors must be nonzero")
    d2 = tuple(
        fld.mul(
            fld.mul(fld.mul(r[m3(i + 1)], fld.inv(r[m3(i - 1)])),
                    fld.mul(s[m3(i - 1)], fld.inv(s[m3(i + 1)]))),
            spec.d[i],
        )
        for i in range(3)
    )
    dst = SplitAlbertSpec(fld, d2)
    iso = BilinearIso(
        spec, dst,
        f=_diag(r),
        g=_diag(s),
        h=_diag(tuple(fld.mul(r[m3(i + 1)], s[m3(i + 2)]) for i in range(3))),
    )
    iso.check_on_basis()
    return dst, iso


def cyclic_isomorphism(spec: SplitAlbertSpec) -> tuple[SplitAlbertSpec, BilinearIso]:
    """alpha_i, beta_i, gamma_i all advance one step; d cycles to (d2, d0, d1)."""
    fld = spec.field
    dst = SplitAlbertSpec(fld, (spec.d[2], spec.d[0], spec.d[1]))
    shift = _basis_map(fld, lambda i: i + 1)
    iso = BilinearIso(spec, dst, f=shift, g=shift, h=shift)
    iso.check_on_basis()
    return dst, iso


def reversal_isomorphism(spec: SplitAlbertSpec) -> tuple[SplitAlbertSpec, BilinearIso]:
    """alpha_i -> alpha_{1-i}, beta_i -> beta_{1-i}, gamma_i -> d_i^{-1} gamma_{1-i}."""
    fld = spec.field
    dst = SplitAlbertSpec(fld, (fld.inv(spec.d[1]), fld.inv(spec.d[0]), fld.inv(spec.d[2])))
    flip = _basis_map(fld, lambda i: 1 - i)
    h = _basis_map(fld, lambda i: 1 - i, image_scale=lambda i: fld.inv(spec.d[i]))
    iso = BilinearIso(spec, dst, f=flip, g=flip, h=h)
    iso.check_on_basis()
    return dst, iso


# ---------------------------------------------------------------------------
# splitting a twisted field
# ---------------------------------------------------------------------------


class SplitTwistedField(Keyed, namedtuple("SplitTwistedField", "tower c c_conj spec",
                                           defaults=(0, (0, 0, 0), None))):
    """The K-algebra (K^3, nu) a twisted field becomes after scalar extension.

    nu(xi, eta)_i = xi_i eta_{i+1} - c_i xi_{i+1} eta_i, with c_i = c^(sigma^i).
    Viewed as a split Albert spec via alpha_i = beta_i = e_i, gamma_i = e_{i+1},
    hence d_i = -c_{i+1}.
    """

    __slots__ = ()

    def embed(self, a: int) -> Vec3:
        """E: a -> (a, a^sigma, a^sigma^2); intertwines mu with nu."""
        frob = self.tower.frob_t
        return (a, frob[a], frob[frob[a]])


def split_twisted_field(tf: TwistedFieldSpec) -> SplitTwistedField:
    """The split form of `tf`, after checking that `frob_t` is F-linear.

    Then E is F-linear, so nu(E x, E y) and E(mu(x, y)) are both F-bilinear,
    and the splitting identity holds on all of K x K once it holds on the 9
    pairs of the basis (1, t, t^2).  A Frobenius table that is not F-linear
    raises RuntimeError.
    """
    tower = tf.tower
    K = tower.ext
    frob = tower.frob_t
    q = tower.q
    # the F-linear map with the columns of frob at 1, t, t^2, tabulated on indices
    linear = image_table(tower.base, [K.coeffs(frob[q**i]) for i in range(3)])
    for x in K.elements():
        if frob[x] != linear[x]:
            raise RuntimeError(f"Frobenius is not F-linear at {x}")
    c_conj = (tf.c, frob[tf.c], frob[frob[tf.c]])
    d = tuple(K.neg(c_conj[m3(i + 1)]) for i in range(3))
    spec = SplitAlbertSpec(K, d)
    return SplitTwistedField(tower, tf.c, c_conj, spec)


def nu_product(stf: SplitTwistedField, xi: Vec3, eta: Vec3) -> Vec3:
    K = stf.tower.ext
    c = stf.c_conj
    out = []
    for i in range(3):
        t1 = K.mul(xi[i], eta[m3(i + 1)])
        t2 = K.mul(c[i], K.mul(xi[m3(i + 1)], eta[i]))
        out.append(K.sub(t1, t2))
    return (out[0], out[1], out[2])


def nu_via_phi(stf: SplitTwistedField, xi: Vec3, eta: Vec3) -> Vec3:
    """nu computed through phi and the W-basis relabeling gamma_k = e_{k+1}."""
    w = phi(stf.spec, TriVector("U", xi), TriVector("V", eta)).coords
    return tuple(w[m3(j - 1)] for j in range(3))


def rho_map(xi: Vec3) -> Vec3:
    """The K-algebra automorphism (x_i) -> (x_{i+1}); image of 1 (x) sigma."""
    return (xi[1], xi[2], xi[0])


def lambda_map(stf: SplitTwistedField, xi: Vec3) -> Vec3:
    """The sigma-semilinear map (x_i) -> (x_{i-1}^sigma); image of sigma (x) 1.

    Permutes the standard basis e_i -> e_{i+1} and fixes exactly the embedded
    copy of K.
    """
    frob = stf.tower.frob_t
    return (frob[xi[2]], frob[xi[0]], frob[xi[1]])


def splitting_counterexample(stf: SplitTwistedField, pairs) -> tuple[int, int] | None:
    """The first pair (x, y) of K elements with nu(E x, E y) != E(mu(x, y)), or None."""
    tf = TwistedFieldSpec(stf.tower, stf.c)
    for x, y in pairs:
        if nu_product(stf, stf.embed(x), stf.embed(y)) != stf.embed(twisted_mu(tf, x, y)):
            return x, y
    return None


def check_splitting_identity(stf: SplitTwistedField, pairs) -> None:
    """nu(E x, E y) = E(mu(x, y)) on the given pairs of K elements."""
    bad = splitting_counterexample(stf, pairs)
    if bad is not None:
        raise RuntimeError(f"splitting identity fails at {bad}")

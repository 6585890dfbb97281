"""Twisted fields (K, mu) and generic 3-dimensional F-algebras by structure constants.

The twisted product is mu(x, y) = x*y^sigma - c*x^sigma*y on the cubic
extension K of F, with sigma the Frobenius x -> x^q and c a nonzero element of
norm != 1.  Coordinatized over the power basis (1, t, t^2) of K it becomes an
:class:`Algebra3`, a raw structure tensor with no identity element normalized.
"""

from __future__ import annotations

import enum
from array import array
from collections import namedtuple
from operator import add

from .gf import Field, FieldTower
from .linalg import (Keyed, Row, det3, f3_vectors, identity_rows, image_table, inverse_columns,
                     kernel_rows, mat_vec, points, scalar_multiples, vec_index)

Vec3 = tuple[int, int, int]
Tensor = tuple[tuple[tuple[int, int, int], ...], ...]


class IsotopyClass(enum.Enum):
    COMMUTATIVE_ISOTOPIC = "commutative-isotopic"
    NON_COMMUTATIVE = "non-commutative"


def twisted_product(tower: FieldTower, c: int, x: int, y: int) -> int:
    """x*y^sigma - c*x^sigma*y with no validity checks on c."""
    K = tower.ext
    frob = tower.frob_t
    return K.sub(K.mul(x, frob[y]), K.mul(c, K.mul(frob[x], y)))


class TwistedFieldSpec(Keyed, namedtuple("TwistedFieldSpec", "tower c", defaults=(0,))):
    """A cubic tower plus a twisting element c in K^x with N(c) != 1."""

    __slots__ = ()

    def __new__(cls, tower: FieldTower, c: int = 0) -> "TwistedFieldSpec":
        self = super().__new__(cls, tower, c)
        q = self.tower.q
        if q == 2:
            raise ValueError(
                "q=2 admits no twisted field: the norm maps GF(8)^x onto "
                "GF(2)^x = {1}, so N(c) != 1 is unsatisfiable"
            )
        self.tower.ext.check(self.c)
        if self.c == 0:
            raise ValueError("twisting element must be nonzero")
        if self.tower.norm(self.c) == 1:
            raise ValueError(f"twisting element has norm 1: c={self.c}")
        return self

    @property
    def q(self) -> int:
        return self.tower.q

    def norm_c(self) -> int:
        return self.tower.norm(self.c)


def mu(spec: TwistedFieldSpec, x: int, y: int) -> int:
    """The twisted multiplication of the spec, on K element indices."""
    return twisted_product(spec.tower, spec.c, x, y)


def pick_c_by_norm(tower: FieldTower, target: int) -> int:
    """Lex-least c in K^x with N(c) = target; deterministic."""
    tower.base.check(target)
    for c in tower.ext.elements():
        if c != 0 and tower.norm_t[c] == target:
            return c
    raise ValueError(f"no element of norm {target}")  # norm is onto F^x, so target was 0


def valid_c_values(tower: FieldTower):
    """All c in K^x with N(c) != 1, ascending."""
    return [c for c in tower.ext.elements() if c != 0 and tower.norm_t[c] != 1]


# ---------------------------------------------------------------------------
# structure-constant algebras
# ---------------------------------------------------------------------------


class Algebra3(Keyed, namedtuple("Algebra3", "field tensor", defaults=((),))):
    """A 3-dimensional F-algebra: e_i * e_j = sum_k s[i][j][k] e_k."""

    __slots__ = ()

    def __new__(cls, field: Field, tensor: Tensor = ()) -> "Algebra3":
        t = tuple(tuple(tuple(field.check(c) for c in row) for row in plane) for plane in tensor)
        if len(t) != 3 or any(len(p) != 3 or any(len(r) != 3 for r in p) for p in t):
            raise ValueError("structure tensor must be 3x3x3")
        return super().__new__(cls, field, t)

    def is_commutative(self) -> bool:
        s = self.tensor
        return all(s[i][j] == s[j][i] for i in range(3) for j in range(3))

    def to_json(self) -> dict:
        from .gf import format_elem

        flat = [format_elem(self.field, self.tensor[i][j][k])
                for i in range(3) for j in range(3) for k in range(3)]
        return {"q": self.field.order, "tensor": flat}


def to_structure_constants(spec: TwistedFieldSpec) -> Algebra3:
    """Coordinates of mu over the power basis (1, t, t^2) of K."""
    K = spec.tower.ext
    q = spec.q
    basis = [1, q, q * q]
    tensor = []
    for i in range(3):
        plane = []
        for j in range(3):
            prod = mu(spec, basis[i], basis[j])
            plane.append(tuple(K.coeffs(prod)))
        tensor.append(tuple(plane))
    return Algebra3(spec.tower.base, tuple(tensor))


def basis_products(alg, b: Vec3) -> list[Vec3]:
    """The rows e_i * b, i = 0, 1, 2: the one contraction of a structure tensor.

    `alg` is anything with a tabulated `field` and a 3x3x3 `tensor` (an
    :class:`Algebra3`, or a split Albert spec, where row i is phi(alpha_i, b)).
    Every product of coordinate vectors derives from it: `mulvec`, both
    multiplication matrices, the division tables, the autotopism check, phi,
    L_x and R_y, and the generators of Av and U(x, y).  Only the K-level
    definitions mu and nu multiply in K directly.
    """
    fld = alg.field
    add_t, mul_t = fld.add_t, fld.mul_t
    if mul_t is None:
        raise ValueError(f"structure-tensor products need a tabulated field, not {fld!r}")
    rows = []
    for si in alg.tensor:
        r0 = r1 = r2 = 0
        for bj, (s0, s1, s2) in zip(b, si):
            if bj:
                m = mul_t[bj]
                if s0:
                    r0 = add_t[r0][m[s0]]
                if s1:
                    r1 = add_t[r1][m[s1]]
                if s2:
                    r2 = add_t[r2][m[s2]]
        rows.append((r0, r1, r2))
    return rows


def mulvec(alg, a: Vec3, b: Vec3) -> Vec3:
    """a*b = sum_i a_i (e_i * b), for any `alg` that `basis_products` takes."""
    fld = alg.field
    out = [0, 0, 0]
    for ai, row in zip(a, basis_products(alg, b)):
        if ai:
            for k in range(3):
                out[k] = fld.add(out[k], fld.mul(ai, row[k]))
    return (out[0], out[1], out[2])


def left_mul_matrix(alg, a: Vec3) -> tuple[Row, ...]:
    """Matrix of x -> a*x in the standard basis; its columns are a*e_j."""
    return tuple(zip(*(mulvec(alg, a, e) for e in identity_rows(3))))


def right_mul_matrix(alg, b: Vec3) -> tuple[Row, ...]:
    """Matrix of x -> x*b in the standard basis; its columns are e_i*b."""
    return tuple(zip(*basis_products(alg, b)))


def autotopism_counterexample(src, dst, f, g, h) -> tuple[int, int] | None:
    """The first basis pair (i, j), in row-major order, with h(e_i e_j) != (f e_i)(g e_j), or None.

    e_i e_j is taken in `src` and (f e_i)(g e_j) in `dst`, both over one field;
    f, g and h are 3x3 matrices given as rows.  All three maps are linear, so
    None means h(a b) = (f a)(g b) for every a and b.
    """
    fld = src.field
    unit = identity_rows(3)
    f_cols, g_cols = tuple(zip(*f)), tuple(zip(*g))
    for i in range(3):
        for j in range(3):
            if mat_vec(fld, h, mulvec(src, unit[i], unit[j])) != mulvec(dst, f_cols[i], g_cols[j]):
                return i, j
    return None


def is_division(alg: Algebra3) -> bool:
    """det(L_a) != 0 for every nonzero a, checked at the q^2+q+1 points of P^2(F).

    det(L_{ka}) = k^3 det(L_a), so the points decide every nonzero a.  Then
    a*x = 0 forces a = 0 or x = 0, so every R_x with x != 0 is injective too
    (finite dimension), and det(R_x) != 0 needs no second check.
    """
    fld = alg.field
    vecs = f3_vectors(fld.order)
    return all(det3(fld, left_mul_matrix(alg, vecs[a])) for a in points(fld.order))


def transposed(alg) -> Algebra3:
    """The algebra with s'[i][j][k] = s[k][j][i], whose R'_x is the transpose of R_x."""
    s = alg.tensor
    return Algebra3(alg.field, tuple(tuple(tuple(s[k][j][i] for k in range(3)) for j in range(3))
                                     for i in range(3)))


def point_tables(alg) -> dict[int, array]:
    """The F^3 index table of L_b (`linalg.image_table`) at each point b of P^2(F)."""
    fld = alg.field
    vecs = f3_vectors(fld.order)
    return {b: array("H", image_table(fld, zip(*left_mul_matrix(alg, vecs[b]))))
            for b in points(fld.order)}


def graph_keys(alg, xs, tables):
    """Per x of `xs`, an array of the keys of R_y R_x^-1 (`linalg` module docstring) over
    the y that `tables` lists, tables[b] holding the F^3 index of b y at each point b.
    R_y R_x^-1 e_j = a_j y for a_j = R_x^-1 e_j = k b, b a point, so k_j is k times an
    entry of tables[b].  RuntimeError naming x when R_x is singular."""
    fld = alg.field
    q = fld.order
    n = q**3
    scale = scalar_multiples(fld)  # scale[k * n + w]: the index of k w
    # packed[j][k][w]: n^j times the index of k w
    packed = [[array("q", map(m.__mul__, scale[k * n:(k + 1) * n])) for k in range(q)]
              for m in (1, n, n * n)]
    for x in xs:
        cols = inverse_columns(fld, right_mul_matrix(alg, x))
        if cols is None:
            raise RuntimeError(f"R_x is singular at x = {x}")
        parts = []
        for j, a_j in enumerate(cols):
            k = next(c for c in reversed(a_j) if c)
            b = scale[fld.inv_t[k] * n + vec_index(q, a_j)]
            parts.append(map(packed[j][k].__getitem__, tables[b]))
        yield array("q", map(add, map(add, parts[0], parts[1]), parts[2]))


# ---------------------------------------------------------------------------
# isotopy
# ---------------------------------------------------------------------------


def isotopy_witness(tower: FieldTower, c: int, c2: int) -> int:
    """The least a in K^x with c2/c = a^sigma * a^{-1}, by exhaustive scan; then
    a*mu_{c2}(x, y) = mu_c(a x, y), which is checked on the 9 basis pairs.

    Solvable precisely when N(c) = N(c2); distinct norms raise, matching the
    Hilbert-90 obstruction.
    """
    K = tower.ext
    for x in (c, c2):
        K.check(x)
        if x == 0 or tower.norm_t[x] == 1:
            raise ValueError("isotopy witnesses are defined for nonzero c of norm != 1")
    if tower.norm_t[c] != tower.norm_t[c2]:
        raise ValueError(
            f"no witness: N(c) = {tower.norm_t[c]} differs from N(c') = {tower.norm_t[c2]}"
        )
    ratio = K.mul(c2, K.inv(c))
    a = next((a for a in range(1, K.order) if K.mul(tower.frob_t[a], K.inv(a)) == ratio), None)
    if a is None:
        raise RuntimeError("norms agree but no witness found; broken tower")
    basis = (1, tower.q, tower.q**2)
    if any(K.mul(a, twisted_product(tower, c2, x, y)) != twisted_product(tower, c, K.mul(a, x), y)
           for x in basis for y in basis):
        raise RuntimeError("isotopy witness fails the defining identity")
    return a


def isotopy_class(spec: TwistedFieldSpec) -> IsotopyClass:
    """Commutative-isotopic exactly when N(c) = -1 in F."""
    minus_one = spec.tower.base.neg(1)
    if spec.norm_c() == minus_one:
        return IsotopyClass.COMMUTATIVE_ISOTOPIC
    return IsotopyClass.NON_COMMUTATIVE


def commutative_isotope(alg: Algebra3) -> Algebra3 | None:
    """The commutative algebra x o y = (T x) * y, or None when no such T exists.

    T is found as the kernel of the linear conditions (T e_i) e_j = (T e_j) e_i.
    Over a twisted field that kernel is one line F*T exactly for the
    commutative-isotopic class (T is multiplication in K by 1/a, with a the
    isotopy witness from c = -1; for c = -1, T is the identity) and zero
    otherwise.  Since T is invertible, (A, o) has the same spaces Av as A.
    """
    fld = alg.field
    unit = identity_rows(3)
    prods = [basis_products(alg, e) for e in unit]  # prods[j][m] = e_m * e_j
    eqs = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for k in range(3):
            row = [0] * 9  # unknown T[m][i], the e_m-coordinate of T e_i, sits at 3m + i
            for m in range(3):
                row[3 * m + i] = prods[j][m][k]
                row[3 * m + j] = fld.neg(prods[i][m][k])
            eqs.append(row)
    kernel = kernel_rows(fld, eqs, 9)
    if len(kernel) != 1:
        return None
    t = kernel[0]
    images = [(t[i], t[3 + i], t[6 + i]) for i in range(3)]  # T e_i
    iso = Algebra3(fld, tuple(tuple(mulvec(alg, ti, e) for e in unit) for ti in images))
    if not iso.is_commutative():
        raise RuntimeError("commutative isotope is not commutative")
    return iso

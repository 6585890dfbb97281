"""Twisted fields (K, mu) and generic 3-dimensional F-algebras by structure constants.

The twisted product is mu(x, y) = x*y^sigma - c*x^sigma*y on the cubic
extension K of F, with sigma the Frobenius x -> x^q and c a nonzero element of
norm != 1.  Coordinatized over the power basis (1, t, t^2) of K it becomes an
:class:`Algebra3`, a raw structure tensor with no identity element normalized.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field as dc_field

from .gf import Field, FieldTower
from .linalg import Row, f3_vectors, identity_rows, image_table, kernel_rows, mat_vec

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


@dataclass(frozen=True)
class TwistedFieldSpec:
    """A cubic tower plus a twisting element c in K^x with N(c) != 1."""

    tower: FieldTower = dc_field(compare=False)
    c: int = 0

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Algebra3:
    """A 3-dimensional F-algebra: e_i * e_j = sum_k s[i][j][k] e_k."""

    field: Field = dc_field(compare=False)
    tensor: Tensor = ()

    def __post_init__(self) -> None:
        t = tuple(tuple(tuple(self.field.check(c) for c in row) for row in plane)
                  for plane in self.tensor)
        if len(t) != 3 or any(len(p) != 3 or any(len(r) != 3 for r in p) for p in t):
            raise ValueError("structure tensor must be 3x3x3")
        object.__setattr__(self, "tensor", t)

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


def left_division_tables(alg: Algebra3) -> tuple[array, array]:
    """Left multiplication and left division on F^3 indices (`linalg` module docstring).

    With n = q^3, mul[a*n + x] is the index of a*x; for a != 0, ldiv[a*n + b]
    is the x with a*x = b (row 0 is zeros).
    Raises RuntimeError unless every row a != 0 of mul is a permutation: that
    is the division certificate, since a*x = 0 then forces a = 0 or x = 0.
    """
    fld = alg.field
    n = fld.order**3
    vecs = f3_vectors(fld.order)
    mul = array("H", bytes(2 * n * n))
    for x in range(n):
        # a*x = a0 (e_0 x) + a1 (e_1 x) + a2 (e_2 x), for a in index order
        mul[x::n] = array("H", image_table(fld, basis_products(alg, vecs[x])))
    ldiv = array("H", bytes(2 * n))
    for a in range(1, n):
        row = mul[a * n:(a + 1) * n]
        if len(set(row)) != n:
            raise RuntimeError(f"left multiplication by {vecs[a]} is not injective: "
                               "not a division algebra")
        ldiv += array("H", sorted(range(n), key=row.__getitem__))  # the inverse permutation
    return mul, ldiv


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


def det3(fld: Field, rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    t1 = fld.mul(a, fld.sub(fld.mul(e, i), fld.mul(f, h)))
    t2 = fld.mul(b, fld.sub(fld.mul(d, i), fld.mul(f, g)))
    t3 = fld.mul(c, fld.sub(fld.mul(d, h), fld.mul(e, g)))
    return fld.add(fld.sub(t1, t2), t3)


def is_division(alg: Algebra3) -> bool:
    """det(L_a) != 0 and det(R_a) != 0 for every nonzero a, exhaustively."""
    fld = alg.field
    for a in f3_vectors(fld.order)[1:]:
        if det3(fld, left_mul_matrix(alg, a)) == 0:
            return False
        if det3(fld, right_mul_matrix(alg, a)) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# isotopy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotopyWitness:
    """a in K^x with c'/c = a^sigma / a, so a*mu'(x,y) = mu(a x, y)."""

    tower: FieldTower = dc_field(compare=False)
    c: int = 0
    c2: int = 0
    a: int = 0


def isotopy_witness(tower: FieldTower, c: int, c2: int) -> IsotopyWitness:
    """Exhaustive scan for a with c2/c = a^sigma * a^{-1}.

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
    for a in range(1, K.order):
        if K.mul(tower.frob_t[a], K.inv(a)) == ratio:
            witness = IsotopyWitness(tower, c, c2, a)
            _check_witness(witness)
            return witness
    raise RuntimeError("norms agree but no witness found; broken tower")


def _check_witness(w: IsotopyWitness) -> None:
    # a*mu'(x,y) = mu(a x, y) on all 9 basis pairs
    K = w.tower.ext
    q = w.tower.q
    basis = [1, q, q * q]
    for x in basis:
        for y in basis:
            lhs = K.mul(w.a, twisted_product(w.tower, w.c2, x, y))
            rhs = twisted_product(w.tower, w.c, K.mul(w.a, x), y)
            if lhs != rhs:
                raise RuntimeError("isotopy witness fails the defining identity")


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

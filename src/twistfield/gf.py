"""Arithmetic in small finite fields GF(p^m) and cubic tower extensions GF(q^3)/GF(q).

Elements of a field of order n are plain integers 0..n-1.  The base-p digits of
the integer, little-endian, are the coefficients of the element in the power
basis of the modulus root.  A tower extension K = F[t]/(f) uses base-q digits
instead, each digit being an F-element index, so a K element is the triple
(a0, a1, a2) with index a0 + a1*q + a2*q^2.  Both are the index codec of
`linalg` (`vec_index`, `decode_vector`), so an element's index is the vector
index of its coefficients.  Iteration order everywhere is ascending index
order, starting at 0.

All arithmetic is schoolbook polynomial arithmetic modulo the defining
polynomial.  A base field GF(q), built by `Field.of_order` from its
`default_field_spec`, memoizes its arithmetic into full tables, which the
census and verifier kernels read; the cubic extension K = GF(q^3), built by
`FieldTower.build` through `Field.extension`, computes each operation on
demand.  Frobenius x -> x^q is F-linear, so the tower tabulates it from
t^q and t^2q alone, not from a power of each element.  No discrete-log
shortcuts.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator

from .linalg import decode_vector, f3_vectors, image_table, points, vec_index

SUPPORTED_Q = (3, 4, 5, 7, 8, 9)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with q = p^m, p prime; raises for non prime powers."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, m
        p += 1
    return q, 1


# ---------------------------------------------------------------------------
# polynomial helpers over an abstract coefficient field
# ---------------------------------------------------------------------------


def _poly_eval(fld: "Field", coeffs: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = fld.add(fld.mul(acc, x), c)
    return acc


def _poly_mul_mod(fld: "Field", a: list[int], b: list[int], modulus: tuple[int, ...]) -> list[int]:
    """Schoolbook product of two coefficient vectors, reduced mod a monic modulus.

    `fld` is tabulated: every coefficient field is a GF(q) built by `Field.of_order`.
    """
    add, sub, mul = fld.add_t, fld.sub_t, fld.mul_t
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        by_ai = mul[ai]
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = add[prod[i + j]][by_ai[bj]]
    # reduce: t^deg = -(modulus[0] + ... + modulus[deg-1] t^{deg-1})
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        by_c = mul[c]
        for j in range(deg):
            prod[k - deg + j] = sub[prod[k - deg + j]][by_c[modulus[j]]]
    return prod[:deg]


# ---------------------------------------------------------------------------
# field descriptor
# ---------------------------------------------------------------------------


class FieldSpec(namedtuple("FieldSpec", "p m modulus")):
    """Descriptor of GF(p^m) as F_p[t]/(modulus), serializable and hashable.

    `modulus` is little-endian over GF(p) with length m+1 and leading
    coefficient 1.  Every supported base field has m <= 3, where a polynomial
    is irreducible iff it has no root, so that is the check; m > 3 is refused.
    """

    __slots__ = ()

    def __new__(cls, p: int, m: int, modulus: tuple[int, ...]) -> "FieldSpec":
        self = super().__new__(cls, p, m, modulus)
        try:
            prime = factor_prime_power(self.p)[1] == 1
        except ValueError:  # p < 2, or not a prime power
            prime = False
        if not prime:
            raise ValueError(f"characteristic must be prime, got {self.p}")
        if self.m < 1:
            raise ValueError(f"degree must be >= 1, got {self.m}")
        if len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if 2 <= self.m <= 3:
            prime = Field.of_order(self.p)
            for a in prime.elements():
                if _poly_eval(prime, self.modulus, a) == 0:
                    raise ValueError(f"modulus has root {a} in GF({self.p})")
        elif self.m > 3:
            raise ValueError("degrees above 3 are out of scope")
        return self

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus_coeffs": list(self.modulus)}


def default_field_spec(q: int) -> FieldSpec:
    """The deterministic presentation of GF(q): the `rootless_monic` of degree m over GF(p).

    The first hit for GF(4) is u^2+u+1, for GF(8) is u^3+u+1 and for GF(9) is
    u^2+1.
    """
    p, m = factor_prime_power(q)
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    # FieldSpec raises for m > 3, where no root is not enough for irreducibility
    return FieldSpec(p, m, rootless_monic(Field.of_order(p), m))


# ---------------------------------------------------------------------------
# runtime field
# ---------------------------------------------------------------------------


class Field:
    """GF(p^m) with integer-indexed elements: one digit field.

    An element is `width` digits base `digit_base` over `subfield` (the
    prime field is width 1, base p, over no subfield) and `prime_width`
    digits base p over the prime field.  `of_order` builds GF(q) from its
    spec, tabulated; `extension` builds K = GF(q^3) over it, untabulated
    (`add_t`, `sub_t`, `mul_t` and `inv_t` are None).  A field is tabulated
    exactly when `of_order` built it, that is, when it has a spec.
    """

    def __init__(self, subfield: "Field | None", modulus: tuple[int, ...],
                 spec: FieldSpec | None = None):
        self.subfield = subfield
        self.modulus = modulus
        self.spec = spec
        self.var = "t" if spec is None else "u"
        self.p = spec.p if subfield is None else subfield.p
        self.digit_base = self.p if subfield is None else subfield.order
        self.width = len(modulus) - 1
        self.prime_width = self.width * (1 if subfield is None else subfield.prime_width)
        self.order = self.digit_base**self.width
        self._build_tables()

    # -- construction -------------------------------------------------------

    @staticmethod
    def of_order(q: int) -> "Field":
        spec = default_field_spec(q)
        return Field(Field.of_order(spec.p) if spec.m > 1 else None, spec.modulus, spec)

    def extension(self, modulus: tuple[int, ...]) -> "Field":
        """Extension of this field by a monic polynomial given as element indices."""
        if modulus[-1] != 1:
            raise ValueError("extension modulus must be monic")
        deg = len(modulus) - 1
        if deg <= 3 and not all(_poly_eval(self, modulus, a) for a in self.elements()):
            raise ValueError("extension modulus has a root in the base field")
        return Field(self, modulus)

    # -- tables -------------------------------------------------------------

    def _slow_mul(self, a: int, b: int) -> int:
        if self.subfield is None:
            return a * b % self.p
        q, w = self.digit_base, self.width
        prod = _poly_mul_mod(self.subfield, decode_vector(q, a, w), decode_vector(q, b, w),
                             self.modulus)
        return vec_index(q, prod)

    def _slow_add(self, a: int, b: int) -> int:
        if self.subfield is None:
            return (a + b) % self.p
        q, w = self.digit_base, self.width
        return vec_index(q, [self.subfield.add(x, y)
                             for x, y in zip(decode_vector(q, a, w), decode_vector(q, b, w))])

    def _build_tables(self) -> None:
        n = self.order
        if self.subfield is None:
            self.neg_t = [(-a) % n for a in range(n)]
        else:
            q, w = self.digit_base, self.width
            self.neg_t = [vec_index(q, [self.subfield.neg(d) for d in decode_vector(q, a, w)])
                          for a in range(n)]
        if self.spec is not None:
            self.add_t = [[self._slow_add(a, b) for b in range(n)] for a in range(n)]
            self.mul_t = [[self._slow_mul(a, b) for b in range(n)] for a in range(n)]
            self.sub_t = [[self.add_t[a][self.neg_t[b]] for b in range(n)] for a in range(n)]
            inv = [0] * n
            for a in range(1, n):
                row = self.mul_t[a]
                for b in range(1, n):
                    if row[b] == 1:
                        inv[a] = b
                        break
                else:
                    raise RuntimeError("element without inverse; modulus not irreducible")
            self.inv_t = inv
        else:
            self.add_t = self.mul_t = self.sub_t = self.inv_t = None

    # -- operations ---------------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element index of {self!r}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.add_t is not None:
            return self.add_t[a][b]
        return self._slow_add(a, b)

    def sub(self, a: int, b: int) -> int:
        if self.sub_t is not None:
            return self.sub_t[a][b]
        return self._slow_add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.neg_t[a]

    def mul(self, a: int, b: int) -> int:
        if self.mul_t is not None:
            return self.mul_t[a][b]
        return self._slow_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.inv_t is not None:
            return self.inv_t[a]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self) -> Iterator[int]:
        """Every element exactly once, ascending index order, 0 first."""
        return iter(range(self.order))

    # -- coefficient views ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Digits of `a` over the immediate subfield (prime field if none)."""
        return decode_vector(self.digit_base, self.check(a), self.width)

    def from_coeffs(self, coeffs) -> int:
        cs = list(coeffs)
        if len(cs) != self.width:
            raise ValueError(f"expected {self.width} coefficients, got {len(cs)}")
        for c in cs:
            if not 0 <= c < self.digit_base:
                raise ValueError(f"coefficient {c} out of range for base {self.digit_base}")
        return vec_index(self.digit_base, cs)

    def prime_coeffs(self, a: int) -> tuple[int, ...]:
        """Digits of `a` over the prime field (length = total degree)."""
        return decode_vector(self.p, self.check(a), self.prime_width)

    def __repr__(self) -> str:
        return f"GF({self.order})"


# ---------------------------------------------------------------------------
# element syntax ("u+1" style) for the CLI / JSON boundary
# ---------------------------------------------------------------------------


def format_elem(fld: Field, a: int) -> str:
    """Polynomial string over the prime field, e.g. "0", "2", "u^2+2u+1"."""
    coeffs = fld.prime_coeffs(a)
    if len(coeffs) == 1:
        return str(coeffs[0])
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            power = fld.var if k == 1 else f"{fld.var}^{k}"
            terms.append(head + power)
    return "+".join(terms) if terms else "0"


def parse_elem(fld: Field, text: str) -> int:
    """Inverse of :func:`format_elem`; also accepts bare integers mod p and "-".

    Terms are ASCII-digit coefficients and powers, joined by "+" or "-" with
    no empty term, so "+", "1+" and "1_0" are malformed.
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty element literal")
    term = rf"(?:([0-9]*){re.escape(fld.var)}(?:\^([0-9]+))?|([0-9]+))"
    if re.fullmatch(rf"[+-]?{term}(?:[+-]{term})*", text) is None:
        raise ValueError(f"expected terms like 2u^2+u+1 or -1, got {text!r}")
    coeffs = [0] * fld.prime_width
    for sign, coef, power, const in re.findall(rf"([+-]?){term}", text):
        k = 0 if const else int(power or 1)
        if k >= len(coeffs):
            raise ValueError(f"power {k} too large in element literal {text!r}")
        c = int(const or coef or 1)
        coeffs[k] = (coeffs[k] + (-c if sign == "-" else c)) % fld.p
    return vec_index(fld.p, coeffs)


def format_triple(tower: "FieldTower", x: int) -> str:
    digits = tower.ext.coeffs(x)
    return "[" + ",".join(format_elem(tower.base, d) for d in digits) + "]"


def parse_triple(tower: "FieldTower", text: str) -> int:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected [a0,a1,a2] literal, got {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 3 coefficients in {text!r}")
    return tower.ext.from_coeffs([parse_elem(tower.base, s) for s in parts])


# ---------------------------------------------------------------------------
# cubic tower
# ---------------------------------------------------------------------------


def rootless_monic(base: Field, deg: int) -> tuple[int, ...]:
    """The first monic polynomial of degree `deg` over `base` with no root in `base`.

    The coefficients (a_0, ..., a_{deg-1}) of t^deg + ... + a_1 t + a_0 run
    through `decode_vector` index order, a_{deg-1} slowest.  For cubics over
    GF(2) this yields t^3+t+1; over GF(3) it yields t^3+2t+1.
    """
    q = base.order
    for idx in range(q**deg):
        coeffs = decode_vector(q, idx, deg) + (1,)
        if all(_poly_eval(base, coeffs, x) for x in base.elements()):
            return coeffs
    raise RuntimeError(f"no rootless monic of degree {deg} over {base!r}")  # none for deg 1


class FieldTower(namedtuple("FieldTower", "base ext f frob_t norm_t")):
    """GF(q) together with its cubic extension, Frobenius x -> x^q and norm.

    `f` is the monic cubic modulus as 4 base-field element indices.  `build`
    computes both tables before it constructs the tower.  Frobenius is
    F-linear, so `frob_t` is tabulated from t^q and t^2q alone
    (`linalg.image_table` on the images of 1, t, t^2); so is y -> t y, and
    x y = sum_i x_i (t^i y) reads it.  `norm_t` holds N(a) = a a^sigma a^sigma^2
    at the points a of P^2(F) (`linalg.points`) and N(k a) = k^3 N(a) for k in F.
    `build` checks on the table that Frobenius has order 3 and fixes exactly
    the embedded copy of the base field, which certifies the tower is cyclic,
    and that every norm is fixed.
    """

    __slots__ = ()

    @staticmethod
    def build(q: int, f: tuple[int, ...] | None = None) -> "FieldTower":
        base = Field.of_order(q)
        f = tuple(rootless_monic(base, 3) if f is None else f)
        K = base.extension(f)
        # x -> x^q is F-linear: the coordinates of x over (1, t, t^2) map t^j to t^(jq)
        t_q = K.pow(q, q)  # q is the index of t
        frob = image_table(base, [K.coeffs(1), K.coeffs(t_q), K.coeffs(K.mul(t_q, t_q))])
        for x in K.elements():
            if frob[frob[frob[x]]] != x:
                raise RuntimeError("Frobenius does not have order 3; broken tower")
        fixed = [x for x in K.elements() if frob[x] == x]
        if len(fixed) != q or any(x >= q for x in fixed):
            raise RuntimeError("Frobenius fixed field is not the embedded base; broken tower")
        by_t = image_table(base, [K.coeffs(K.mul(q, t)) for t in (1, q, q * q)])
        vecs, add, mul = f3_vectors(q), base.add_t, base.mul_t

        def times(x: int, y: int) -> int:
            r0, r1, r2 = (mul[c] for c in vecs[x])
            ty = by_t[y]
            return vec_index(q, [add[add[r0[c0]][r1[c1]]][r2[c2]]
                                 for c0, c1, c2 in zip(vecs[y], vecs[ty], vecs[by_t[ty]])])

        norm = [0] * K.order
        for a in points(q):
            n = times(times(a, frob[a]), frob[frob[a]])
            if frob[n] != n:
                raise RuntimeError("norm value not Frobenius-fixed; broken tower")
            # fixed elements sit at indices < q, i.e. are base indices
            for k in range(1, q):
                by_k = mul[k]
                norm[vec_index(q, [by_k[c] for c in vecs[a]])] = mul[by_k[by_k[k]]][n]
        return FieldTower(base, K, f, frob, norm)

    def __repr__(self) -> str:  # the tables stay out
        return f"FieldTower(base={self.base!r}, ext={self.ext!r}, f={self.f!r})"

    @property
    def q(self) -> int:
        return self.base.order

    def embed(self, a: int) -> int:
        self.base.check(a)
        return a

    def frobenius(self, x: int) -> int:
        self.ext.check(x)
        return self.frob_t[x]

    def norm(self, x: int) -> int:
        self.ext.check(x)
        return self.norm_t[x]

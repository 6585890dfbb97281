"""Arithmetic in small finite fields GF(p^m) and cubic tower extensions GF(q^3)/GF(q).

Elements of a field of order n are plain integers 0..n-1.  The base-p digits of
the integer, little-endian, are the coefficients of the element in the power
basis of the modulus root.  A tower extension K = F[t]/(f) uses base-q digits
instead, each digit being an F-element index, so a K element is the triple
(a0, a1, a2) with index a0 + a1*q + a2*q^2.  Iteration order everywhere is
ascending index order, starting at 0.

All arithmetic is schoolbook polynomial arithmetic modulo the defining
polynomial.  A base field GF(q), built from a :class:`FieldSpec`, memoizes its
arithmetic into full tables, which the census and verifier kernels read; a
cubic extension K = GF(q^3), built by `Field.extension`, computes each
operation on demand.  No discrete-log shortcuts.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field

SUPPORTED_Q = (3, 4, 5, 7, 8, 9)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
    """Schoolbook product of two coefficient vectors, reduced mod a monic modulus."""
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = fld.add(prod[i + j], fld.mul(ai, bj))
    # reduce: t^deg = -(modulus[0] + ... + modulus[deg-1] t^{deg-1})
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for j in range(deg):
            prod[k - deg + j] = fld.sub(prod[k - deg + j], fld.mul(c, modulus[j]))
    return prod[:deg]


# ---------------------------------------------------------------------------
# field descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Descriptor of GF(p^m) as F_p[t]/(modulus), serializable and hashable.

    `modulus` is little-endian over GF(p) with length m+1 and leading
    coefficient 1.  Every supported base field has m <= 3, where a polynomial
    is irreducible iff it has no root, so that is the check; m > 3 is refused.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        if self.m < 1:
            raise ValueError(f"degree must be >= 1, got {self.m}")
        if len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if 2 <= self.m <= 3:
            for a in range(self.p):
                if _int_poly_eval(self.modulus, a, self.p) == 0:
                    raise ValueError(f"modulus has root {a} in GF({self.p})")
        elif self.m > 3:
            raise ValueError("degrees above 3 are out of scope")

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus_coeffs": list(self.modulus)}


def _int_poly_eval(coeffs: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _digits(idx: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(idx % base)
        idx //= base
    return out


def default_field_spec(q: int) -> FieldSpec:
    """The deterministic presentation of GF(q): lex-least monic irreducible.

    The scan runs over coefficient tuples (a_{m-1}, ..., a_1, a_0) in ascending
    lexicographic order, so the first hit for GF(4) is u^2+u+1, for GF(8) is
    u^3+u+1 and for GF(9) is u^2+1.
    """
    p, m = factor_prime_power(q)
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    for idx in range(p**m):
        coeffs = tuple(_digits(idx, p, m)) + (1,)
        if all(_int_poly_eval(coeffs, a, p) for a in range(p)):
            return FieldSpec(p, m, coeffs)  # raises for m > 3, where no root is not enough
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# runtime field
# ---------------------------------------------------------------------------


class Field:
    """GF(p^m) with integer-indexed elements.

    Built either directly from a :class:`FieldSpec` (chain over the prime
    field), with table-backed operations, or as an extension of another Field
    by a monic irreducible polynomial with coefficients in that field, with
    untabulated ones (`add_t`, `sub_t`, `mul_t` and `inv_t` are None).
    """

    def __init__(self, subfield: "Field | None", modulus: tuple[int, ...], var: str,
                 spec: FieldSpec | None = None):
        self.subfield = subfield
        self.modulus = modulus
        self.var = var
        self.spec = spec
        if subfield is None:
            # prime field: modulus is (0, 1), i.e. plain t
            self.p = spec.p if spec else 0
            self.deg_over_sub = 1
            self.order = self.p
        else:
            self.p = subfield.p
            self.deg_over_sub = len(modulus) - 1
            self.order = subfield.order**self.deg_over_sub
        self._build_tables()

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_spec(spec: FieldSpec, var: str = "u") -> "Field":
        if spec.m == 1:
            return Field(None, (0, 1), var, spec=spec)
        prime = Field.from_spec(FieldSpec(spec.p, 1, (0, 1)), var)
        return Field(prime, spec.modulus, var, spec=spec)

    @staticmethod
    def of_order(q: int) -> "Field":
        return Field.from_spec(default_field_spec(q))

    def extension(self, modulus: tuple[int, ...], var: str = "t") -> "Field":
        """Extension of this field by a monic polynomial given as element indices."""
        if modulus[-1] != 1:
            raise ValueError("extension modulus must be monic")
        deg = len(modulus) - 1
        if deg <= 3:
            for a in self.elements():
                if _poly_eval(self, modulus, a) == 0:
                    raise ValueError("extension modulus has a root in the base field")
        return Field(self, modulus, var)

    # -- tables -------------------------------------------------------------

    def _slow_mul(self, a: int, b: int) -> int:
        if self.subfield is None:
            return a * b % self.p
        q = self.subfield.order
        prod = _poly_mul_mod(self.subfield, _digits(a, q, self.deg_over_sub),
                             _digits(b, q, self.deg_over_sub), self.modulus)
        return _undigits(prod, q)

    def _slow_add(self, a: int, b: int) -> int:
        if self.subfield is None:
            return (a + b) % self.p
        q = self.subfield.order
        da, db = _digits(a, q, self.deg_over_sub), _digits(b, q, self.deg_over_sub)
        return _undigits([self.subfield.add(x, y) for x, y in zip(da, db)], q)

    def _build_tables(self) -> None:
        n = self.order
        if self.subfield is None:
            self.neg_t = [(-a) % n for a in range(n)]
        else:
            q = self.subfield.order
            self.neg_t = [
                _undigits([self.subfield.neg(d) for d in _digits(a, q, self.deg_over_sub)], q)
                for a in range(n)
            ]
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
        self.check(a)
        base = self.subfield.order if self.subfield is not None else self.p
        width = self.deg_over_sub if self.subfield is not None else 1
        return tuple(_digits(a, base, width))

    def from_coeffs(self, coeffs) -> int:
        base = self.subfield.order if self.subfield is not None else self.p
        width = self.deg_over_sub if self.subfield is not None else 1
        cs = list(coeffs)
        if len(cs) != width:
            raise ValueError(f"expected {width} coefficients, got {len(cs)}")
        for c in cs:
            if not 0 <= c < base:
                raise ValueError(f"coefficient {c} out of range for base {base}")
        return _undigits(cs, base)

    def prime_coeffs(self, a: int) -> tuple[int, ...]:
        """Digits of `a` over the prime field (length = total degree)."""
        self.check(a)
        m = 1
        f: Field | None = self
        while f is not None and f.subfield is not None:
            m *= f.deg_over_sub
            f = f.subfield
        return tuple(_digits(a, self.p, m))

    def __repr__(self) -> str:
        return f"GF({self.order})"


def _undigits(digits, base: int) -> int:
    acc = 0
    for d in reversed(list(digits)):
        acc = acc * base + d
    return acc


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
    coeffs = [0] * len(fld.prime_coeffs(0))
    for sign, coef, power, const in re.findall(rf"([+-]?){term}", text):
        k = 0 if const else int(power or 1)
        if k >= len(coeffs):
            raise ValueError(f"power {k} too large in element literal {text!r}")
        c = int(const or coef or 1)
        coeffs[k] = (coeffs[k] + (-c if sign == "-" else c)) % fld.p
    return _undigits(coeffs, fld.p)


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


def find_cubic_modulus(base: Field) -> tuple[int, int, int, int]:
    """Lexicographically least monic cubic over `base` with no root in `base`.

    Scan order: coefficient tuples (a2, a1, a0) of t^3 + a2 t^2 + a1 t + a0,
    each running through element indices ascending, a2 most significant.  Over
    GF(2) this yields t^3+t+1; over GF(3) it yields t^3+2t+1.
    """
    q = base.order
    for a2 in range(q):
        for a1 in range(q):
            for a0 in range(q):
                coeffs = (a0, a1, a2, 1)
                if all(_poly_eval(base, coeffs, x) != 0 for x in range(q)):
                    return coeffs
    raise RuntimeError("no rootless monic cubic found")  # impossible over a finite field


@dataclass
class FieldTower:
    """GF(q) together with its cubic extension, Frobenius x -> x^q and norm.

    `f` is the monic cubic modulus as 4 base-field element indices.  The
    constructor checks that Frobenius has order 3 and fixes exactly the
    embedded copy of the base field, which certifies the tower is cyclic.
    """

    base: Field
    ext: Field
    f: tuple[int, int, int, int]
    frob_t: list[int] = dc_field(repr=False, default=None)
    norm_t: list[int] = dc_field(repr=False, default=None)

    @staticmethod
    def build(q_or_field, f: tuple[int, ...] | None = None) -> "FieldTower":
        base = q_or_field if isinstance(q_or_field, Field) else Field.of_order(q_or_field)
        if f is None:
            f = find_cubic_modulus(base)
        f = tuple(f)
        ext = base.extension(f, var="t")
        tower = FieldTower(base, ext, f)
        tower._build_tables()
        return tower

    @property
    def q(self) -> int:
        return self.base.order

    def _build_tables(self) -> None:
        q = self.base.order
        K = self.ext
        frob = [K.pow(x, q) for x in K.elements()]
        for x in K.elements():
            if frob[frob[frob[x]]] != x:
                raise RuntimeError("Frobenius does not have order 3; broken tower")
        fixed = [x for x in K.elements() if frob[x] == x]
        if len(fixed) != q or any(x >= q for x in fixed):
            raise RuntimeError("Frobenius fixed field is not the embedded base; broken tower")
        self.frob_t = frob
        norm = []
        for x in K.elements():
            n = K.mul(x, K.mul(frob[x], frob[frob[x]]))
            if frob[n] != n:
                raise RuntimeError("norm value not Frobenius-fixed; broken tower")
            norm.append(n)  # fixed elements sit at indices < q, i.e. are base indices
        self.norm_t = norm

    def embed(self, a: int) -> int:
        self.base.check(a)
        return a

    def frobenius(self, x: int) -> int:
        self.ext.check(x)
        return self.frob_t[x]

    def norm(self, x: int) -> int:
        self.ext.check(x)
        return self.norm_t[x]

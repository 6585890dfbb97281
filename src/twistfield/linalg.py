"""Deterministic exact linear algebra over GF(q).

Vectors are tuples of element indices, and a matrix is a tuple of row tuples
(`Row`), the one form every matrix constructor returns.  Reduced row-echelon
form is the canonical representative of a subspace, so structural equality of
:class:`Subspace` values is subspace equality and the basis tuple doubles as a
hash key for census bookkeeping.

Where a whole space is swept, a vector is one integer: the F^3 index of v is
v_0 + q v_1 + q^2 v_2, and the F^6 index of (x, y) is idx(x) + q^3 idx(y),
that is sum v_j q^j in both cases (`vec_index`, `decode_vector`).  `gf` uses
the same codec for its elements, so the index of x in K = GF(q^3) is the F^3
index of its coordinates over (1, t, t^2).

A linear map of F^3 is swept as its table on indices (`image_table`).  An
invertible map T is keyed by one int, k_0 + n k_1 + n^2 k_2 with n = q^3 and
k_j the index of T e_j: that is the F^3 index of each column of T, and for a
graph {(w, T w)} the RREF rows (e_j | T e_j).  `algebra3.graph_keys` builds
these keys for T = R_y R_x^-1.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import chain, combinations, product
from operator import add, itemgetter

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; gf imports this module's codec
    from .gf import Field

Row = tuple[int, ...]


class Keyed:
    """Equality and hash of a namedtuple record over the fields `_key` picks: by
    default all but the first, the field or tower the others are over."""

    __slots__ = ()
    _key = itemgetter(slice(1, None))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key(self))


class Subspace(Keyed, namedtuple("Subspace", "field ambient basis")):
    """Canonical subspace of F^n: basis rows in reduced row-echelon form."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Row) -> bool:
        return not any(_reduce_row(self.field, list(vec), self.basis, _pivots_of(self.basis)))

    def to_json(self) -> dict:
        return {"ambient": self.ambient, "basis": [list(r) for r in self.basis]}


# ---------------------------------------------------------------------------
# row kernels
# ---------------------------------------------------------------------------


def _pivots_of(rows: tuple[Row, ...]) -> tuple[int, ...]:
    return tuple(next(i for i, c in enumerate(r) if c) for r in rows)


def _reduce_row(fld: Field, row: list[int], rows, pivots) -> list[int]:
    """Eliminate `row` against normalized echelon rows (unit pivots); `fld` is tabulated."""
    sub_t, mul_t = fld.sub_t, fld.mul_t
    for r, p in zip(rows, pivots):
        c = row[p]
        if c:
            mc = mul_t[c]
            row = [sub_t[a][mc[b]] for a, b in zip(row, r)]
    return row


def rref_rows(fld: Field, rows) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """RREF basis rows and their pivot columns (zero rows dropped).

    `fld` must be tabulated (see `_reduce_row`): every caller works over a base
    field GF(q), q <= 9, never over the cubic extension.
    """
    work: list[list[int]] = []
    pivots: list[int] = []
    for raw in rows:
        row = _reduce_row(fld, list(raw), work, pivots)
        piv = next((i for i, c in enumerate(row) if c), None)
        if piv is None:
            continue
        inv = fld.inv(row[piv])
        if inv != 1:
            row = [fld.mul(inv, c) for c in row]
        # clear the new pivot column in earlier rows
        for k, (r, p) in enumerate(zip(work, pivots)):
            c = r[piv]
            if c:
                work[k] = [fld.sub(a, fld.mul(c, b)) for a, b in zip(r, row)]
        pos = 0
        while pos < len(pivots) and pivots[pos] < piv:
            pos += 1
        work.insert(pos, row)
        pivots.insert(pos, piv)
    return tuple(tuple(r) for r in work), tuple(pivots)


def added_rank(fld: Field, rows, pivots, new_rows) -> int:
    """Number of new pivots `new_rows` contribute on top of an echelon basis."""
    extra: list[list[int]] = []
    extra_pivs: list[int] = []
    count = 0
    for raw in new_rows:
        row = _reduce_row(fld, list(raw), rows, pivots)
        row = _reduce_row(fld, row, extra, extra_pivs)
        piv = next((i for i, c in enumerate(row) if c), None)
        if piv is None:
            continue
        inv = fld.inv(row[piv])
        if inv != 1:
            row = [fld.mul(inv, c) for c in row]
        extra.append(row)
        extra_pivs.append(piv)
        count += 1
    return count


def kernel_rows(fld: Field, rows, ncols: int) -> tuple[Row, ...]:
    """RREF basis of the right null space {v : M v = 0}."""
    red, pivots = rref_rows(fld, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * ncols
        vec[j] = 1
        for r, p in zip(red, pivots):
            vec[p] = fld.neg(r[j])
        basis.append(tuple(vec))
    out, _ = rref_rows(fld, basis)
    return out


def intersect_rows(fld: Field, rows1, rows2) -> tuple[Row, ...]:
    """RREF basis of (row space 1) intersect (row space 2).

    Computed from the kernel of the stacked coefficient system: coefficient
    vectors (c, d) with c*rows1 - d*rows2 = 0 are the null space of the
    transpose of the stacked matrix, and each such c*rows1 spans the
    intersection.
    """
    r1, r2 = len(rows1), len(rows2)
    if r1 == 0 or r2 == 0:
        return ()
    ncols = len(rows1[0])
    stacked_t = []
    for j in range(ncols):
        stacked_t.append(tuple(r[j] for r in rows1) + tuple(fld.neg(r[j]) for r in rows2))
    combos = kernel_rows(fld, stacked_t, r1 + r2)
    vecs = []
    for combo in combos:
        vec = [0] * ncols
        for c, r in zip(combo[:r1], rows1):
            if c:
                for i, b in enumerate(r):
                    vec[i] = fld.add(vec[i], fld.mul(c, b))
        vecs.append(tuple(vec))
    out, _ = rref_rows(fld, vecs)
    return out


def mat_vec(fld: Field, a, v) -> Row:
    return tuple(
        _dot(fld, row, v)
        for row in a
    )


def _dot(fld: Field, r, v) -> int:
    acc = 0
    for x, y in zip(r, v):
        if x and y:
            acc = fld.add(acc, fld.mul(x, y))
    return acc


def identity_rows(n: int) -> tuple[Row, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def echelon_bases(q: int, n: int, k: int):
    """The RREF basis rows of every k-dim subspace of GF(q)^n, each once.

    Pivot pattern by pattern (`itertools.combinations` order), and within a
    pattern the free entries, row by row, count up as base-q digits with the
    first one slowest.
    """
    for pivots in combinations(range(n), k):
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[1 if j == p else 0 for j in range(n)] for p in pivots]
            for (i, j), a in zip(free, values):
                rows[i][j] = a
            yield tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# F^3 coordinates: indices, line representatives and tabulated maps
# ---------------------------------------------------------------------------


def vec_index(q: int, v) -> int:
    """The index sum v_j q^j of a vector over GF(q) (module docstring)."""
    idx = 0
    for c in reversed(v):
        idx = idx * q + c
    return idx


def decode_vector(q: int, idx: int, n: int = 6) -> Row:
    """The vector of F^n with index `idx`; inverse of `vec_index`."""
    coords = []
    for _ in range(n):
        coords.append(idx % q)
        idx //= q
    return tuple(coords)


def scalar_key(q: int, k: int) -> int:
    """The key of k I (module docstring): column j is k e_j, of index k q^j."""
    n = q**3
    return k * (1 + q * n + q * q * n * n)


@lru_cache(maxsize=None)
def f3_vectors(q: int) -> tuple[Row, ...]:
    """Every vector of F^3, in index order."""
    return tuple(decode_vector(q, i, 3) for i in range(q**3))


@lru_cache(maxsize=None)
def points(q: int) -> tuple[int, ...]:
    """Indices of the q^2+q+1 points of P^2(F): the vectors of F^3 whose last nonzero
    coordinate, the most significant digit, is 1; so each is the least of its line."""
    return tuple(i for i, v in enumerate(f3_vectors(q))
                 if i and next(c for c in reversed(v) if c) == 1)


def unit_row(fld: Field, row: Row) -> Row:
    """`row` scaled so that its first nonzero entry is 1: the RREF basis of its line.

    The zero row maps to itself.
    """
    lead = next((c for c in row if c), 1)
    if lead == 1:
        return row
    scale = fld.mul_t[fld.inv_t[lead]]
    return tuple(scale[c] for c in row)


def cross(fld: Field, a: Row, b: Row) -> Row:
    """a x b in F^3: nonzero iff a, b are independent, and then normal to <a, b>."""
    mul, sub = fld.mul_t, fld.sub_t
    return (sub[mul[a[1]][b[2]]][mul[a[2]][b[1]]],
            sub[mul[a[2]][b[0]]][mul[a[0]][b[2]]],
            sub[mul[a[0]][b[1]]][mul[a[1]][b[0]]])


def det3(fld: Field, rows) -> int:
    """det M = r_0 . (r_1 x r_2) for the 3x3 matrix M with rows r_0, r_1, r_2."""
    return _dot(fld, rows[0], cross(fld, rows[1], rows[2]))


def scaling_table(fld: Field, s) -> list[int]:
    """The `image_table` of x -> (s_0 x_0, s_1 x_1, s_2 x_2)."""
    return image_table(fld, [tuple(c if k == j else 0 for k in range(3)) for j, c in enumerate(s)])


@lru_cache(maxsize=None)
def scalar_multiples(fld: Field) -> array:
    """The index of k v at k q^3 + (the index of v), for every k in F and v in F^3: the
    `scaling_table` of (k, k, k) for each k in turn, built once per field."""
    return array("H", chain.from_iterable(scaling_table(fld, (k, k, k)) for k in range(fld.order)))


def inverse_columns(fld: Field, rows) -> tuple[Row, Row, Row] | None:
    """The columns of M^-1 for the 3x3 matrix M with these rows, or None when M is singular.

    Column j is r_{j+1} x r_{j+2} / det M: M times it is det M in row j and a
    triple product with a repeated row elsewhere.
    """
    r0, r1, r2 = rows
    cols = (cross(fld, r1, r2), cross(fld, r2, r0), cross(fld, r0, r1))
    det = _dot(fld, r0, cols[0])
    if not det:
        return None
    scale = fld.mul_t[fld.inv_t[det]]
    return tuple(tuple(scale[c] for c in col) for col in cols)


@lru_cache(maxsize=None)
def _plane_shifts(fld: Field) -> tuple[tuple[bytes, ...], tuple[int, ...]]:
    """The `bytes.translate` table of c -> c + s on F^2 codes c = c_0 + q c_1 for each
    code s, in order, and q^2 times each digit: what `image_table` reads, once per field.
    Each table composes a shift of digit 0 with one of digit 1; codes from q^2 on never
    occur, but translate needs all 256.  ValueError unless q^2 <= 256."""
    q = fld.order
    qq = q * q
    if qq > 256:
        raise ValueError(f"image_table holds two digits of GF({q}) in a byte: q <= 16 only")
    rest = bytes(range(qq, 256))
    # shift1[s] adds s to digit 1, shift0[s] adds s to digit 0
    blocks = [bytes(range(k, k + q)) for k in range(0, qq, q)]
    shift1 = [b"".join([blocks[a] for a in row]) + rest for row in fld.add_t]
    shift0 = [b"".join([bytes(row).translate(t) for t in shift1]) + rest for row in fld.add_t]
    shifts = tuple(t0.translate(t1) for t1 in shift1 for t0 in shift0)
    return shifts, tuple(range(0, qq * q, qq))


def image_table(fld: Field, images) -> list[int]:
    """The index of v_0 m_0 + v_1 m_1 + v_2 m_2 for every v in F^3, in index order.

    `images` = (m_0, m_1, m_2) are the images of e_0, e_1, e_2 under a linear
    map, so this tabulates the map on indices; images (c_j, 0, 0) give the dot
    product with c.  `fld` must be tabulated.

    It is made by digit planes, one C-level call per line, not one bytecode step per
    entry: the low plane holds the first two digits of each image as one F^2 code per
    byte, the high plane the last digit (a code with digit 1 zero).  A plane is the
    outer sum over v_0, v_1, v_2 of the digits of v_j m_j: the q-byte line over v_0,
    q copies of it joined, one per v_1, each shifted by a table of `_plane_shifts`,
    and q copies of that for v_2.  The index is the low code plus q^2 times the high
    digit.
    """
    q = fld.order
    mul_t = fld.mul_t
    shifts, by_qq = _plane_shifts(fld)
    lows, highs = [], []  # per j, the codes of the low digits and the high digit of v_j m_j
    for m0, m1, m2 in images:
        lows.append([a + q * b for a, b in zip(mul_t[m0], mul_t[m1])])
        highs.append(mul_t[m2])
    planes = []
    for first, second, third in (lows, highs):
        plane = bytes(first)
        for step in (second, third):
            plane = b"".join([plane.translate(shifts[s]) for s in step])
        planes.append(plane)
    low, high = planes
    return list(map(add, low, map(by_qq.__getitem__, high)))

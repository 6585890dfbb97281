"""Kernels the tests use as references: dense matrix products and inverses, the split
Albert map written out from its basis rules, the index table of a linear map of F^3 one
entry per bytecode step, the q^6 left multiplication and division tables, the inventory
before its column layout, the census kernel that reads the inventory's columns over
those tables, the 2x2 helpers of `normalform` and the 7.2 sum table written with one
`Field` method call or one `vec_index` per entry.  No code in `src/` calls them."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from twistfield.algebra3 import basis_products
from twistfield.engine.census import DIM_KEYS, KINDS, SpaceRec
from twistfield.engine.spaces import DEGENERATE, NONDEGENERATE
from twistfield.linalg import (decode_vector, f3_vectors, identity_rows, points, rref_rows,
                               unit_row, vec_index)


def mat_mul(fld, a, b):
    """Product of two row-major matrices given as sequences of rows."""
    n, k = len(a), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(len(b[0])):
            acc = 0
            for t in range(k):
                acc = fld.add(acc, fld.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_inv(fld, a):
    """Inverse of an invertible square matrix, read off the RREF of [a | I]."""
    n = len(a)
    rows, pivots = rref_rows(fld, [tuple(r) + e for r, e in zip(a, identity_rows(n))])
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in rows)


def reference_det2(fld, m):
    return fld.sub(fld.mul(m[0][0], m[1][1]), fld.mul(m[0][1], m[1][0]))


def reference_mul2(fld, a, b):
    return tuple(
        tuple(fld.add(fld.mul(a[i][0], b[0][j]), fld.mul(a[i][1], b[1][j])) for j in range(2))
        for i in range(2)
    )


def reference_inv2(fld, m):
    s = fld.inv(reference_det2(fld, m))
    return (
        (fld.mul(s, m[1][1]), fld.mul(s, fld.neg(m[0][1]))),
        (fld.mul(s, fld.neg(m[1][0])), fld.mul(s, m[0][0])),
    )


def reference_eigen_split(fld, m):
    """(roots in F of X^2 - tr X + det, tr, det) for m's trace tr and determinant det."""
    tr = fld.add(m[0][0], m[1][1])
    det = reference_det2(fld, m)
    roots = [x for x in fld.elements()
             if fld.add(fld.mul(x, x), det) == fld.mul(tr, x)]
    return roots, tr, det


def reference_projective_sum_table(fld):
    """table[a][b] = the index of a + b in F^3, scaled to lead with 1 (0 stays 0), one
    `vec_index` per entry."""
    q = fld.order
    add = fld.add_t
    vecs = f3_vectors(q)
    scaled = [vec_index(q, unit_row(fld, v)) for v in vecs]
    return [[scaled[vec_index(q, [add[s][t] for s, t in zip(a, b)])] for b in vecs]
            for a in vecs]


def reference_phi(spec, x, y):
    """phi(x, y) for coordinate vectors x in U and y in V, summed term by term from the
    basis rules phi(alpha_a, beta_{a+1}) = gamma_{a+2} and
    phi(alpha_a, beta_{a+2}) = d_{a+1} gamma_{a+1}, without the structure tensor."""
    fld = spec.field
    out = [0, 0, 0]
    for a in range(3):
        if not x[a]:
            continue
        b1 = (a + 1) % 3
        if y[b1]:
            out[(a + 2) % 3] = fld.add(out[(a + 2) % 3], fld.mul(x[a], y[b1]))
        b2 = (a + 2) % 3
        if y[b2]:
            coef = fld.mul(spec.d[(a + 1) % 3], fld.mul(x[a], y[b2]))
            out[(a + 1) % 3] = fld.add(out[(a + 1) % 3], coef)
    return (out[0], out[1], out[2])


def reference_image_table(fld, images) -> list[int]:
    """`linalg.image_table` one entry per bytecode step: for each (v_2, v_1), the rows of
    the addition table at the coordinates of v_1 m_1 + v_2 m_2, read at those of v_0 m_0
    for each v_0."""
    q = fld.order
    qq = q * q
    add_t, mul_t = fld.add_t, fld.mul_t
    m0, m1, m2 = ([tuple(mul_t[k][c] for c in m) for k in range(q)] for m in images)
    out = []
    for s2 in m2:
        for s1 in m1:
            t0, t1, t2 = (add_t[add_t[s1[k]][s2[k]]] for k in range(3))
            out += [t0[u0] + q * t1[u1] + qq * t2[u2] for u0, u1, u2 in m0]
    return out


def left_division_tables(alg) -> tuple[array, array]:
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
        mul[x::n] = array("H", reference_image_table(fld, basis_products(alg, vecs[x])))
    ldiv = array("H", bytes(2 * n))
    for a in range(1, n):
        row = mul[a * n:(a + 1) * n]
        if len(set(row)) != n:
            raise RuntimeError(f"left multiplication by {vecs[a]} is not injective: "
                               "not a division algebra")
        ldiv += array("H", sorted(range(n), key=row.__getitem__))  # the inverse permutation
    return mul, ldiv


@dataclass
class ReferenceInventory:
    spaces: list
    space_of: array
    totals: dict


def reference_build_inventory(alg):
    """The inventory as a dict of 3-tuple keys with one SpaceRec per space: the layout
    before the columns, kept as the reference for `census.build_inventory`."""
    q = alg.field.order
    n = q**3
    mul, _ = left_division_tables(alg)
    vecs = f3_vectors(q)
    unit = identity_rows(3)
    e_idx = [vec_index(q, e) for e in unit]
    solve = []  # [a_0, a_1, a_2] with a_j x' = e_j, for x' = 1 .. n-1
    for x in range(1, n):
        col = mul[x::n]  # a -> a x'
        if not all(e in col for e in e_idx):
            raise RuntimeError(f"some e_j is not a*x for x = {vecs[x]}: not a division algebra")
        solve.append([col.index(e) for e in e_idx])
    take = [itemgetter(*a_j) for a_j in zip(*solve)]
    # v' = (x', y') is keyed by the indices of a_j y', or by None when x' = 0;
    # indices run x' fastest, so ids come out in order of least index
    ids: dict = {}
    space_of = array("i", [-1])
    for y in range(n):
        col = mul[y::n]
        if y:
            space_of.append(ids.setdefault(None, len(ids)))
        space_of.extend([ids.setdefault(key, len(ids)) for key in zip(*(t(col) for t in take))])
    first = dict(zip(reversed(space_of), range(len(space_of) - 1, -1, -1)))  # least index
    fiber = Counter(space_of)
    # v' is degenerate iff x' = 0 or y' = k x', that is T = k I, keyed by the indices of k e_j
    degenerate = {None} | {tuple(vec_index(q, [k * c for c in e]) for e in unit)
                           for k in range(q)}
    spaces = []
    for pos, key in enumerate(ids):
        if key is None:  # Av' = 0 + A
            rows, pivots = tuple((0, 0, 0) + e for e in unit), (3, 4, 5)
        else:
            rows, pivots = tuple(e + vecs[t] for e, t in zip(unit, key)), (0, 1, 2)
        kind = DEGENERATE if key in degenerate else NONDEGENERATE
        spaces.append(SpaceRec(rows, pivots, kind, fiber[pos], decode_vector(q, first[pos]),
                               first[pos]))
    totals = {kind: (sum(r.fiber for r in spaces if r.kind == kind),
                     sum(r.kind == kind for r in spaces)) for kind in (NONDEGENERATE, DEGENERATE)}
    return ReferenceInventory(spaces, space_of, totals)


@dataclass
class ReferenceMeet:
    vectors: dict
    spaces: dict
    hits: list  # (d, position in inventory.spaces)


def reference_meet_all(inventory, v, tables=None):
    """`census.meet_all` before it keyed the reached classes: every a' != 0 reaches a
    vector v' = L_{a'}^-1 w through the q^6 tables of `left_division_tables`, each v' is
    placed by the inventory's `space_of`, and a met space's count is checked against its
    `fiber` column.  `tables` are those tables when already at hand."""
    q = inventory.alg.field.order
    n = q**3
    mul, ldiv = tables or left_division_tables(inventory.alg)
    space_of = inventory.space_of
    ix, iy = vec_index(q, v.x), vec_index(q, v.y)
    gens = [(mul[a * n + ix], mul[a * n + iy]) for a in points(q)]
    reached = [[x + n * y for x, y in zip(ldiv[n + w1::n], ldiv[n + w2::n])]
               for w1, w2 in gens]
    mult: Counter = Counter()
    for vs in reached:
        mult.update(vs)
    dim_of = {1: 1, q + 1: 2, q * q + q + 1: 3}
    met: dict[int, list] = {}  # position of Av' -> [d, vectors v' reached]
    for vi, m in mult.items():
        d = dim_of.get(m)
        if d is None:
            raise RuntimeError(f"v' index {vi} reached {m} times, not 1, q+1 or q^2+q+1")
        pos = space_of[vi]
        got = met.get(pos)
        if got is None:
            met[pos] = [d, 1]
        elif got[0] != d:
            raise RuntimeError(f"space {pos} met in dimensions {got[0]} and {d}")
        else:
            got[1] += 1
    vectors = dict.fromkeys(DIM_KEYS, 0)
    spaces = dict.fromkeys(DIM_KEYS, 0)
    for kind, (n_vectors, n_spaces) in inventory.totals.items():
        vectors["dim0_" + kind] = n_vectors
        spaces["dim0_" + kind] = n_spaces
    fiber, kind = inventory.fiber, inventory.kind
    hits = []
    for pos, (d, count) in met.items():
        if count != fiber[pos]:
            raise RuntimeError(f"space {pos} met on {count} of its {fiber[pos]} vectors")
        vectors[f"dim{d}"] += count
        spaces[f"dim{d}"] += 1
        vectors["dim0_" + KINDS[kind[pos]]] -= count
        spaces["dim0_" + KINDS[kind[pos]]] -= 1
        if d < 3:
            hits.append((d, pos))
    return ReferenceMeet(vectors, spaces, hits)


def with_space_of(inventory, space_of):
    """`inventory` with `space_of` replaced and its fiber column and totals counted from
    it, as `census.build_inventory` counts them: a corrupted inventory that is consistent."""
    counts = Counter(space_of)
    fiber = array("i", (counts[pos] for pos in range(len(inventory.fiber))))
    totals = {name: (sum(f for f, k in zip(fiber, inventory.kind) if k == i),
                     inventory.kind.count(i)) for i, name in enumerate(KINDS)}
    return inventory._replace(space_of=space_of, fiber=fiber, totals=totals)

"""Kernels the tests use as references: dense matrix products and inverses, the split
Albert map written out from its basis rules, and the inventory before its column layout.
No code in `src/` calls them."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from twistfield.algebra3 import left_division_tables
from twistfield.engine.census import SpaceRec
from twistfield.engine.spaces import DEGENERATE, NONDEGENERATE
from twistfield.linalg import decode_vector, f3_vectors, identity_rows, rref_rows, vec_index


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


@dataclass
class ReferenceInventory:
    spaces: list
    space_of: array
    mul: array
    ldiv: array
    totals: dict


def reference_build_inventory(alg):
    """The inventory as a dict of 3-tuple keys with one SpaceRec per space: the layout
    before the columns, kept as the reference for `census.build_inventory`."""
    q = alg.field.order
    n = q**3
    mul, ldiv = left_division_tables(alg)
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
    return ReferenceInventory(spaces, space_of, mul, ldiv, totals)

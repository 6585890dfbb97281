"""Dense matrix kernels the tests use as references: no code in `src/` calls them."""

from __future__ import annotations

from twistfield.linalg import identity_rows, rref_rows


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

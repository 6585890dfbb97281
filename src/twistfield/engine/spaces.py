"""Subspaces Av of A^2, their intersections, and the two-dim partner construction."""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra3 import Algebra3, basis_products, left_mul_matrix, mulvec, right_mul_matrix
from ..gf import Field
from ..linalg import (Subspace, cross, echelon_bases, intersect_rows, inverse_columns, kernel_rows,
                      mat_vec, rref_rows)

Vec3 = tuple[int, int, int]

ZERO = "zero"
DEGENERATE = "degenerate"
NONDEGENERATE = "nondegenerate"


@dataclass(frozen=True)
class PairVector:
    """v = (x, y) in A^2; flattening to F^6 is x followed by y."""

    x: Vec3
    y: Vec3

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        if len(self.x) != 3 or len(self.y) != 3:
            raise ValueError("x and y must have three coordinates")

    @property
    def flat(self) -> tuple[int, ...]:
        return self.x + self.y

    def to_json(self) -> list[list[int]]:
        return [list(self.x), list(self.y)]


def classify(fld: Field, v: PairVector) -> str:
    """Rank of the 2x3 coordinate stack: 0 -> zero, 1 -> degenerate, 2 -> nondegenerate.

    The rank is 2 iff x cross y != 0.
    """
    if any(cross(fld, v.x, v.y)):
        return NONDEGENERATE
    return DEGENERATE if any(v.flat) else ZERO


def pair_rows(alg: Algebra3, x: Vec3, y: Vec3) -> list[tuple[int, ...]]:
    """Rows e_i * v = (e_i x | e_i y); their span is Av."""
    return [rx + ry for rx, ry in zip(basis_products(alg, x), basis_products(alg, y))]


def av_subspace(alg: Algebra3, v: PairVector) -> Subspace:
    """Av = {av : a in A} as a canonical subspace of F^6."""
    rows, _ = rref_rows(alg.field, pair_rows(alg, v.x, v.y))
    return Subspace(alg.field, 6, rows)


def intersection_dim(alg: Algebra3, v: PairVector, v2: PairVector) -> tuple[int, Subspace]:
    rows = intersect_rows(alg.field, av_subspace(alg, v).basis, av_subspace(alg, v2).basis)
    return len(rows), Subspace(alg.field, 6, rows)


def solution_space(alg: Algebra3, v: PairVector, v2: PairVector) -> Subspace:
    """Pairs (a, a') in F^6 with a v = a' v'; dimension equals intersection_dim.

    Kernel of the block system [R_x | -R_x' ; R_y | -R_y'], valid when both
    vectors are regular (over a division algebra: nonzero).
    """
    fld = alg.field
    for w in (v, v2):
        if classify(fld, w) == ZERO:
            raise ValueError("solution space requires regular (nonzero) vectors")
    rows = []
    for left, right in ((v.x, v2.x), (v.y, v2.y)):
        rl = right_mul_matrix(alg, left)
        rr = right_mul_matrix(alg, right)
        for k in range(3):
            rows.append(tuple(rl[k]) + tuple(fld.neg(c) for c in rr[k]))
    return Subspace(fld, 6, kernel_rows(fld, rows, 6))


def solve3(fld: Field, mat_rows, rhs: Vec3) -> Vec3:
    """Unique solution of a 3x3 invertible system: M^-1 rhs, by `linalg.inverse_columns`."""
    cols = inverse_columns(fld, mat_rows)
    if cols is None:
        raise ValueError("matrix is singular")
    return mat_vec(fld, tuple(zip(*cols)), rhs)


def construct_two_dim_partner(alg: Algebra3, v: PairVector, x2: Vec3) -> PairVector:
    """For commutative division A: the unique v' = (x', y') with x'y = xy'.

    The resulting pair satisfies dim(Av meet Av') = 2 with the intersection
    equal to span{x'v, y'v} = span{xv', yv'}.
    """
    fld = alg.field
    if not alg.is_commutative():
        raise ValueError("two-dim partner construction needs a commutative tensor")
    if classify(fld, v) != NONDEGENERATE:
        raise ValueError("base vector must be nondegenerate")
    x2 = tuple(x2)
    if not any(cross(fld, v.x, x2)):
        raise ValueError("replacement first coordinate must be independent of x")
    rhs = mulvec(alg, x2, v.y)
    y2 = solve3(fld, left_mul_matrix(alg, v.x), rhs)
    return PairVector(x2, y2)


def plane_representatives(fld: Field) -> list[PairVector]:
    """One nondegenerate vector per 2-dim subspace of F^3 (its RREF basis rows).

    Simultaneous GL2 frame changes preserve intersection dimensions and sweep
    all ordered bases of a fixed plane, so these q^2+q+1 vectors meet every
    nondegenerate GL2 orbit.
    """
    return [PairVector(*rows) for rows in echelon_bases(fld.order, 3, 2)]


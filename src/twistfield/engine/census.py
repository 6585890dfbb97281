"""Censuses of dim(Av meet Av') over all v' in F^6, with closed-form predictions.

The sweep over v' happens once per algebra: every nonzero v' is classified and
its space Av' reduced to a canonical RREF key, producing an inventory of
distinct spaces with fiber sizes, the position of each v' in that list
(`space_of`), and the left multiplication and division tables of A.  The v'
range is partitioned into fixed-size index chunks (`index_chunks`) that
`parallel_map` runs serially or in a pool; worker count only affects
scheduling, never chunk boundaries, so merged reports are byte-reproducible for
any --workers value.  The census reports and the Theorem A and B verifiers
all read this one sweep: A checks the fibers of `space_of`, B takes its
dimensions from the kernel below.

The census kernel (`_meet`) makes no rank test.  A is a division algebra, so
each nonzero w in Av meet Av' is a'v' for exactly one a', and
(k^-1 a')(k v') = a'v'.  Letting w run over one generator a v of each of the
q^2+q+1 lines of Av and a' over A minus 0, the vector v' = L_{a'}^-1 w is
reached exactly (q^d - 1)/(q - 1) times, d = dim(Av meet Av').  The
multiplicities give the vector tallies, `space_of` the space tallies, and a
v' reached once lies on the line spanned by the generator that reached it.
The run checks what the counting rests on, raising RuntimeError (never a
mismatch) when it fails: every row a != 0 of the multiplication table is a
permutation (built with the inventory), every multiplicity is 1, q+1 or
q^2+q+1, and every space met is met on its whole fiber with a single d.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from ..algebra3 import Algebra3, IsotopyClass, commutative_isotope, left_division_tables
from ..gf import Field
from ..linalg import Subspace, rref_rows
from .spaces import (
    DEGENERATE,
    NONDEGENERATE,
    ZERO,
    PairVector,
    classify,
    pair_rows,
)

CHUNK = 512

DIM_KEYS = ("dim3", "dim2", "dim1", "dim0_nondegenerate", "dim0_degenerate")


@dataclass
class SpaceRec:
    rows: tuple
    pivots: tuple
    kind: str
    fiber: int
    rep: tuple
    first_index: int
    plane: tuple | None = None  # RREF of <x', y'> for nondegenerate spaces


@dataclass
class AvInventory:
    alg: Algebra3
    spaces: list[SpaceRec]
    # space_of[i]: position in `spaces` of Av' for the v' of index i (-1 for v' = 0)
    space_of: array = dc_field(repr=False, compare=False)
    # left multiplication and division on F^3 indices (algebra3.left_division_tables)
    mul: array = dc_field(repr=False, compare=False)
    ldiv: array = dc_field(repr=False, compare=False)
    # kind -> (vectors, spaces) of that kind
    totals: dict = dc_field(repr=False, compare=False)

    @property
    def field(self) -> Field:
        return self.alg.field

    def by_kind(self, kind: str) -> list[SpaceRec]:
        return [r for r in self.spaces if r.kind == kind]


def decode_vector(q: int, idx: int) -> tuple:
    coords = []
    for _ in range(6):
        coords.append(idx % q)
        idx //= q
    return tuple(coords)


def _scan_range(alg: Algebra3, start: int, end: int) -> tuple[list, array]:
    """Partial inventory over v' indices [start, end): the distinct spaces in
    order of first index, and each index's position in that list (-1 for v' = 0)."""
    fld = alg.field
    q = fld.order
    found: dict = {}
    local = array("i", [-1] * (start == 0))
    for idx in range(max(start, 1), end):
        coords = decode_vector(q, idx)
        x, y = coords[:3], coords[3:]
        rows, pivots = rref_rows(fld, pair_rows(alg, x, y))
        rec = found.get(rows)
        if rec is None:
            stack, _ = rref_rows(fld, (x, y))
            kind = NONDEGENERATE if len(stack) == 2 else DEGENERATE
            rec = found[rows] = [rows, pivots, kind, 0, coords, idx, len(found)]
        rec[3] += 1
        local.append(rec[6])
    return [rec[:6] for rec in found.values()], local


def index_chunks(total: int) -> list[tuple[int, int]]:
    """The [start, end) ranges of CHUNK indices that cover range(total)."""
    return [(s, min(s + CHUNK, total)) for s in range(0, total, CHUNK)]


def pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: at most one per chunk and one per CPU."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, n_chunks, os.cpu_count() or 1))


_WORKER: tuple = ()  # (fn, init), set in each pool process by _worker_init


def _worker_init(fn, init: tuple) -> None:
    global _WORKER
    _WORKER = (fn, init)


def _worker_call(chunk: tuple) -> object:
    fn, init = _WORKER
    return fn(*init, *chunk)


def parallel_map(fn, chunks: list, workers: int, init: tuple) -> list:
    """[fn(*init, start, end) for (start, end) in chunks], in chunk order.

    Runs in a pool of `pool_size` processes when that is more than one; each
    process receives `fn` and `init` once, through the pool initializer.
    """
    n = pool_size(workers, len(chunks))
    if n == 1:
        return [fn(*init, *chunk) for chunk in chunks]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with multiprocessing.get_context(method).Pool(
            n, initializer=_worker_init, initargs=(fn, init)) as pool:
        return pool.map(_worker_call, chunks)


def build_inventory(alg: Algebra3, workers: int = 1) -> AvInventory:
    partials = parallel_map(_scan_range, index_chunks(alg.field.order**6), workers, (alg,))
    merged: dict = {}
    for found, _ in partials:
        for rows, pivots, kind, fiber, rep, first in found:
            rec = merged.get(rows)
            if rec is None:
                merged[rows] = [rows, pivots, kind, fiber, rep, first]
            else:
                rec[3] += fiber
                if first < rec[5]:
                    rec[4], rec[5] = rep, first
    fld = alg.field
    spaces = []
    position = {}
    totals = {NONDEGENERATE: [0, 0], DEGENERATE: [0, 0]}
    for rows, pivots, kind, fiber, rep, first in sorted(merged.values(), key=lambda r: r[5]):
        plane = None
        if kind == NONDEGENERATE:
            plane = rref_rows(fld, (tuple(rep[:3]), tuple(rep[3:])))[0]
        position[rows] = len(spaces)
        spaces.append(SpaceRec(tuple(rows), tuple(pivots), kind, fiber, tuple(rep), first, plane))
        totals[kind][0] += fiber
        totals[kind][1] += 1
    space_of = array("i")
    for found, local in partials:
        ids = [position[rec[0]] for rec in found] + [-1]  # a local -1 maps to ids[-1]
        space_of.extend(ids[i] for i in local)
    mul, ldiv = left_division_tables(alg)
    return AvInventory(alg, spaces, space_of, mul, ldiv,
                       {kind: tuple(t) for kind, t in totals.items()})


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def predicted_profile(q: int, cls: IsotopyClass | None, v_kind: str):
    """(vector counts, space counts) predicted for a fixed v of the given kind."""
    if v_kind == DEGENERATE:
        vectors = {
            "dim3": q**3 - 1,
            "dim2": 0,
            "dim1": 0,
            "dim0_nondegenerate": (q**3 - 1) * (q**3 - q),
            "dim0_degenerate": (q**3 - 1) * q,
        }
        spaces = {
            "dim3": 1,
            "dim2": 0,
            "dim1": 0,
            "dim0_nondegenerate": q * (q + 1) * (q**3 - 1),
            "dim0_degenerate": q,
        }
        return vectors, spaces
    if cls is None:
        return None, None
    if cls is IsotopyClass.COMMUTATIVE_ISOTOPIC:
        vectors = {
            "dim3": q - 1,
            "dim2": q**3 - q,
            "dim1": q**3 * (q**2 - 1),
            "dim0_nondegenerate": (q - 1) * (q**5 - q**3 - 2 * q**2 - 2 * q - 1),
            "dim0_degenerate": (q**3 - 1) * (q + 1),
        }
        spaces = {
            "dim3": 1,
            "dim2": q**2 + q,
            "dim1": q**3 * (q + 1),
            "dim0_nondegenerate": q**5 - q**3 - 2 * q**2 - 2 * q - 1,
            "dim0_degenerate": q + 1,
        }
    else:
        vectors = {
            "dim3": q - 1,
            "dim2": 0,
            "dim1": q * (q + 1) * (q**3 - 1),
            "dim0_nondegenerate": (q - 1) * (q**5 - 2 * q**3 - 3 * q**2 - 2 * q - 1),
            "dim0_degenerate": (q**3 - 1) * (q + 1),
        }
        spaces = {
            "dim3": 1,
            "dim2": 0,
            "dim1": q * (q + 1) * (q**2 + q + 1),
            "dim0_nondegenerate": q**5 - 2 * q**3 - 3 * q**2 - 2 * q - 1,
            "dim0_degenerate": q + 1,
        }
    return vectors, spaces


def predicted_complementary_spaces(q: int, cls: IsotopyClass | None, v_kind: str) -> int | None:
    if v_kind == DEGENERATE:
        return q**2 * (q**3 + q**2 - 1)
    if cls is IsotopyClass.COMMUTATIVE_ISOTOPIC:
        return q**5 - q**3 - 2 * q**2 - q
    if cls is IsotopyClass.NON_COMMUTATIVE:
        return q**5 - 2 * q**3 - 3 * q**2 - q
    return None


def predicted_global_counts(q: int) -> dict:
    return {
        "nondegenerate_vectors": (q**3 - 1) * (q**3 - q),
        "degenerate_nonzero_vectors": (q**3 - 1) * (q + 1),
        "nondegenerate_spaces": (q**3 - 1) * (q + 1) * q,
        "degenerate_spaces": q + 1,
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CensusReport:
    parameters: dict
    observed: dict
    predicted: dict | None
    match: bool | None
    witnesses: list = dc_field(default_factory=list)
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "parameters": self.parameters,
            "observed": self.observed,
            "predicted": self.predicted,
            "match": self.match,
            "witnesses": self.witnesses,
            "runtime_ms": round(self.runtime_ms, 3),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CensusReport":
        return cls(
            parameters=payload["parameters"],
            observed=payload["observed"],
            predicted=payload["predicted"],
            match=payload["match"],
            witnesses=payload["witnesses"],
            runtime_ms=payload.get("runtime_ms", 0.0),
        )

    def csv_rows(self) -> list[dict]:
        rows = []
        obs_v = self.observed["vectors"]
        obs_s = self.observed["spaces"]
        pred_v = (self.predicted or {}).get("vectors", {})
        pred_s = (self.predicted or {}).get("spaces", {})
        for key in DIM_KEYS:
            dim = key.removeprefix("dim")
            pv, ps = pred_v.get(key), pred_s.get(key)
            ok = "" if pv is None else str(obs_v[key] == pv and obs_s[key] == ps).lower()
            rows.append({
                "dim": dim,
                "observed_vectors": obs_v[key],
                "predicted_vectors": "" if pv is None else pv,
                "observed_spaces": obs_s[key],
                "predicted_spaces": "" if ps is None else ps,
                "match": ok,
            })
        rows.append({
            "dim": "0_zero_vector",
            "observed_vectors": obs_v["zero_vector"],
            "predicted_vectors": 1,
            "observed_spaces": 0,
            "predicted_spaces": 0,
            "match": "true",
        })
        return rows


# ---------------------------------------------------------------------------
# the census kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _points(q: int) -> tuple[int, ...]:
    """Indices of the q^2+q+1 vectors of F^3 whose first nonzero coordinate is 1."""
    return tuple(i for i in range(1, q**3) if next(c for c in decode_vector(q, i) if c) == 1)


def _unit_row(fld: Field, row: tuple) -> tuple:
    """`row` scaled so that its first nonzero entry is 1: the RREF basis of its line."""
    k = fld.inv(next(c for c in row if c))
    return row if k == 1 else tuple(fld.mul(k, c) for c in row)


@dataclass
class Meet:
    """What the kernel reads off for one base vector v."""

    gens: list  # (a x, a y) as F^3 indices, one generator a v per line of Av
    reached: list  # reached[g]: the F^6 indices of L_{a'}^-1 gens[g], a' != 0
    mult: Counter  # F^6 index of v' -> times reached, (q^d - 1)/(q - 1)
    vectors: dict  # DIM_KEYS -> vectors v'
    spaces: dict  # DIM_KEYS -> distinct spaces Av'
    hits: list  # (d, rec) for each space Av' with d in (1, 2)


def _meet(inventory: AvInventory, v: PairVector) -> Meet:
    """dim(Av meet Av') for every v', by (q^2+q+1)(q^3-1) table lookups (module docstring)."""
    q = inventory.field.order
    n = q**3
    mul, ldiv, space_of = inventory.mul, inventory.ldiv, inventory.space_of
    ix, iy = (w[0] + q * w[1] + q * q * w[2] for w in (v.x, v.y))
    gens = [(mul[a * n + ix], mul[a * n + iy]) for a in _points(q)]
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
    hits = []
    for pos, (d, count) in met.items():
        rec = inventory.spaces[pos]
        if count != rec.fiber:
            raise RuntimeError(f"space {pos} met on {count} of its {rec.fiber} vectors")
        vectors[f"dim{d}"] += count
        spaces[f"dim{d}"] += 1
        vectors["dim0_" + rec.kind] -= count
        spaces["dim0_" + rec.kind] -= 1
        if d < 3:
            hits.append((d, rec))
    return Meet(gens, reached, mult, vectors, spaces, hits)


def _lines(plane_alg: Algebra3, v: PairVector, meet: Meet) -> dict[tuple, tuple[int, bool]]:
    """{line: (v' count, in base plane)} over the lines Av meet Av' of the dim-1 v'.

    A v' reached once meets Av in the line of the generator that reached it.
    The base plane is <x,y>v with products taken in `plane_alg`; its q+1 lines
    are spanned by b v for b = y and b = x + k y.
    """
    fld = plane_alg.field
    q = fld.order
    plane = set()
    for b in [v.y] + [tuple(fld.add(c, fld.mul(k, d)) for c, d in zip(v.x, v.y))
                      for k in range(q)]:
        plane.add(_unit_row(fld, plane_alg.mulvec(b, v.x) + plane_alg.mulvec(b, v.y)))
    out = {}
    for (w1, w2), vs in zip(meet.gens, meet.reached):
        n = list(map(meet.mult.__getitem__, vs)).count(1)
        if n:
            row = _unit_row(fld, decode_vector(q, w1 + q**3 * w2))
            out[(row,)] = (n, row in plane)
    return out


def _group_lines(lines: dict) -> dict:
    grouped: dict = {"in_base_plane": {}, "outside_base_plane": {}}
    for n, in_plane in lines.values():
        bucket = grouped["in_base_plane" if in_plane else "outside_base_plane"]
        bucket[str(n)] = bucket.get(str(n), 0) + 1
    return grouped


def per_vector_profile(alg: Algebra3, v: PairVector, *, inventory: AvInventory | None = None,
                       algebra_class: IsotopyClass | None = None,
                       workers: int = 1) -> CensusReport:
    """Tally dim(Av meet Av') over all q^6 vectors v', with closed-form predictions."""
    t0 = time.perf_counter()
    fld = alg.field
    kind = classify(fld, v)
    if kind == ZERO:
        raise ValueError("census base vector must be nonzero")
    if inventory is None:
        inventory = build_inventory(alg, workers=workers)
    meet = _meet(inventory, v)
    vectors = {**meet.vectors, "zero_vector": 1}
    pred_v, pred_s = predicted_profile(fld.order, algebra_class, kind)
    predicted = None
    match = None
    if pred_v is not None:
        predicted = {"vectors": {**pred_v, "zero_vector": 1}, "spaces": pred_s}
        match = predicted["vectors"] == vectors and pred_s == meet.spaces
    base_rows, _ = rref_rows(fld, pair_rows(alg, v.x, v.y))
    return CensusReport(
        parameters={"q": fld.order, "v": v.to_json(), "v_kind": kind,
                    "Av": Subspace(fld, 6, base_rows).to_json(),
                    "algebra_class": algebra_class.value if algebra_class else None},
        observed={"vectors": vectors, "spaces": meet.spaces},
        predicted=predicted,
        match=match,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def complementary_space_count(alg: Algebra3, v: PairVector, *,
                              inventory: AvInventory | None = None) -> int:
    """Number of distinct Av' (v' nonzero) meeting Av trivially."""
    fld = alg.field
    if classify(fld, v) == ZERO:
        raise ValueError("base vector must be nonzero")
    if inventory is None:
        inventory = build_inventory(alg)
    spaces = _meet(inventory, v).spaces
    return spaces["dim0_nondegenerate"] + spaces["dim0_degenerate"]


def plane_algebra(alg: Algebra3) -> Algebra3:
    """The algebra whose plane <x,y>v is the distinguished one in Av.

    That is the commutative isotope of `alg` when it has one (it has the same
    spaces Av), else `alg` itself.  For a twisted field with c != -1 in the
    commutative-isotopic class, <x,y>v taken in A_c is not that plane.
    """
    return commutative_isotope(alg) or alg


def predicted_line_profile(q: int, algebra_class: IsotopyClass | None) -> dict | None:
    if algebra_class is IsotopyClass.COMMUTATIVE_ISOTOPIC:
        return {
            "in_base_plane": {str(q**3 - q**2): q + 1},
            "outside_base_plane": {str((q**2 - 1) * (q - 1)): q**2},
        }
    if algebra_class is IsotopyClass.NON_COMMUTATIVE:
        return {
            "in_base_plane": {str(q**3 - q): q + 1},
            "outside_base_plane": {str(q**3 - q): q**2},
        }
    return None


def line_profile(alg: Algebra3, v: PairVector, *, inventory: AvInventory | None = None,
                 algebra_class: IsotopyClass | None = None) -> CensusReport:
    """For each line L inside Av: how many v' have Av meet Av' = L exactly."""
    t0 = time.perf_counter()
    fld = alg.field
    q = fld.order
    if classify(fld, v) != NONDEGENERATE:
        raise ValueError("line profile needs a nondegenerate base vector")
    if inventory is None:
        inventory = build_inventory(alg)
    lines = _lines(plane_algebra(alg), v, _meet(inventory, v))
    grouped = _group_lines(lines)
    detail = [{"line": Subspace(fld, 6, line).to_json(), "vectors": n, "in_base_plane": in_plane}
              for line, (n, in_plane) in sorted(lines.items())]
    base_rows, _ = rref_rows(fld, pair_rows(alg, v.x, v.y))
    predicted = predicted_line_profile(q, algebra_class)
    return CensusReport(
        parameters={"q": q, "v": v.to_json(), "v_kind": NONDEGENERATE,
                    "Av": Subspace(fld, 6, base_rows).to_json(),
                    "algebra_class": algebra_class.value if algebra_class else None,
                    "granularity": "lines"},
        observed=grouped,
        predicted=predicted,
        match=None if predicted is None else predicted == grouped,
        witnesses=detail,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def global_counts(alg: Algebra3, *, inventory: AvInventory | None = None,
                  workers: int = 1) -> CensusReport:
    """Vector and distinct-space counts by degeneracy class over all of F^6."""
    t0 = time.perf_counter()
    q = alg.field.order
    if inventory is None:
        inventory = build_inventory(alg, workers=workers)
    observed = {
        "nondegenerate_vectors": inventory.totals[NONDEGENERATE][0],
        "degenerate_nonzero_vectors": inventory.totals[DEGENERATE][0],
        "nondegenerate_spaces": inventory.totals[NONDEGENERATE][1],
        "degenerate_spaces": inventory.totals[DEGENERATE][1],
    }
    predicted = predicted_global_counts(q)
    return CensusReport(
        parameters={"q": q, "granularity": "global"},
        observed=observed,
        predicted=predicted,
        match=observed == predicted,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


# ---------------------------------------------------------------------------
# exhaustive sweep over every nondegenerate v
# ---------------------------------------------------------------------------


def span_frame(fld: Field, v: PairVector) -> tuple:
    """The RREF of <x,y> and the sets F*x and F*y: what `hit_span_conditions` compares."""
    plane, _ = rref_rows(fld, (v.x, v.y))
    fx, fy = ({tuple(fld.mul(k, c) for c in w) for k in range(fld.order)} for w in (v.x, v.y))
    return plane, fx, fy


def hit_span_conditions(frame: tuple, rec: SpaceRec) -> bool:
    """A hit with dim(Av meet Av') in {1, 2}, v nondegenerate, forces v' nondegenerate,
    <x',y'> != <x,y>, x' not in F*x and y' not in F*y (`frame` = span_frame(fld, v))."""
    plane, fx, fy = frame
    return (rec.kind == NONDEGENERATE and rec.plane != plane
            and rec.rep[:3] not in fx and rec.rep[3:] not in fy)


def _scan_vectors(alg: Algebra3, inventory: AvInventory, cls: IsotopyClass,
                  plane_alg: Algebra3 | None, start: int, end: int) -> tuple:
    """Check every nondegenerate v in [start, end); lines too unless `plane_alg` is None.

    Each mismatch names the checks it failed (tally, complement, span, lines)
    and carries the observed tallies and line profile.
    """
    fld = alg.field
    q = fld.order
    pred_v, pred_s = predicted_profile(q, cls, NONDEGENERATE)
    pred_comp = predicted_complementary_spaces(q, cls, NONDEGENERATE)
    pred_lines = predicted_line_profile(q, cls)
    checked = 0
    mismatches = []
    for idx in range(max(start, 1), end):
        coords = decode_vector(q, idx)
        v = PairVector(coords[:3], coords[3:])
        frame = span_frame(fld, v)
        if len(frame[0]) != 2:
            continue
        meet = _meet(inventory, v)
        observed = {"vectors": meet.vectors, "spaces": meet.spaces}
        failed = []
        if meet.vectors != pred_v or meet.spaces != pred_s:
            failed.append("tally")
        if meet.spaces["dim0_nondegenerate"] + meet.spaces["dim0_degenerate"] != pred_comp:
            failed.append("complement")
        if not all(hit_span_conditions(frame, rec) for _, rec in meet.hits):
            failed.append("span")
        if plane_alg is not None:
            observed["lines"] = _group_lines(_lines(plane_alg, v, meet))
            if observed["lines"] != pred_lines:
                failed.append("lines")
        checked += 1
        if failed:
            mismatches.append({"v": v.to_json(), "failed": failed, "observed": observed})
    return checked, mismatches


def scan_all_nondegenerate(alg: Algebra3, *, algebra_class: IsotopyClass,
                           with_lines: bool = True, workers: int = 1) -> CensusReport:
    """Check the per-vector (and optionally per-line) profile for every nondegenerate v."""
    t0 = time.perf_counter()
    fld = alg.field
    q = fld.order
    inventory = build_inventory(alg, workers=workers)
    plane_alg = plane_algebra(alg) if with_lines else None
    results = parallel_map(_scan_vectors, index_chunks(q**6), workers,
                           (alg, inventory, algebra_class, plane_alg))
    checked = sum(r[0] for r in results)
    mismatches = [m for r in results for m in r[1]]
    expected_v, expected_s = predicted_profile(q, algebra_class, NONDEGENERATE)
    return CensusReport(
        parameters={"q": q, "granularity": "all-nondegenerate",
                    "algebra_class": algebra_class.value, "with_lines": with_lines},
        observed={"vectors_checked": checked, "mismatches": len(mismatches)},
        predicted={"vectors_checked": (q**3 - 1) * (q**3 - q), "mismatches": 0,
                   "per_vector": {"vectors": expected_v, "spaces": expected_s}},
        match=(checked == (q**3 - 1) * (q**3 - q) and not mismatches),
        witnesses=mismatches[:5],
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )

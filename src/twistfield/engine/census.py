"""Censuses of dim(Av meet Av') over all v' in F^6, with closed-form predictions.

The sweep over v' happens once per algebra: every nonzero v' is classified and
its space Av' reduced to a canonical RREF key, producing an inventory of
distinct spaces with fiber sizes.  Intersection dimension depends only on the
pair of spaces, so per-vector tallies are exact fiber-weighted space tallies.
The v' range is partitioned into fixed-size index chunks (`index_chunks`) that
`parallel_map` runs serially or in a pool; worker count only affects
scheduling, never chunk boundaries, so merged reports are byte-reproducible for
any --workers value.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field as dc_field

from ..algebra3 import Algebra3, IsotopyClass, commutative_isotope
from ..gf import Field
from ..linalg import Subspace, added_rank, intersect_rows, rref_rows
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


def _scan_range(alg: Algebra3, start: int, end: int) -> list:
    """Partial inventory over v' indices [start, end)."""
    fld = alg.field
    q = fld.order
    found: dict = {}
    for idx in range(max(start, 1), end):
        coords = decode_vector(q, idx)
        x, y = coords[:3], coords[3:]
        rows, pivots = rref_rows(fld, pair_rows(alg, x, y))
        rec = found.get(rows)
        if rec is None:
            stack, _ = rref_rows(fld, (x, y))
            kind = NONDEGENERATE if len(stack) == 2 else DEGENERATE
            found[rows] = [rows, pivots, kind, 1, coords, idx]
        else:
            rec[3] += 1
    return list(found.values())


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
    for partial in partials:
        for rows, pivots, kind, fiber, rep, first in partial:
            key = tuple(rows)
            rec = merged.get(key)
            if rec is None:
                merged[key] = [rows, pivots, kind, fiber, rep, first]
            else:
                rec[3] += fiber
                if first < rec[5]:
                    rec[4], rec[5] = rep, first
    fld = alg.field
    spaces = []
    for rows, pivots, kind, fiber, rep, first in sorted(merged.values(), key=lambda r: r[5]):
        plane = None
        if kind == NONDEGENERATE:
            plane = rref_rows(fld, (tuple(rep[:3]), tuple(rep[3:])))[0]
        spaces.append(SpaceRec(tuple(rows), tuple(pivots), kind, fiber, tuple(rep), first, plane))
    return AvInventory(alg, spaces)


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


def _profile_counts(alg: Algebra3, v: PairVector, inventory: AvInventory):
    fld = alg.field
    base_rows, base_pivots = rref_rows(fld, pair_rows(alg, v.x, v.y))
    if len(base_rows) != 3:
        raise RuntimeError("Av has dimension != 3; not a division algebra or v = 0")
    vectors = dict.fromkeys(DIM_KEYS, 0)
    spaces = dict.fromkeys(DIM_KEYS, 0)
    hits = []
    for rec in inventory.spaces:
        d = 3 - added_rank(fld, base_rows, base_pivots, rec.rows)
        if d == 0:
            key = "dim0_" + rec.kind
        else:
            key = f"dim{d}"
        vectors[key] += rec.fiber
        spaces[key] += 1
        if d in (1, 2):
            hits.append((d, rec))
    return base_rows, base_pivots, vectors, spaces, hits


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
    base_rows, _, vectors, spaces, _ = _profile_counts(alg, v, inventory)
    vectors["zero_vector"] = 1
    pred_v, pred_s = predicted_profile(fld.order, algebra_class, kind)
    predicted = None
    match = None
    if pred_v is not None:
        predicted = {"vectors": {**pred_v, "zero_vector": 1}, "spaces": pred_s}
        match = predicted["vectors"] == vectors and pred_s == spaces
    return CensusReport(
        parameters={"q": fld.order, "v": v.to_json(), "v_kind": kind,
                    "Av": Subspace(fld, 6, base_rows).to_json(),
                    "algebra_class": algebra_class.value if algebra_class else None},
        observed={"vectors": vectors, "spaces": spaces},
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
    _, _, _, spaces, _ = _profile_counts(alg, v, inventory)
    return spaces["dim0_nondegenerate"] + spaces["dim0_degenerate"]


def base_plane_rows(alg: Algebra3, v: PairVector):
    """RREF rows of the plane {a v : a in <x, y>} inside Av, products taken in `alg`."""
    rows = (
        tuple(alg.mulvec(v.x, v.x)) + tuple(alg.mulvec(v.x, v.y)),
        tuple(alg.mulvec(v.y, v.x)) + tuple(alg.mulvec(v.y, v.y)),
    )
    out, pivots = rref_rows(alg.field, rows)
    return out, pivots


def plane_algebra(alg: Algebra3) -> Algebra3:
    """The algebra whose plane <x,y>v is the distinguished one in Av.

    That is the commutative isotope of `alg` when it has one (it has the same
    spaces Av), else `alg` itself.  For a twisted field with c != -1 in the
    commutative-isotopic class, <x,y>v taken in A_c is not that plane.
    """
    return commutative_isotope(alg) or alg


def _line_counts(plane_alg: Algebra3, v: PairVector, base_rows, base_pivots, hits):
    """Group the dim-1 hit lines by membership in the base plane <x,y>v of `plane_alg`."""
    fld = plane_alg.field
    mv_rows, mv_pivots = base_plane_rows(plane_alg, v)
    counts: dict[tuple, int] = {}
    in_plane: dict[tuple, bool] = {}
    for d, rec in hits:
        if d != 1:
            continue
        line = intersect_rows(fld, base_rows, base_pivots, rec.rows)
        counts[line] = counts.get(line, 0) + rec.fiber
        if line not in in_plane:
            in_plane[line] = added_rank(fld, mv_rows, mv_pivots, line) == 0
    grouped: dict = {"in_base_plane": {}, "outside_base_plane": {}}
    for line, n in counts.items():
        bucket = grouped["in_base_plane" if in_plane[line] else "outside_base_plane"]
        bucket[str(n)] = bucket.get(str(n), 0) + 1
    detail = [
        {"line": Subspace(fld, 6, line).to_json(), "vectors": n,
         "in_base_plane": in_plane[line]}
        for line, n in sorted(counts.items())
    ]
    return grouped, detail


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
    base_rows, base_pivots, _, _, hits = _profile_counts(alg, v, inventory)
    grouped, detail = _line_counts(plane_algebra(alg), v, base_rows, base_pivots, hits)
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
        "nondegenerate_vectors": sum(r.fiber for r in inventory.spaces if r.kind == NONDEGENERATE),
        "degenerate_nonzero_vectors": sum(r.fiber for r in inventory.spaces if r.kind == DEGENERATE),
        "nondegenerate_spaces": sum(1 for r in inventory.spaces if r.kind == NONDEGENERATE),
        "degenerate_spaces": sum(1 for r in inventory.spaces if r.kind == DEGENERATE),
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


def hit_span_conditions(alg: Algebra3, v: PairVector, rec: SpaceRec) -> bool:
    """A hit with dim(Av meet Av') in {1, 2} forces x', y' nondegenerate,
    <x,x'> and <y,y'> two-dimensional, and <x',y'> != <x,y>."""
    fld = alg.field
    if rec.kind != NONDEGENERATE:
        return False
    v_plane = rref_rows(fld, (v.x, v.y))[0]
    if rec.plane == v_plane:
        return False
    x2, y2 = rec.rep[:3], rec.rep[3:]
    if len(rref_rows(fld, (v.x, x2))[0]) != 2:
        return False
    if len(rref_rows(fld, (v.y, y2))[0]) != 2:
        return False
    return True


def _scan_vectors(alg: Algebra3, inventory: AvInventory, cls: IsotopyClass,
                  plane_alg: Algebra3 | None, start: int, end: int) -> tuple:
    """Check every nondegenerate v in [start, end); lines too unless `plane_alg` is None."""
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
        if classify(fld, v) != NONDEGENERATE:
            continue
        base_rows, base_pivots, vectors, spaces, hits = _profile_counts(alg, v, inventory)
        ok = vectors == pred_v and spaces == pred_s
        comp = spaces["dim0_nondegenerate"] + spaces["dim0_degenerate"]
        ok = ok and comp == pred_comp
        ok = ok and all(hit_span_conditions(alg, v, rec) for _, rec in hits)
        if plane_alg is not None:
            grouped, _ = _line_counts(plane_alg, v, base_rows, base_pivots, hits)
            ok = ok and grouped == pred_lines
        checked += 1
        if not ok:
            mismatches.append({"v": v.to_json(),
                               "observed": {"vectors": vectors, "spaces": spaces}})
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

"""Censuses of dim(Av meet Av') over all v' in F^6, with closed-form predictions.

The sweep over v' happens once per algebra and makes no rank test.  A is a
division algebra, so for x' != 0 Av' is the graph {(w, T w)} of
T = R_{y'} R_{x'}^-1, with RREF rows (e_j | a_j y') where a_j x' = e_j; for
x' = 0 it is 0 + A.  One serial pass reads each a_j(x') off the left
multiplication table (RuntimeError if some e_j is missing) and keys each v'
by one int, k_0 + n k_1 + n^2 k_2 with k_j the index of a_j y' and n = q^3,
or -1 when x' = 0 (vectors of F^3 and F^6 are handled as indices, see the
`linalg` module docstring).  The inventory is columns: arrays of the key,
fiber size, least index and kind of each distinct space in order of least
index, the position of each v' in that order (`space_of`), and the left
multiplication and division tables of A.  A `SpaceRec` is built only when a
report or witness reads `spaces`.  The census reports and the Theorem A and B
verifiers all read this one sweep: A checks the fiber column against
`space_of`, B runs the kernel below on the one certified representative.

The census kernel (`meet_all`) makes no rank test.  A is a division algebra, so
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

`census --scan-all` and Theorem B check one v and cover all (q^3-1)(q^3-q)
nondegenerate ones by symmetry (`certified_orbit`).  For beta in K^x,
mu(beta a, beta x) = beta beta^sigma mu(a, x), so with B, G the F-matrices
of multiplication by beta and gamma = beta beta^sigma, A(Bv) = G(Av); the
commutative isotope that `plane_algebra` may return, x o y = (T x) y with T
in K, inherits this.  A frame change P in GL2(F),
(x, y) -> (p x + r y, s x + u y), gives A(Pv) = P(Av) by bilinearity.  Both
act on v' too, preserving every dim(Av meet Av'), every fiber and kind, the
lines of Av and the base plane, and the span conditions; K^x/F^x is
transitive on the q^2+q+1 planes of F^3 (Singer, Trans. AMS 43, 1938) and
GL2(F) on the ordered bases of each, so the nondegenerate v form one orbit.
The run checks the K^x half (`orbit_certificate`: the identity on the basis
pairs, and a walk of <e_0, e_1> through every plane); the GL2 half is
bilinearity.  The span conditions are stated for p x' + r y' at every point
[p:r] of P^1(F), not for x' and y' alone: x -> x + y mixes the two
coordinates, so the narrower test would hold at v without holding on its
orbit.  A passing tally also shows that each nondegenerate fiber is F^x v',
so a space's least-index vector stands for all of its vectors.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import add, itemgetter

from ..algebra3 import (
    Algebra3,
    IsotopyClass,
    TwistedFieldSpec,
    autotopism_counterexample,
    commutative_isotope,
    isotopy_class,
    left_division_tables,
    mulvec,
    to_structure_constants,
)
from ..gf import Field, FieldTower, format_triple
from ..linalg import (Subspace, cross, decode_vector, f3_vectors, identity_rows, mat_vec,
                      rref_rows, unit_row, vec_index)
from .spaces import (
    DEGENERATE,
    NONDEGENERATE,
    ZERO,
    PairVector,
    av_subspace,
    classify,
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


KINDS = (NONDEGENERATE, DEGENERATE)  # the values of the `kind` column
UNIT = identity_rows(3)
REPRESENTATIVE = PairVector(UNIT[0], UNIT[1])  # the v of certified_orbit, where its walk starts


class SpaceRecords(Sequence):
    """`AvInventory.spaces`: one SpaceRec per space, built from the columns when read."""

    def __init__(self, inventory: "AvInventory"):
        self.inventory = inventory

    def __len__(self) -> int:
        return len(self.inventory.key)

    def __getitem__(self, pos: int) -> SpaceRec:
        inv = self.inventory
        n = inv.field.order**3
        key, vecs = inv.key[pos], f3_vectors(inv.field.order)
        if key < 0:  # Av' = 0 + A
            rows, pivots = tuple((0, 0, 0) + e for e in UNIT), (3, 4, 5)
        else:
            rows, pivots = tuple(e + vecs[key // n**j % n] for j, e in enumerate(UNIT)), (0, 1, 2)
        return SpaceRec(rows, pivots, KINDS[inv.kind[pos]], inv.fiber[pos], inv.rep(pos),
                        inv.first[pos])


@dataclass
class AvInventory:
    alg: Algebra3
    # one entry per space, in order of least index: the key k_0 + n k_1 + n^2 k_2
    # (-1 for 0 + A), the fiber size, the least index and the KINDS position
    key: array = dc_field(repr=False)
    fiber: array = dc_field(repr=False)
    first: array = dc_field(repr=False)
    kind: array = dc_field(repr=False)
    # space_of[i]: position of Av' for the v' of index i (-1 for v' = 0)
    space_of: array = dc_field(repr=False, compare=False)
    # left multiplication and division on F^3 indices (algebra3.left_division_tables)
    mul: array = dc_field(repr=False, compare=False)
    ldiv: array = dc_field(repr=False, compare=False)
    # kind -> (vectors, spaces) of that kind
    totals: dict = dc_field(repr=False, compare=False)

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def spaces(self) -> SpaceRecords:
        return SpaceRecords(self)

    def rep(self, pos: int) -> tuple:
        """The least-index vector v' of space `pos`, as the coordinates (x', y')."""
        q = self.field.order
        y, x = divmod(self.first[pos], q**3)
        return f3_vectors(q)[x] + f3_vectors(q)[y]


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
    import multiprocessing  # only the pool path needs it, so start-up does not load it

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with multiprocessing.get_context(method).Pool(
            n, initializer=_worker_init, initargs=(fn, init)) as pool:
        return pool.map(_worker_call, chunks)


def build_inventory(alg: Algebra3, workers: int = 1) -> AvInventory:
    """The columns of every distinct Av' (v' != 0), in order of least index, read off `mul`.

    One serial pass keys each v' by one int (module docstring) and records a
    space's least index as it assigns the space an id; the fibers are counted
    off `space_of` once the key dict is gone.  `workers` is checked and
    otherwise unused; it stays for the benchmark's per-layer run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    q = alg.field.order
    n = q**3
    mul, ldiv = left_division_tables(alg)
    vecs = f3_vectors(q)
    e_idx = [vec_index(q, e) for e in UNIT]
    solve = []  # [a_0, a_1, a_2] with a_j x' = e_j, for x' = 1 .. n-1
    for x in range(1, n):
        col = mul[x::n]  # a -> a x'
        if not all(e in col for e in e_idx):
            raise RuntimeError(f"some e_j is not a*x for x = {vecs[x]}: not a division algebra")
        solve.append([col.index(e) for e in e_idx])
    take0, take1, take2 = (itemgetter(*a_j) for a_j in zip(*solve))
    by_n, by_n2 = ([k * n**j for k in range(n)] for j in (1, 2))
    # indices run x' fastest, so a new id is a new least index
    ids: dict[int, int] = {}
    space_of = array("i", [-1])
    first = array("i")
    for y in range(n):
        col = mul[y::n]
        new = len(ids)
        block = [ids.setdefault(-1, len(ids))] if y else []
        block += [ids.setdefault(k, len(ids)) for k in map(
            add, map(add, take0(col), map(by_n.__getitem__, take1(col))),
            map(by_n2.__getitem__, take2(col)))]
        at = 0
        for pos in range(new, len(ids)):
            at = block.index(pos, at)
            first.append(len(space_of) + at)
        space_of.extend(block)
    # v' is degenerate iff x' = 0 or y' = k x', that is T = k I, keyed by the indices of k e_j
    degenerate = {-1} | {sum(vec_index(q, [k * c for c in e]) * n**j for j, e in enumerate(UNIT))
                         for k in range(q)}
    key = array("q", ids)
    del ids
    counts = Counter(space_of)
    fiber = array("i", map(counts.__getitem__, range(len(key))))
    kind = array("b", [k in degenerate for k in key])  # KINDS: 0 nondegenerate, 1 degenerate
    totals = {name: (sum(f for f, k in zip(fiber, kind) if k == i), kind.count(i))
              for i, name in enumerate(KINDS)}
    return AvInventory(alg, key, fiber, first, kind, space_of, mul, ldiv, totals)


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------


def predicted_profile(q: int, cls: IsotopyClass | None, v_kind: str):
    """(vector counts, space counts) for a fixed v of the given kind, in DIM_KEYS order."""
    if v_kind == DEGENERATE:
        vectors = (q**3 - 1, 0, 0, (q**3 - 1) * (q**3 - q), (q**3 - 1) * q)
        spaces = (1, 0, 0, q * (q + 1) * (q**3 - 1), q)
    elif cls is None:
        return None, None
    elif cls is IsotopyClass.COMMUTATIVE_ISOTOPIC:
        vectors = (q - 1, q**3 - q, q**3 * (q**2 - 1),
                   (q - 1) * (q**5 - q**3 - 2 * q**2 - 2 * q - 1), (q**3 - 1) * (q + 1))
        spaces = (1, q**2 + q, q**3 * (q + 1), q**5 - q**3 - 2 * q**2 - 2 * q - 1, q + 1)
    else:
        vectors = (q - 1, 0, q * (q + 1) * (q**3 - 1),
                   (q - 1) * (q**5 - 2 * q**3 - 3 * q**2 - 2 * q - 1), (q**3 - 1) * (q + 1))
        spaces = (1, 0, q * (q + 1) * (q**2 + q + 1), q**5 - 2 * q**3 - 3 * q**2 - 2 * q - 1,
                  q + 1)
    return dict(zip(DIM_KEYS, vectors)), dict(zip(DIM_KEYS, spaces))


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
        return {**vars(self), "runtime_ms": round(self.runtime_ms, 3)}  # in field order

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CensusReport":
        return cls(**payload)

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
    return tuple(i for i, v in enumerate(f3_vectors(q)) if i and next(c for c in v if c) == 1)


@dataclass
class Meet:
    """What the kernel reads off for one base vector v."""

    gens: list  # (a x, a y) as F^3 indices, one generator a v per line of Av
    reached: list  # reached[g]: the F^6 indices of L_{a'}^-1 gens[g], a' != 0
    mult: Counter  # F^6 index of v' -> times reached, (q^d - 1)/(q - 1)
    vectors: dict  # DIM_KEYS -> vectors v'
    spaces: dict  # DIM_KEYS -> distinct spaces Av'
    hits: list  # (d, position in inventory.spaces) for each space Av' with d in (1, 2)


def meet_all(inventory: AvInventory, v: PairVector) -> Meet:
    """dim(Av meet Av') for every v', by (q^2+q+1)(q^3-1) table lookups (module docstring)."""
    q = inventory.field.order
    n = q**3
    mul, ldiv, space_of = inventory.mul, inventory.ldiv, inventory.space_of
    ix, iy = vec_index(q, v.x), vec_index(q, v.y)
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
    return Meet(gens, reached, mult, vectors, spaces, hits)


def _lines(plane_alg: Algebra3, v: PairVector, meet: Meet) -> dict[tuple, tuple[int, bool]]:
    """{line: (v' count, in base plane)} over the lines Av meet Av' of the dim-1 v'.

    A v' reached once meets Av in the line of the generator that reached it.
    The base plane is <x,y>v with products taken in `plane_alg`; its q+1 lines
    are spanned by b v for b = y and b = x + k y.
    """
    fld = plane_alg.field
    q = fld.order
    vecs = f3_vectors(q)
    plane = set()
    for b in [v.y] + [tuple(fld.add(c, fld.mul(k, d)) for c, d in zip(v.x, v.y))
                      for k in range(q)]:
        plane.add(unit_row(fld, mulvec(plane_alg, b, v.x) + mulvec(plane_alg, b, v.y)))
    out = {}
    for (w1, w2), vs in zip(meet.gens, meet.reached):
        n = list(map(meet.mult.__getitem__, vs)).count(1)
        if n:
            row = unit_row(fld, vecs[w1] + vecs[w2])
            out[(row,)] = (n, row in plane)
    return out


def _group_lines(lines: dict) -> dict:
    grouped: dict = {"in_base_plane": {}, "outside_base_plane": {}}
    for n, in_plane in lines.values():
        bucket = grouped["in_base_plane" if in_plane else "outside_base_plane"]
        bucket[str(n)] = bucket.get(str(n), 0) + 1
    return grouped


def per_vector_profile(alg: Algebra3, v: PairVector, *, inventory: AvInventory | None = None,
                       algebra_class: IsotopyClass | None = None) -> CensusReport:
    """Tally dim(Av meet Av') over all q^6 vectors v', with closed-form predictions."""
    t0 = time.perf_counter()
    fld = alg.field
    kind = classify(fld, v)
    if kind == ZERO:
        raise ValueError("census base vector must be nonzero")
    if inventory is None:
        inventory = build_inventory(alg)
    meet = meet_all(inventory, v)
    vectors = {**meet.vectors, "zero_vector": 1}
    pred_v, pred_s = predicted_profile(fld.order, algebra_class, kind)
    predicted = None
    match = None
    if pred_v is not None:
        predicted = {"vectors": {**pred_v, "zero_vector": 1}, "spaces": pred_s}
        match = predicted["vectors"] == vectors and pred_s == meet.spaces
    return CensusReport(
        parameters={"q": fld.order, "v": v.to_json(), "v_kind": kind,
                    "Av": av_subspace(alg, v).to_json(),
                    "algebra_class": algebra_class.value if algebra_class else None},
        observed={"vectors": vectors, "spaces": meet.spaces},
        predicted=predicted,
        match=match,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def complementary_space_count(alg: Algebra3, v: PairVector, *, inventory: AvInventory) -> int:
    """Number of distinct Av' (v' nonzero) meeting Av trivially."""
    if classify(alg.field, v) == ZERO:
        raise ValueError("base vector must be nonzero")
    spaces = meet_all(inventory, v).spaces
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
    lines = _lines(plane_algebra(alg), v, meet_all(inventory, v))
    grouped = _group_lines(lines)
    detail = [{"line": Subspace(fld, 6, line).to_json(), "vectors": n, "in_base_plane": in_plane}
              for line, (n, in_plane) in sorted(lines.items())]
    predicted = predicted_line_profile(q, algebra_class)
    return CensusReport(
        parameters={"q": q, "v": v.to_json(), "v_kind": NONDEGENERATE,
                    "Av": av_subspace(alg, v).to_json(),
                    "algebra_class": algebra_class.value if algebra_class else None,
                    "granularity": "lines"},
        observed=grouped,
        predicted=predicted,
        match=None if predicted is None else predicted == grouped,
        witnesses=detail,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def global_counts(alg: Algebra3, *, inventory: AvInventory) -> CensusReport:
    """Vector and distinct-space counts by degeneracy class over all of F^6."""
    t0 = time.perf_counter()
    q = alg.field.order
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
    """What `hit_span_conditions` compares each hit of a nondegenerate v = (x, y) with:
    F, v, and n = x cross y, the normal of <x,y>."""
    return fld, v, cross(fld, v.x, v.y)


def hit_span_conditions(frame: tuple, rep: tuple) -> bool:
    """A hit with dim(Av meet Av') in {1, 2}, v nondegenerate, forces v' nondegenerate,
    <x',y'> != <x,y>, and p x' + r y' not in F^x (p x + r y) for every point [p:r]
    of P^1(F) (`frame` = span_frame(fld, v), `rep` = (x', y') any vector of the hit).

    The last test ranges over every combination of the coordinates, so the
    conditions hold for (v, v') iff they hold for (Pv, Pv'), P in GL2(F).  With
    a = n.y' and b = n.x', once the planes differ p x' + r y' lies in <x,y> only
    for [p:r] = [a : -b], where w = a x - b y and w' = a x' - b y' are both
    nonzero, and w' is in F^x w iff w cross w' = 0.  So all three conditions are
    w cross w' != 0: a degenerate v' gives w' = 0 (x' = 0, or y' = k x' and so
    a = k b), and <x',y'> = <x,y> gives a = b = 0 and so w = 0.
    """
    fld, v, n = frame
    add, sub, mul = fld.add_t, fld.sub_t, fld.mul_t
    x1, y1 = rep[:3], rep[3:]
    b, a = (add[add[mul[n[0]][c[0]]][mul[n[1]][c[1]]]][mul[n[2]][c[2]]] for c in (x1, y1))
    w, w1 = (tuple(sub[mul[a][s]][mul[b][t]] for s, t in zip(x, y))
             for x, y in ((v.x, v.y), (x1, y1)))
    return any(cross(fld, w, w1))


def _scan_vectors(alg: Algebra3, inventory: AvInventory, cls: IsotopyClass,
                  plane_alg: Algebra3, start: int, end: int) -> tuple:
    """Check every nondegenerate v in [start, end), lines included.

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
        if not any(frame[2]):  # x cross y = 0: v is degenerate
            continue
        meet = meet_all(inventory, v)
        observed = {"vectors": meet.vectors, "spaces": meet.spaces,
                    "lines": _group_lines(_lines(plane_alg, v, meet))}
        failed = []
        if meet.vectors != pred_v or meet.spaces != pred_s:
            failed.append("tally")
        if meet.spaces["dim0_nondegenerate"] + meet.spaces["dim0_degenerate"] != pred_comp:
            failed.append("complement")
        if not all(hit_span_conditions(frame, inventory.rep(pos)) for _, pos in meet.hits):
            failed.append("span")
        if observed["lines"] != pred_lines:
            failed.append("lines")
        checked += 1
        if failed:
            mismatches.append({"v": v.to_json(), "failed": failed, "observed": observed})
    return checked, mismatches


def _scan_report(q: int, cls: IsotopyClass, mode: dict, checked: int, mismatches: list,
                 t0: float) -> CensusReport:
    expected_v, expected_s = predicted_profile(q, cls, NONDEGENERATE)
    return CensusReport(
        parameters={"q": q, "granularity": "all-nondegenerate",
                    "algebra_class": cls.value, "with_lines": True, **mode},
        observed={"vectors_checked": checked, "mismatches": len(mismatches)},
        predicted={"vectors_checked": (q**3 - 1) * (q**3 - q), "mismatches": 0,
                   "per_vector": {"vectors": expected_v, "spaces": expected_s}},
        match=(checked == (q**3 - 1) * (q**3 - q) and not mismatches),
        witnesses=mismatches[:5],
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def scan_all_nondegenerate(alg: Algebra3, *, algebra_class: IsotopyClass,
                           workers: int = 1) -> CensusReport:
    """Check the per-vector and per-line profiles for every nondegenerate v.

    The v range is cut into fixed `index_chunks`, so `workers` never changes the report.
    """
    t0 = time.perf_counter()
    q = alg.field.order
    inventory = build_inventory(alg)
    results = parallel_map(_scan_vectors, index_chunks(q**6), workers,
                           (alg, inventory, algebra_class, plane_algebra(alg)))
    checked = sum(r[0] for r in results)
    mismatches = [m for r in results for m in r[1]]
    return _scan_report(q, algebra_class, {"mode": "exhaustive"}, checked, mismatches, t0)


# ---------------------------------------------------------------------------
# one representative under a checked symmetry
# ---------------------------------------------------------------------------


def singer_element(tower: FieldTower) -> int:
    """The least beta in K whose class generates K^x/F^x: beta^k is in F first at k = q^2+q+1."""
    K, q = tower.ext, tower.q
    for beta in range(q, K.order):
        power, k = beta, 1
        while power >= q:  # F sits at the indices below q
            power, k = K.mul(power, beta), k + 1
        if k == q * q + q + 1:
            return beta
    raise RuntimeError("no element of K generates K^x/F^x; broken tower")


def orbit_certificate(tower: FieldTower, algs: list, beta: int, gamma: int) -> dict:
    """Check the K^x half of the symmetry (module docstring) for beta and gamma = beta beta^sigma.

    B and G are the F-matrices of multiplication in K by beta and gamma on
    (1, t, t^2).  (a) (B e_i)(B e_j) = G (e_i e_j) in each algebra of `algs`, on
    the 9 basis pairs (`autotopism_counterexample`); by bilinearity then
    A(Bv) = G(Av) for every v, and so for every power of B.  (b) The walk of
    <e_0, e_1> under B first returns after q^2+q+1 steps, so it visits every
    plane of F^3 (and B is invertible).
    Raises RuntimeError when either fails; returns the report's "orbit" block.
    """
    K, fld, q = tower.ext, tower.base, tower.q
    basis = (1, q, q * q)
    b_rows, g_rows = (tuple(zip(*(K.coeffs(K.mul(k, t)) for t in basis))) for k in (beta, gamma))
    for alg in algs:
        bad = autotopism_counterexample(alg, alg, b_rows, b_rows, g_rows)
        if bad is not None:
            i, j = bad
            raise RuntimeError(f"(B e_{i})(B e_{j}) != G (e_{i} e_{j}) for beta = "
                               f"{format_triple(tower, beta)}: not an autotopism")
    size = q * q + q + 1
    start, _ = rref_rows(fld, UNIT[:2])
    plane, steps = start, 0
    while steps < size:
        plane, _ = rref_rows(fld, [mat_vec(fld, b_rows, r) for r in plane])
        steps += 1
        if plane == start:
            break
    if plane != start or steps != size:
        walk = f"back after {steps} steps" if plane == start else f"not back after {steps} steps"
        raise RuntimeError(f"<e_0, e_1> is {walk} of beta = {format_triple(tower, beta)}, "
                           f"not after {size}: the planes are not one orbit")
    return {"generator": format_triple(tower, beta), "autotopism_pairs_checked": 9 * len(algs),
            "plane_orbit": steps}


def certified_orbit(spec: TwistedFieldSpec) -> tuple[Algebra3, IsotopyClass, Algebra3, dict]:
    """(algebra, class, `plane_algebra`, report "orbit" block) of `spec`, the symmetry checked.

    `orbit_certificate` checks the K^x half of the action of K^x x GL2(F) on
    A^2 (module docstring) in the algebra and its plane algebra, for
    beta = `singer_element` and gamma = beta beta^sigma; the GL2 half is
    bilinearity.  REPRESENTATIVE then stands for all plane_orbit (q^2-1)(q^2-q)
    nondegenerate v.  RuntimeError when the certificate fails.
    """
    tower = spec.tower
    alg = to_structure_constants(spec)
    plane_alg = plane_algebra(alg)
    beta = singer_element(tower)
    gamma = tower.ext.mul(beta, tower.frob_t[beta])
    orbit = orbit_certificate(tower, [alg] if plane_alg is alg else [alg, plane_alg],
                              beta, gamma)
    return alg, isotopy_class(spec), plane_alg, {**orbit, "vectors_profiled": 1}


def scan_orbit(spec: TwistedFieldSpec, *, workers: int = 1) -> CensusReport:
    """`scan_all_nondegenerate`'s verdict, lines included, from the one representative
    of `certified_orbit`.

    Every check of the scan (tally, complement, span, lines) is invariant under
    the certified action; the span check is, because it tests p x' + r y' at
    every point [p:r] of P^1(F) (module docstring).  So one v decides them all,
    and `vectors_checked` is plane_orbit (q^2-1)(q^2-q).  When the
    representative fails any check, this returns the exhaustive report instead
    (`workers` processes), with its mismatches and witnesses.
    """
    t0 = time.perf_counter()
    alg, cls, plane_alg, orbit = certified_orbit(spec)
    q = alg.field.order
    idx = vec_index(q, REPRESENTATIVE.flat)
    checked, mismatches = _scan_vectors(alg, build_inventory(alg), cls, plane_alg, idx, idx + 1)
    if checked != 1:
        raise RuntimeError(f"the representative {decode_vector(q, idx)} was not profiled")
    if mismatches:
        return scan_all_nondegenerate(alg, algebra_class=cls, workers=workers)
    return _scan_report(q, cls, {"mode": "orbit", "orbit": orbit},
                        orbit["plane_orbit"] * (q * q - 1) * (q * q - q), [], t0)

"""Censuses of dim(Av meet Av') over all v' in F^6, with closed-form predictions.

A is a division algebra, so for x' != 0 Av' is the graph {(w, T w)} of
T = R_{y'} R_{x'}^-1; for x' = 0 it is 0 + A.  Av' is keyed by `algebra3.graph_keys`,
or by -1 when x' = 0 (vectors, maps and keys as in the `linalg` module docstring).

The census kernel (`meet_all`) makes no rank test and keys only the classes
F^x v' it reaches.  Each nonzero w in Av meet Av' is a'v' for exactly one a',
and L_{k a'}^-1 w = k^-1 L_{a'}^-1 w.  So with w over one generator a v of each
of the q^2+q+1 lines of Av and a' over the q^2+q+1 points of P^2(F)
(`linalg.points`), the class of v' = L_{a'}^-1 w is reached exactly
(q^d - 1)/(q - 1) times, d = dim(Av meet Av').  A class stands for its q - 1
vectors under its least index, v' scaled so that its last nonzero coordinate
is 1 (so y' is a point or 0), and is keyed by the key of A(y', x'), Av' with
its halves exchanged.  The reached classes, grouped by key, give each met
space's whole fiber and least index; the dim-0 tallies are the `totals` of each
kind less what was met, and a class reached once lies on the line of the
generator that reached it.  The run checks what the counting rests on, raising
RuntimeError (never a mismatch) when it fails: L_a and R_a are invertible at
the points (`division_tables`), every multiplicity is 1, q+1 or q^2+q+1, no key
is met in two dimensions, and every space met holds its kind's vectors/spaces
ratio of `totals`.

The kernel reads the `division` tables, built once per algebra, and the
`totals` of one of two values.  `division.keys` holds one entry per class
F^x v' with x' != 0, keyed by its space, so the fiber of a space is q - 1 times
the entries of its key; Theorem A and `certified_tables` count fibers so.
`build_inventory` keys all q^6 v' in one pass and counts the totals: its
columns (key, fiber size, least index and kind of each distinct space, in order
of least index, and `space_of`, the position of each v') are what
`global_counts` and the exhaustive references read; a `SpaceRec` is built only
when `spaces` is read.  With the orbit certified (below), every nondegenerate
fiber has the size f of the fiber of A REPRESENTATIVE, so the nondegenerate
totals are ((q^3-1)(q^3-q), (q^3-1)(q^3-q)/f); by division the degenerate
spaces are {(u, k u)} and 0 + A, q + 1 of them with q^3 - 1 vectors each.
`census --v`, `line-census`, `census --scan-all` and Theorem B run on these.

`census --scan-all` and Theorem B check one v and cover all (q^3-1)(q^3-q)
nondegenerate ones by the symmetry that `certified_tables` checks.  For beta in K^x,
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
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from ..algebra3 import (
    Algebra3,
    IsotopyClass,
    TwistedFieldSpec,
    autotopism_counterexample,
    commutative_isotope,
    basis_products,
    graph_keys,
    isotopy_class,
    mulvec,
    point_tables,
    to_structure_constants,
)
from ..gf import Field, FieldTower, format_triple
from ..linalg import (Keyed, Subspace, cross, decode_vector, f3_vectors, identity_rows,
                      image_table, mat_vec, points, rref_rows, scalar_multiples, unit_row,
                      vec_index)
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


SpaceRec = namedtuple("SpaceRec", "rows pivots kind fiber rep first_index")

# The kernel's tables of an algebra on F^3 indices (`division_tables`), with n = q^3,
# P = q^2+q+1 and a the point at position p of `linalg.points`: linv[w * P + p] is
# L_a^-1 w, keys[a][x] the key of A(a, x) (that of R_x R_a^-1), scale[k * n + y] is k y,
# and lead[y] is k n for the k != 0 with k y a point (0 for y = 0).
DivisionTables = namedtuple("DivisionTables", "linv keys scale lead")


KINDS = (NONDEGENERATE, DEGENERATE)  # the values of the `kind` column
UNIT = identity_rows(3)
REPRESENTATIVE = PairVector(UNIT[0], UNIT[1])  # the v of certified_tables, where its walk starts


class SpaceRecords(Sequence):
    """`AvInventory.spaces`: one SpaceRec per space, built from the columns when read."""

    def __init__(self, inventory: "AvInventory"):
        self.inventory = inventory

    def __len__(self) -> int:
        return len(self.inventory.key)

    def __getitem__(self, pos: int) -> SpaceRec:
        inv = self.inventory
        q = inv.alg.field.order
        return SpaceRec(*space_rows(q, inv.key[pos]), KINDS[inv.kind[pos]], inv.fiber[pos],
                        decode_vector(q, inv.first[pos]), inv.first[pos])


def space_rows(q: int, key: int) -> tuple[tuple, tuple]:
    """(RREF rows, pivots) of the space Av' keyed `key` (-1 for 0 + A)."""
    if key < 0:
        return tuple((0, 0, 0) + e for e in UNIT), (3, 4, 5)
    n, vecs = q**3, f3_vectors(q)
    return tuple(e + vecs[key // n**j % n] for j, e in enumerate(UNIT)), (0, 1, 2)


class AvInventory(Keyed, namedtuple("AvInventory",
                                      "alg key fiber first kind space_of division totals mode")):
    # key, fiber, first, kind: one entry per space, in order of least index: the key
    # k_0 + n k_1 + n^2 k_2 (-1 for 0 + A), the fiber size, the least index and the KINDS
    # position; space_of[i]: position of Av' for the v' of index i (-1 for v' = 0);
    # division: the tables the inventory is keyed off, what the kernel reads of the algebra;
    # totals: kind -> (vectors, spaces) of that kind; mode: where `totals` come from, for a
    # report's parameters.  Neither the repr nor equality reads space_of, division or totals.
    __slots__ = ()
    _key = itemgetter(0, 1, 2, 3, 4, 8)

    def __repr__(self) -> str:
        return f"AvInventory(alg={self.alg!r}, mode={self.mode!r})"

    @property
    def spaces(self) -> SpaceRecords:
        return SpaceRecords(self)


class CertifiedTables(namedtuple("CertifiedTables",
                                 "alg cls plane_alg mode division totals covered")):
    """What `meet_all` reads for a spec whose orbit is certified, with its algebra, class
    and `plane_algebra` (`certified_tables`), and `covered`, the plane_orbit (q^2-1)(q^2-q)
    nondegenerate v that REPRESENTATIVE stands for.  `mode` is {"mode": "orbit", "orbit":
    the report block of the certificate}, `division` is division_tables(alg) and `totals`
    are as AvInventory.totals, from the orbit's fiber size; the repr leaves out both."""

    __slots__ = ()

    def __repr__(self) -> str:
        return (f"CertifiedTables(alg={self.alg!r}, cls={self.cls!r}, plane_alg="
                f"{self.plane_alg!r}, mode={self.mode!r}, covered={self.covered!r})")


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


@lru_cache(maxsize=None)
def degenerate_keys(q: int) -> frozenset:
    """The keys of the degenerate spaces: v' is degenerate iff x' = 0 (key -1) or
    y' = k x', that is T = k I, keyed k (1 + q n + q^2 n^2) (`linalg` module docstring)."""
    n = q**3
    return frozenset([-1] + [k * (1 + q * n + q * q * n * n) for k in range(q)])


def build_inventory(alg: Algebra3, workers: int = 1) -> AvInventory:
    """The columns of every distinct Av' (v' != 0), in order of least index, and the
    `division_tables` of `alg`, off which one serial pass keys each v', as
    A(k a, y') = A(a, k^-1 y') for a point a.  It records a space's least index as
    it assigns the space an id; the fibers are counted off `space_of` once the key
    dict is gone.  `workers` is checked and otherwise unused; it stays for the
    benchmark's per-layer run."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    q = alg.field.order
    division = division_tables(alg)
    scale, lead = division.scale, division.lead
    # per x' = k a, the keys of A(a, y) and the offset of k^-1 in scale
    by_x = [(division.keys[scale[lead[x] + x]], lead[x]) for x in range(1, q**3)]
    # indices run x' fastest, so a new id is a new least index
    ids: dict[int, int] = {}
    space_of = array("i", [-1])
    first = array("i")
    for y in range(q**3):
        new = len(ids)
        block = [ids.setdefault(-1, len(ids))] if y else []
        block += [ids.setdefault(keys[scale[k + y]], len(ids)) for keys, k in by_x]
        at = 0
        for pos in range(new, len(ids)):
            at = block.index(pos, at)
            first.append(len(space_of) + at)
        space_of.extend(block)
    key = array("q", ids)
    del ids
    counts = Counter(space_of)
    fiber = array("i", map(counts.__getitem__, range(len(key))))
    degenerate = degenerate_keys(q)
    kind = array("b", [k in degenerate for k in key])  # KINDS: 0 nondegenerate, 1 degenerate
    totals = {name: (sum(f for f, k in zip(fiber, kind) if k == i), kind.count(i))
              for i, name in enumerate(KINDS)}
    return AvInventory(alg, key, fiber, first, kind, space_of, division, totals,
                       {"mode": "exhaustive"})


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


class CensusReport:
    def __init__(self, parameters: dict, observed: dict, predicted: dict | None,
                 match: bool | None, witnesses: list | None = None, runtime_ms: float = 0.0):
        self.parameters = parameters
        self.observed = observed
        self.predicted = predicted
        self.match = match
        self.witnesses = [] if witnesses is None else witnesses
        self.runtime_ms = runtime_ms

    def to_json_dict(self) -> dict:
        return {**vars(self), "runtime_ms": round(self.runtime_ms, 3)}  # in field order

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


# What the kernel reads off for one base vector v: gens, the (a x, a y) as F^3 indices, one
# generator a v per line of Av; reached[g], the array of the classes L_{a'}^-1 gens[g], a' at
# the points; mult, class -> times reached, (q^d - 1)/(q - 1), a class being its least F^6
# index; vectors and spaces, DIM_KEYS -> vectors v' and distinct spaces Av'; hits, the
# (d, least F^6 index of Av') of each space Av' with d in (1, 2).
Meet = namedtuple("Meet", "gens reached mult vectors spaces hits")


def division_tables(alg: Algebra3) -> DivisionTables:
    """The `DivisionTables` of `alg`, about 2 q^5 entries, off `algebra3.point_tables`.
    The certificate is det L_a != 0 and det R_a != 0 at every point a, so at every a != 0
    as det L_{ka} = k^3 det L_a: each table of L_a holds the index 0 once (L_a^-1 is its
    inverse permutation), and `algebra3.graph_keys` checks R_a; RuntimeError otherwise."""
    fld = alg.field
    q = fld.order
    n = q**3
    vecs = f3_vectors(q)
    scale = scalar_multiples(fld)
    lead = array("i", [0] + [n * fld.inv_t[next(c for c in reversed(y) if c)] for y in vecs[1:]])
    tables = point_tables(alg)
    for a, table in tables.items():
        if table.count(0) != 1:
            raise RuntimeError(f"L_a is singular at a = {vecs[a]}: not a division algebra")
    keys = dict(zip(tables, graph_keys(alg, [vecs[a] for a in tables], tables)))
    linv = [array("H", sorted(range(n), key=table.__getitem__)) for table in tables.values()]
    return DivisionTables(array("H", chain.from_iterable(zip(*linv))), keys, scale, lead)


def _reach(alg: Algebra3, division: DivisionTables,
           v: PairVector) -> tuple[list, list, Counter]:
    """(gens, reached, mult) of `Meet` for v: (q^2+q+1)^2 lookups in the `linv` of
    `division`, the `division_tables` of `alg`."""
    linv, _, scale, lead = division
    fld = alg.field
    q = fld.order
    n, size = q**3, q * q + q + 1
    rx, ry = (image_table(fld, basis_products(alg, u)) for u in (v.x, v.y))
    gens = [(rx[a], ry[a]) for a in points(q)]
    reached = []
    mult: Counter = Counter()
    for w1, w2 in gens:
        xs, ys = linv[w1 * size:(w1 + 1) * size], linv[w2 * size:(w2 + 1) * size]
        # y' = 0 for all a' or for none, as w2 = 0 or not; scale by the last nonzero coordinate
        ks = map(lead.__getitem__, ys if w2 else xs)
        classes = array("i", [scale[k + x] + n * scale[k + y] for x, y, k in zip(xs, ys, ks)])
        reached.append(classes)
        mult.update(classes)
    return gens, reached, mult


def meet_all(tables: AvInventory | CertifiedTables, v: PairVector) -> Meet:
    """dim(Av meet Av') for every v', keying only the classes reached (module docstring):
    reads the `division` tables and the `totals` of `tables`."""
    q = tables.alg.field.order
    n = q**3
    keys = tables.division.keys
    gens, reached, mult = _reach(tables.alg, tables.division, v)
    dim_of = {1: 1, q + 1: 2, q * q + q + 1: 3}
    least: dict[int, int] = {}  # key of Av' -> its first class reached, in index order
    more: Counter = Counter()  # key of Av' -> its classes reached after the first
    for ci in sorted(mult):
        m = mult[ci]
        if m not in dim_of:
            raise RuntimeError(f"v' index {ci} reached {m} times, not 1, q+1 or q^2+q+1")
        y, x = divmod(ci, n)
        key = keys[y][x] if y else -1
        first = least.setdefault(key, ci)
        if first != ci:  # one more class of a space met before: its multiplicity must agree
            if mult[first] != m:
                raise RuntimeError(f"space {key} met in dimensions {dim_of[mult[first]]} "
                                   f"and {dim_of[m]}")
            more[key] += 1
    vectors = dict.fromkeys(DIM_KEYS, 0)
    spaces = dict.fromkeys(DIM_KEYS, 0)
    for kind, (n_vectors, n_spaces) in tables.totals.items():
        vectors["dim0_" + kind] = n_vectors
        spaces["dim0_" + kind] = n_spaces
    degenerate = degenerate_keys(q)
    hits = []
    for key, first in least.items():
        d = dim_of[mult[first]]
        count = (q - 1) * (1 + more[key])
        kind = KINDS[key in degenerate]
        n_vectors, n_spaces = tables.totals[kind]
        if count * n_spaces != n_vectors:
            raise RuntimeError(f"space {key} met on {count} vectors, but the {n_spaces} {kind} "
                               f"spaces hold {n_vectors}")
        vectors[f"dim{d}"] += count
        spaces[f"dim{d}"] += 1
        vectors["dim0_" + kind] -= count
        spaces["dim0_" + kind] -= 1
        if d < 3:
            hits.append((d, first))
    return Meet(gens, reached, mult, vectors, spaces, hits)


def _lines(plane_alg: Algebra3, v: PairVector, meet: Meet) -> dict[tuple, tuple[int, bool]]:
    """{line: (v' count, in base plane)} over the lines Av meet Av' of the dim-1 v'.

    A class reached once meets Av in the line of the generator that reached it
    and stands for q - 1 vectors v'.  The base plane is <x,y>v with products taken
    in `plane_alg`; its q+1 lines are spanned by b v for b = y and b = x + k y.
    """
    fld = plane_alg.field
    q = fld.order
    vecs = f3_vectors(q)
    plane = set()
    for b in [v.y] + [tuple(fld.add(c, fld.mul(k, d)) for c, d in zip(v.x, v.y))
                      for k in range(q)]:
        plane.add(unit_row(fld, mulvec(plane_alg, b, v.x) + mulvec(plane_alg, b, v.y)))
    out = {}
    for (w1, w2), classes in zip(meet.gens, meet.reached):
        n = (q - 1) * list(map(meet.mult.__getitem__, classes)).count(1)
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


def per_vector_profile(alg: Algebra3, v: PairVector, *,
                       inventory: AvInventory | CertifiedTables,
                       algebra_class: IsotopyClass | None = None) -> CensusReport:
    """Tally dim(Av meet Av') over all q^6 vectors v', with closed-form predictions.

    `inventory` is what `meet_all` reads; its `mode` goes into the parameters.
    """
    t0 = time.perf_counter()
    fld = alg.field
    kind = classify(fld, v)
    if kind == ZERO:
        raise ValueError("census base vector must be nonzero")
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
                    "algebra_class": algebra_class.value if algebra_class else None,
                    **inventory.mode},
        observed={"vectors": vectors, "spaces": meet.spaces},
        predicted=predicted,
        match=match,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def complementary_space_count(alg: Algebra3, v: PairVector, *,
                              inventory: AvInventory | CertifiedTables) -> int:
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


def line_profile(alg: Algebra3, v: PairVector, *,
                 inventory: AvInventory | CertifiedTables,
                 algebra_class: IsotopyClass | None = None) -> CensusReport:
    """For each line L inside Av: how many v' have Av meet Av' = L exactly
    (`inventory` as in `per_vector_profile`)."""
    t0 = time.perf_counter()
    fld = alg.field
    q = fld.order
    if classify(fld, v) != NONDEGENERATE:
        raise ValueError("line profile needs a nondegenerate base vector")
    lines = _lines(plane_algebra(alg), v, meet_all(inventory, v))
    grouped = _group_lines(lines)
    detail = [{"line": Subspace(fld, 6, line).to_json(), "vectors": n, "in_base_plane": in_plane}
              for line, (n, in_plane) in sorted(lines.items())]
    predicted = predicted_line_profile(q, algebra_class)
    return CensusReport(
        parameters={"q": q, "v": v.to_json(), "v_kind": NONDEGENERATE,
                    "Av": av_subspace(alg, v).to_json(),
                    "algebra_class": algebra_class.value if algebra_class else None,
                    "granularity": "lines", **inventory.mode},
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


def _scan_vectors(alg: Algebra3, inventory: AvInventory | CertifiedTables, cls: IsotopyClass,
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
        if not all(hit_span_conditions(frame, decode_vector(q, least)) for _, least in meet.hits):
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


def certified_tables(spec: TwistedFieldSpec) -> CertifiedTables:
    """What `meet_all` reads for `spec`, with the totals that the checked symmetry gives.

    `orbit_certificate` checks the K^x half of the action of K^x x GL2(F) on
    A^2 (module docstring) in the algebra and its plane algebra, for
    beta = `singer_element` and gamma = beta beta^sigma; the GL2 half is
    bilinearity.  REPRESENTATIVE then stands for all plane_orbit (q^2-1)(q^2-q)
    nondegenerate v (`covered`), and each nondegenerate fiber has the size f of
    its fiber, counted off the `division` keys at (e_0, e_1), e_0 being a point
    (module docstring); the kernel's dim-3 ratio check compares f with the reach.
    RuntimeError when the certificate fails or f does not divide the
    nondegenerate vectors.
    """
    tower = spec.tower
    alg = to_structure_constants(spec)
    plane_alg = plane_algebra(alg)
    beta = singer_element(tower)
    gamma = tower.ext.mul(beta, tower.frob_t[beta])
    orbit = orbit_certificate(tower, [alg] if plane_alg is alg else [alg, plane_alg],
                              beta, gamma)
    q = alg.field.order
    n = q**3
    division = division_tables(alg)
    key = division.keys[vec_index(q, REPRESENTATIVE.x)][vec_index(q, REPRESENTATIVE.y)]
    fiber = (q - 1) * sum(row.count(key) for row in division.keys.values())
    vectors = (n - 1) * (n - q)
    if not fiber or vectors % fiber:
        raise RuntimeError(f"the fiber of A v at v = {REPRESENTATIVE.to_json()} has {fiber} "
                           f"vectors, which do not divide the {vectors} nondegenerate ones")
    return CertifiedTables(alg, isotopy_class(spec), plane_alg,
                           {"mode": "orbit", "orbit": {**orbit, "vectors_profiled": 1}},
                           division, {NONDEGENERATE: (vectors, vectors // fiber),
                                     DEGENERATE: ((n - 1) * (q + 1), q + 1)},
                           orbit["plane_orbit"] * (q * q - 1) * (q * q - q))


def scan_orbit(spec: TwistedFieldSpec, *, workers: int = 1) -> CensusReport:
    """`scan_all_nondegenerate`'s verdict, lines included, from the one representative
    of `certified_tables`.

    Every check of the scan (tally, complement, span, lines) is invariant under
    the certified action; the span check is, because it tests p x' + r y' at
    every point [p:r] of P^1(F) (module docstring).  So one v decides them all,
    and `vectors_checked` is the tables' `covered`.  When the
    representative fails any check, this returns the exhaustive report instead
    (`workers` processes), with its mismatches and witnesses.
    """
    t0 = time.perf_counter()
    tables = certified_tables(spec)
    alg, cls = tables.alg, tables.cls
    q = alg.field.order
    idx = vec_index(q, REPRESENTATIVE.flat)
    checked, mismatches = _scan_vectors(alg, tables, cls, tables.plane_alg, idx, idx + 1)
    if checked != 1:
        raise RuntimeError(f"the representative {decode_vector(q, idx)} was not profiled")
    if mismatches:
        return scan_all_nondegenerate(alg, algebra_class=cls, workers=workers)
    return _scan_report(q, cls, tables.mode, tables.covered, [], t0)

"""Per-theorem verifiers: span-equality laws, two-dim intersection existence,
matrix-pair normal forms, and the finite-field analogue of the d = 1 obstruction.

The sweeps handle vectors of F^3 and F^6 as indices (`linalg` module docstring).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from ..algebra3 import Algebra3, IsotopyClass, TwistedFieldSpec, isotopy_class, to_structure_constants
from ..gf import Field
from ..linalg import (cross, decode_vector, f3_vectors, image_table, kernel_rows, mat_mul,
                      rref_rows, unit_row, vec_index)
from ..splitalbert import SplitAlbertSpec, TriVector, rmat, rmat_inv
from .census import AvInventory, build_inventory, meet_all
from .normalform import mul2, pair_normal_form, template_matches
from .spaces import NONDEGENERATE, PairVector, intersection_dim, pair_rows, plane_representatives


@dataclass
class Verdict:
    name: str
    passed: bool
    checked: int
    witnesses: list = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "witnesses": self.witnesses,
            "details": self.details,
            "runtime_ms": round(self.runtime_ms, 3),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Verdict":
        return cls(
            name=payload["name"],
            passed=payload["passed"],
            checked=payload["checked"],
            witnesses=payload["witnesses"],
            details=payload["details"],
            runtime_ms=payload.get("runtime_ms", 0.0),
        )


def verify_theorem_A(alg: Algebra3, inventory: AvInventory | None = None) -> Verdict:
    """Av = Av' iff Fv = Fv', over all nondegenerate vectors.

    Reads the inventory's sweep over A^2: the statement holds iff the fiber
    of each nondegenerate space in `space_of` is exactly the q - 1 vectors
    k rep, k in F^x.  Witnesses decode a failing space's fiber.
    """
    t0 = time.perf_counter()
    fld = alg.field
    q = fld.order
    if inventory is None:
        inventory = build_inventory(alg)
    space_of = inventory.space_of
    fiber_size = Counter(space_of)
    failed = []
    for pos, rec in enumerate(inventory.spaces):
        if rec.kind != NONDEGENERATE:
            continue
        line = [vec_index(q, [fld.mul(k, c) for c in rec.rep]) for k in range(1, q)]
        if fiber_size[pos] != q - 1 or any(space_of[i] != pos for i in line):
            failed.append(pos)
    witnesses = []
    for pos in failed[:5]:
        members = [decode_vector(q, i) for i, p in enumerate(space_of) if p == pos]
        witnesses.append({"Av_key": [list(r) for r in inventory.spaces[pos].rows],
                          "members": sorted((v[:3], v[3:]) for v in members)[:4]})
    return Verdict(
        name="theorem-A",
        passed=not failed,
        checked=inventory.totals[NONDEGENERATE][0],
        witnesses=witnesses,
        details={"mode": "exhaustive", "q": q},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def verify_theorem_B(tf: TwistedFieldSpec, inventory: AvInventory | None = None) -> Verdict:
    """Two-dim intersections exist iff the algebra is commutative-isotopic.

    v runs over one representative per coordinate plane, v' over every distinct
    Av'; a dim-2 pair forces both vectors nondegenerate and simultaneous GL2
    frame changes preserve intersection dimensions, so this covers all pairs.
    The dimensions come from the census kernel (`census.meet_all`).  `checked`
    counts, per representative, the spaces in inventory order up to the first
    dim-2 one, or all of them; each witness is cross-checked directly.
    """
    t0 = time.perf_counter()
    alg = to_structure_constants(tf)
    cls = isotopy_class(tf)
    fld = alg.field
    if inventory is None:
        inventory = build_inventory(alg)
    expect_witness = cls is IsotopyClass.COMMUTATIVE_ISOTOPIC
    hits = []
    checked = 0
    for v in plane_representatives(fld):
        two_dim = [inventory.space_of[rec.first_index]
                   for d, rec in meet_all(inventory, v).hits if d == 2]
        if not two_dim:
            checked += len(inventory.spaces)
            continue
        pos = min(two_dim)
        checked += pos + 1
        rep = inventory.spaces[pos].rep
        v2 = PairVector(rep[:3], rep[3:])
        dim_check, _ = intersection_dim(alg, v, v2)
        if dim_check != 2:
            raise RuntimeError("fast sweep disagrees with direct intersection")
        hits.append({"v": v.to_json(), "v2": v2.to_json()})
        if expect_witness:
            break
    passed = bool(hits) == expect_witness
    return Verdict(
        name="theorem-B",
        passed=passed,
        checked=checked,
        witnesses=hits[:3],
        details={"q": fld.order, "algebra_class": cls.value,
                 "expected": "witness" if expect_witness else "no dim-2 pairs"},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


# ---------------------------------------------------------------------------
# split-side span equality (regular quadruples)
# ---------------------------------------------------------------------------


def verify_split_theorem_3_1(spec: SplitAlbertSpec) -> Verdict:
    """U(x,y) = U(x',y') iff (x',y') = k(x,y) or (y,y') = k(x,x'), regular quadruples.

    Also checks the matrix criterion R_{x'}^{-1} R_x = R_{y'}^{-1} R_y.  All
    r^4 quadruples are decided from partitions of the r^2 regular pairs.  Span
    equality groups pairs by their RREF key `skey`.  The prediction groups them
    by the label (rep x, rep y, y0/x0), or ("diag", y0/x0) when rep x = rep y.
    The two agree on every quadruple iff #skey = #label = #(skey, label).  For
    the matrix criterion, S = {skey(i,j) = skey(k,l)} is walked class by class,
    checking mkey(i,k) = mkey(j,l) on each element; then S lies inside
    M = {mkey(i,k) = mkey(j,l)}, and |S| = |M| (a sum of squared class sizes
    on each side) makes them equal.  Witnesses come from the classes that split.
    """
    t0 = time.perf_counter()
    fld = spec.field
    q = fld.order
    regs = [(a, b, c) for a in range(1, q) for b in range(1, q) for c in range(1, q)]
    r = len(regs)
    index = {v: i for i, v in enumerate(regs)}
    # projective representative per regular vector
    rep_id = [index[unit_row(fld, v)] for v in regs]
    rmats = [rmat(spec, TriVector("V", v)).rows for v in regs]
    rinvs = [rmat_inv(spec, TriVector("V", v)).rows for v in regs]

    # pair p = i * r + j stands for (x, y) = (regs[i], regs[j]); mrow[i][k] keys
    # R_{x_k}^{-1} R_{x_i}
    skey_pool: dict[tuple, int] = {}
    label_pool: dict[tuple, int] = {}
    mkey_pool: dict[tuple, int] = {}
    skey, label, mrow = [], [], []
    for i, x in enumerate(regs):
        for j, y in enumerate(regs):
            # U(x, y) is spanned by the rows (phi(alpha_i, x) | phi(alpha_i, y))
            rows, _ = rref_rows(fld, pair_rows(spec, x, y))
            skey.append(skey_pool.setdefault(rows, len(skey_pool)))
            ratio = fld.div(y[0], x[0])
            lab = ("diag", ratio) if rep_id[i] == rep_id[j] else (rep_id[i], rep_id[j], ratio)
            label.append(label_pool.setdefault(lab, len(label_pool)))
        mrow.append([mkey_pool.setdefault(mat_mul(fld, rinvs[k], rmats[i]), len(mkey_pool))
                     for k in range(r)])

    witnesses = []

    def witness(p: int, p2: int) -> None:
        (i, j), (k, l) = divmod(p, r), divmod(p2, r)
        witnesses.append({
            "x": regs[i], "y": regs[j], "x2": regs[k], "y2": regs[l],
            "span_equal": skey[p] == skey[p2],
            "proportionality": label[p] == label[p2],
            "matrix_criterion": mrow[i][k] == mrow[j][l],
        })

    by_skey = _classes(skey, len(skey_pool))
    if not len(skey_pool) == len(label_pool) == len(set(zip(skey, label))):
        # some class of one partition meets two classes of the other
        for classes, other in ((by_skey, label), (_classes(label, len(label_pool)), skey)):
            for members in classes:
                split = [p2 for p2 in members if other[p2] != other[members[0]]]
                if split and len(witnesses) < 5:
                    witness(members[0], split[0])

    s_size = 0
    for members in by_skey:
        s_size += len(members) ** 2
        pick_k = itemgetter(*(p // r for p in members))
        pick_l = itemgetter(*(p % r for p in members))
        for p in members:
            i, j = divmod(p, r)
            if len(witnesses) < 5 and pick_k(mrow[i]) != pick_l(mrow[j]):
                witness(p, next(p2 for p2 in members
                                if mrow[i][p2 // r] != mrow[j][p2 % r]))
    mflat = [m for row in mrow for m in row]
    if sum(n * n for n in Counter(mflat).values()) != s_size and not witnesses:
        # S lies inside M but is smaller: equal mkey(i,k) = mkey(j,l), unequal spans
        for members in _classes(mflat, len(mkey_pool)):
            for ik in members:
                for jl in members:
                    (i, k), (j, l) = divmod(ik, r), divmod(jl, r)
                    if len(witnesses) < 5 and skey[i * r + j] != skey[k * r + l]:
                        witness(i * r + j, k * r + l)
    return Verdict(
        name="split-theorem-3.1",
        passed=not witnesses,
        checked=r**4,
        witnesses=witnesses,
        details={"mode": "exhaustive", "q": q, "d": list(spec.d)},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def _classes(keys: list[int], count: int) -> list[list[int]]:
    """Positions grouped by key id, each group in ascending order."""
    out: list[list[int]] = [[] for _ in range(count)]
    for pos, key in enumerate(keys):
        out[key].append(pos)
    return out


# ---------------------------------------------------------------------------
# matrix-pair normal forms (exhaustive, on left-GL2 orbits)
# ---------------------------------------------------------------------------


def _row_spaces(q: int):
    """(rank, rows) for each subspace of F^4: its RREF rows, zero-padded to two.

    Enumerated pivot pattern by pattern, so each subspace comes once:
    1 + (q^4-1)/(q-1) + (q^2+1)(q^2+q+1) of them.
    """
    for rank in range(3):
        for pivots in itertools.combinations(range(4), rank):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, 4) if j not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * 4, [0] * 4]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), a in zip(free, values):
                    rows[i][j] = a
                yield rank, rows


def verify_normal_forms(fld: Field) -> Verdict:
    """Every pair of 2x2 matrices lands in a tag with verifying (P, Q).

    The tag is invariant under (G0, G1) -> (P G0, P G1), P in GL2 (see
    `normalform`), so the q^8 pairs are decided by one pair per row space of
    the 2x4 matrix [G0 | G1]: its RREF, weighted by its orbit size, |GL2| =
    (q^2-1)(q^2-q) at rank 2, q^2-1 at rank 1 and 1 at rank 0.  The run
    certifies both steps, raising RuntimeError otherwise: the weights sum to
    q^8, and each representative keeps its tag under the generators diag(w, 1),
    [[1,1],[0,1]] and [[0,1],[1,0]] of GL2 (w generating F^x).  `pair_normal_form`
    checks its (P, Q) and the template is checked on every representative;
    witnesses are representatives whose template fails.
    """
    t0 = time.perf_counter()
    q = fld.order
    weight = (1, q * q - 1, (q * q - 1) * (q * q - q))
    omega = next(w for w in range(1, q) if len({fld.pow(w, e) for e in range(q - 1)}) == q - 1)
    gens = (((omega, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0)))
    tag_counts: dict[str, int] = {}
    witnesses = []
    total = 0
    for rank, (r0, r1) in _row_spaces(q):
        g0 = ((r0[0], r0[1]), (r1[0], r1[1]))
        g1 = ((r0[2], r0[3]), (r1[2], r1[3]))
        form = pair_normal_form(fld, g0, g1)
        for p in gens:
            if pair_normal_form(fld, mul2(fld, p, g0), mul2(fld, p, g1)).tag != form.tag:
                raise RuntimeError(f"tag {form.tag} of {(g0, g1)} changes under P = {p}")
        tag_counts[form.tag] = tag_counts.get(form.tag, 0) + weight[rank]
        total += weight[rank]
        if not template_matches(fld, form):
            witnesses.append({"g0": g0, "g1": g1, "tag": form.tag})
    if total != q**8:
        raise RuntimeError(f"orbit weights sum to {total}, not q^8 = {q**8}")
    return Verdict(
        name="pair-normal-form",
        passed=not witnesses,
        checked=total,
        witnesses=witnesses[:5],
        details={"q": q, "tag_counts": dict(sorted(tag_counts.items()))},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


# ---------------------------------------------------------------------------
# finite-field analogue of the two-dim => d = 1 obstruction
# ---------------------------------------------------------------------------


def _projective_sum_table(fld: Field) -> list[list[int]]:
    """table[a][b] = the index of a + b in F^3, scaled to lead with 1 (0 stays 0).

    Three vectors of F^3 span a line iff their scaled indices, 0 dropped,
    are one and the same.
    """
    q = fld.order
    add = fld.add_t
    vecs = f3_vectors(q)
    scaled = [vec_index(q, unit_row(fld, v)) for v in vecs]
    return [[scaled[vec_index(q, [add[s][t] for s, t in zip(a, b)])] for b in vecs]
            for a in vecs]


def search_theorem_7_2_analogue(spec: SplitAlbertSpec) -> Verdict:
    """Sweep for two-dimensional U(x,y) meet U(x',y') under the stability hypotheses.

    Heuristic evidence only: the d = 1 obstruction is a statement over an
    algebraically closed field, and this sweep stays over F.  Any hit with
    d != 1 is a failure; hits at d = 1 are recorded as information.

    The base (x, y) runs over one pair per plane, (x', y') over every pair of
    rank 2 (x cross y != 0).  A quadruple is admissible when the kernel of the
    3x4 column matrix [x y x' y'] is one line whose generator, read as a 2x2
    pattern, is invertible (rank-one patterns are the degenerations a GL2 x GL2
    frame change exposes).  With n = x cross y and n.m = 1, every vector is
    a x + b y + p m with p = n.v, and the kernel is spanned by
    (-(p''a' - p'a''), -(p''b' - p'b''), p'', -p'), so the quadruple is
    admissible iff (p', p'') != 0 and p'p''(a' - b'') - p'^2 a'' + p''^2 b' != 0.
    dim(U(x,y) meet U(x',y')) = 2 iff the three rows of U(x',y') project to a
    rank-one set under the annihilator N = [N_L | N_R] of U(x,y); both halves
    of N are tabulated over F^3 once per base, and each pair's `pair_rows` are
    read once, as indices.  U(x,y) has dimension 3, as phi(a, .) has rank at
    least 2 for a != 0; a base of another dimension raises RuntimeError.
    """
    t0 = time.perf_counter()
    fld = spec.field
    q = fld.order
    mul, add, sub = fld.mul_t, fld.add_t, fld.sub_t
    vecs = f3_vectors(q)
    # (x', y') of rank 2 grouped by x', each y' with its rows (left, right) as F^3 indices
    groups = []
    for x2 in vecs:
        group = []
        for iy, y2 in enumerate(vecs):
            if any(cross(fld, x2, y2)):
                group.append((iy, *(vec_index(q, r[k:k + 3])
                                    for r in pair_rows(spec, x2, y2) for k in (0, 3))))
        groups.append(group)
    pairs = sum(map(len, groups))
    rank_one = _projective_sum_table(fld)
    hits = []
    admissible = 0
    checked = 0
    for v in plane_representatives(fld):
        x, y = v.x, v.y
        n = cross(fld, x, y)
        j = next(j for j, c in enumerate(n) if c)
        m = tuple(fld.inv(n[j]) if k == j else 0 for k in range(3))
        # (x, y, m) has determinant n.m = 1; the rows of its inverse are these
        alpha, beta, p = (image_table(fld, [(c, 0, 0) for c in f])
                          for f in (cross(fld, y, m), cross(fld, m, x), n))
        ann = kernel_rows(fld, pair_rows(spec, x, y), 6)
        if len(ann) != 3:
            raise RuntimeError(f"U{(x, y)} has dimension {6 - len(ann)}, not 3")
        # the columns of N_L and N_R, the images of e_j
        left = image_table(fld, zip(*(r[:3] for r in ann)))
        right = image_table(fld, zip(*(r[3:] for r in ann)))
        checked += pairs
        for ix, group in enumerate(groups):
            p1, a1, b1 = p[ix], alpha[ix], beta[ix]
            by_p1, by_sq1, by_b1 = mul[p1], mul[mul[p1][p1]], mul[b1]
            for iy, l0, r0, l1, r1, l2, r2 in group:
                p2 = p[iy]
                if not (p1 or p2):
                    continue
                det = sub[add[mul[by_p1[p2]][sub[a1][beta[iy]]]][by_b1[mul[p2][p2]]]][
                    by_sq1[alpha[iy]]]
                if not det:
                    continue
                admissible += 1
                line = {rank_one[left[l0]][right[r0]], rank_one[left[l1]][right[r1]],
                        rank_one[left[l2]][right[r2]]}
                line.discard(0)
                if len(line) == 1:
                    hits.append({"x": list(x), "y": list(y),
                                 "x2": list(vecs[ix]), "y2": list(vecs[iy])})
    d_is_one = spec.d_product == 1
    passed = d_is_one or not hits
    return Verdict(
        name="two-dim-search",
        passed=passed,
        checked=checked,
        witnesses=hits[:5],
        details={
            "q": q,
            "d": list(spec.d),
            "d_product": spec.d_product,
            "admissible_quadruples": admissible,
            "two_dim_hits": len(hits),
            "note": "finite-field analogue; heuristic evidence, not a theorem check",
        },
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )

"""Per-theorem verifiers: span-equality laws, two-dim intersection existence,
matrix-pair normal forms, and the finite-field analogue of the d = 1 obstruction.

The sweeps handle vectors of F^3 and F^6 as indices (`linalg` module docstring).
Each verifier imports the engine modules only it needs (`census` or `normalform`),
so a CLI process compiles no other verifier's dependencies.
"""

from __future__ import annotations

import itertools
import time
from array import array
from collections import Counter
from operator import add, itemgetter

from ..algebra3 import (Algebra3, IsotopyClass, TwistedFieldSpec, graph_keys, left_mul_matrix,
                        point_tables, transposed)
from ..gf import Field
from ..linalg import (cross, decode_vector, echelon_bases, f3_vectors, identity_rows, image_table,
                      kernel_rows, scalar_multiples, scaling_table, unit_row, vec_index)
from .spaces import PairVector, intersection_dim, plane_representatives

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from ..splitalbert import SplitAlbertSpec


class Verdict:
    def __init__(self, name: str, passed: bool, checked: int, witnesses: list | None = None,
                 details: dict | None = None, runtime_ms: float = 0.0):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.witnesses = [] if witnesses is None else witnesses
        self.details = {} if details is None else details
        self.runtime_ms = runtime_ms

    def to_json_dict(self) -> dict:
        return {**vars(self), "runtime_ms": round(self.runtime_ms, 3)}  # in field order


def verify_theorem_A(alg: Algebra3) -> Verdict:
    """Av = Av' iff Fv = Fv', over all nondegenerate vectors.

    The keys of `census.division_tables` hold one entry per class F^x v' with
    x' != 0, keyed by its space, so the statement holds iff no nondegenerate key
    appears twice.  Witnesses are the repeated keys, in order of least member
    index, with the first members of their classes.
    """
    from .census import degenerate_keys, division_tables, space_rows

    t0 = time.perf_counter()
    fld = alg.field
    q = fld.order
    n = q**3
    keys = division_tables(alg).keys
    degenerate = degenerate_keys(q)
    seen: set[int] = set()
    entries = 0
    for row in keys.values():
        found = [k for k in row if k not in degenerate]
        entries += len(found)
        seen.update(found)
    witnesses = []
    if len(seen) != entries:  # a Counter only now, so that the pass holds one set
        del seen
        counts = Counter(k for row in keys.values() for k in row if k not in degenerate)
        scale = scalar_multiples(fld)  # scale[k * n + w]: the index of k w
        members: dict[int, list] = {k: [] for k, m in counts.items() if m > 1}
        for a, row in keys.items():
            for y, key in enumerate(row):
                if key in members:
                    members[key] += [scale[k + a] + n * scale[k + y] for k in range(n, q * n, n)]
        for key, held in sorted(members.items(), key=lambda item: min(item[1]))[:5]:
            vecs = sorted((v[:3], v[3:]) for v in (decode_vector(q, i) for i in held))
            witnesses.append({"Av_key": [list(r) for r in space_rows(q, key)[0]],
                              "members": vecs[:4]})
    return Verdict(
        name="theorem-A",
        passed=not witnesses,
        checked=(q - 1) * entries,
        witnesses=witnesses,
        details={"mode": "exhaustive", "q": q},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def verify_theorem_B(tf: TwistedFieldSpec) -> Verdict:
    """Two-dim intersections exist iff the algebra is commutative-isotopic.

    A dim-2 pair forces both vectors nondegenerate, and the symmetry that
    `census.certified_tables` checks keeps every dim(Av meet Av') and carries
    its one representative v to every nondegenerate vector.  So the census
    kernel (`census.meet_all`) at that v decides, on `census.certified_tables`;
    `checked` counts the v it covers, and the witness, the least-index dim-2
    space, is cross-checked.
    """
    from .census import REPRESENTATIVE, certified_tables, meet_all

    t0 = time.perf_counter()
    tables = certified_tables(tf)
    alg, cls = tables.alg, tables.cls
    q = alg.field.order
    v = REPRESENTATIVE
    meet = meet_all(tables, v)
    two_dim = [least for d, least in meet.hits if d == 2]
    witnesses = []
    if two_dim:
        rep = decode_vector(q, min(two_dim))
        v2 = PairVector(rep[:3], rep[3:])
        if intersection_dim(alg, v, v2)[0] != 2:
            raise RuntimeError("fast sweep disagrees with direct intersection")
        witnesses.append({"v": v.to_json(), "v2": v2.to_json()})
    expect_witness = cls is IsotopyClass.COMMUTATIVE_ISOTOPIC
    return Verdict(
        name="theorem-B",
        passed=bool(witnesses) == expect_witness,
        checked=tables.covered,
        witnesses=witnesses,
        details={"q": q, "algebra_class": cls.value,
                 "expected": "witness" if expect_witness else "no dim-2 pairs",
                 **tables.mode},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


# ---------------------------------------------------------------------------
# split-side span equality (regular quadruples)
# ---------------------------------------------------------------------------


def verify_split_theorem_3_1(spec: SplitAlbertSpec) -> Verdict:
    """U(x,y) = U(x',y') iff (x',y') = k(x,y) or (y,y') = k(x,x'), regular quadruples.

    Also checks the matrix criterion R_{x'}^{-1} R_x = R_{y'}^{-1} R_y.  All
    r^4 quadruples are decided from partitions of the r^2 regular pairs, keyed
    by table lookups (`_graph_keys`): span equality groups pairs by `skey`, the
    matrix criterion by `mkey`.  The prediction groups them by the label
    (rep x, rep y, y0/x0), or ("diag", y0/x0) when rep x = rep y.  The two
    agree on every quadruple iff #skey = #label = #(skey, label).  For the
    matrix criterion, S = {skey(i,j) = skey(k,l)} is walked class by class,
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
    # pair p = i * r + j stands for (x, y) = (regs[i], regs[j]); mrow[i][k] keys
    # R_{x_k}^{-1} R_{x_i}
    skey, mrow = _graph_keys(spec, regs)
    label_pool: dict[tuple, int] = {}
    label = array("i")
    for x, rx in zip(regs, rep_id):
        by_inv_x0 = fld.mul_t[fld.inv(x[0])]
        label.extend([label_pool.setdefault(
            ("diag", by_inv_x0[y[0]]) if rx == ry else (rx, ry, by_inv_x0[y[0]]), len(label_pool))
            for y, ry in zip(regs, rep_id)])
    skey_count = max(skey) + 1
    label_count = len(label_pool)

    witnesses = []

    def witness(p: int, p2: int) -> None:
        (i, j), (k, l) = divmod(p, r), divmod(p2, r)
        witnesses.append({
            "x": regs[i], "y": regs[j], "x2": regs[k], "y2": regs[l],
            "span_equal": skey[p] == skey[p2],
            "proportionality": label[p] == label[p2],
            "matrix_criterion": mrow[i][k] == mrow[j][l],
        })

    by_skey = _classes(skey, skey_count)
    # (skey, label) as one int per pair
    pair_count = len(set(map(add, map(label_count.__mul__, skey), label)))
    if not skey_count == label_count == pair_count:
        # some class of one partition meets two classes of the other
        for classes, other in ((by_skey, label), (_classes(label, label_count), skey)):
            for members in classes:
                split = [p2 for p2 in members if other[p2] != other[members[0]]]
                if split and len(witnesses) < 5:
                    witness(members[0], split[0])

    s_size = 0
    for members in by_skey:
        s_size += len(members) ** 2
        ks, ls = [p // r for p in members], [p % r for p in members]
        pick_k, pick_l = itemgetter(*ks), itemgetter(*ls)
        for p, i, j in zip(members, ks, ls):
            if pick_k(mrow[i]) != pick_l(mrow[j]) and len(witnesses) < 5:
                witness(p, next(p2 for p2 in members
                                if mrow[i][p2 // r] != mrow[j][p2 % r]))
    m_counts = Counter(itertools.chain.from_iterable(mrow))
    if sum(n * n for n in m_counts.values()) != s_size and not witnesses:
        # S lies inside M but is smaller: equal mkey(i,k) = mkey(j,l), unequal spans
        for members in _classes(itertools.chain.from_iterable(mrow), len(m_counts)):
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
        details={"mode": "exhaustive", "q": q},
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def _graph_keys(spec: SplitAlbertSpec, regs: list) -> tuple[array, list[array]]:
    """Key ids, in order of first occurrence: skey[i * r + j] of U(x_i, x_j) and
    mrow[i][k] of R_{x_k}^{-1} R_{x_i}, for the r vectors x_i of `regs`, as
    array('i') columns, off `algebra3.graph_keys` at x = x_i over y in `regs`.

    R_x a = phi(a, x), so for regular x, U(x_i, x_j) = {(R_{x_i} a | R_{x_j} a)}
    is the graph of R_{x_j} R_{x_i}^{-1}.  R_{x_k}^{-1} R_{x_i} is the inverse of
    R_{x_i}^{-1} R_{x_k}, the transpose of R'_{x_k} R'_{x_i}^{-1} with R' that of
    the transposed tensor (`algebra3.transposed`), so both key the same partition.
    RuntimeError when some R_x is singular."""
    on_regs = itemgetter(*(vec_index(spec.field.order, x) for x in regs))
    ids = []
    for alg in (spec, transposed(spec)):
        tables = {b: on_regs(table) for b, table in point_tables(alg).items()}
        pool: dict[int, int] = {}
        ids.append([array("i", [pool.setdefault(k, len(pool)) for k in keys])
                    for keys in graph_keys(alg, regs, tables)])
    return array("i", itertools.chain.from_iterable(ids[0])), ids[1]


def _classes(keys, count: int) -> list[array]:
    """Positions grouped by key id, each group an ascending array."""
    out = [array("i") for _ in range(count)]
    for pos, key in enumerate(keys):
        out[key].append(pos)
    return out


# ---------------------------------------------------------------------------
# matrix-pair normal forms (exhaustive, on left-GL2 orbits)
# ---------------------------------------------------------------------------


def _row_spaces(q: int):
    """(rank, rows) for each subspace of F^4 of dimension at most 2: its RREF rows
    (`echelon_bases`), zero-padded to two.  1 + (q^4-1)/(q-1) + (q^2+1)(q^2+q+1)
    of them.
    """
    for rank in range(3):
        for rows in echelon_bases(q, 4, rank):
            yield rank, rows + ((0,) * 4,) * (2 - rank)


def verify_normal_forms(fld: Field) -> Verdict:
    """Every pair of 2x2 matrices lands in a tag with verifying (P, Q).

    The tag is invariant under (G0, G1) -> (P G0, P G1), P in GL2, by the
    argument of the `normalform` module docstring, so the q^8 pairs are decided
    by one pair per row space of the 2x4 matrix [G0 | G1]: its RREF, weighted by
    its orbit size, |GL2| = (q^2-1)(q^2-q) at rank 2, q^2-1 at rank 1 and 1 at
    rank 0.  The run checks that the weights sum to q^8, and spot-checks the
    invariance, raising RuntimeError otherwise: each representative keeps its
    tag under the generators diag(w, 1), [[1,1],[0,1]] and [[0,1],[1,0]] of
    GL2 (w generating F^x).  That check runs only at the representative, so
    the tag being constant on the rest of the orbit rests on the argument
    alone.  `pair_normal_form` checks its (P, Q), takes its representative from
    `template` and tags I* only a rootless characteristic polynomial, so
    `template_matches`, kept as a guard, holds for every form it returns: a
    failure is its RuntimeError naming (G0, G1) (exit 3), not a witness.
    """
    from .normalform import mul2, pair_normal_form, template_matches

    t0 = time.perf_counter()
    q = fld.order
    weight = (1, q * q - 1, (q * q - 1) * (q * q - q))
    omega = _primitive(fld)
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
    are one and the same.  Row a reads the digits of a + b off the rows
    add_t[a_j], b in index order (b_0 fastest).
    """
    q = fld.order
    add = fld.add_t
    vecs = f3_vectors(q)
    scaled = [vec_index(q, unit_row(fld, v)) for v in vecs]
    table = []
    for a0, a1, a2 in vecs:
        digits0, row = add[a0], []
        for s2 in add[a2]:
            for s1 in add[a1]:
                base = q * (s1 + q * s2)
                row += map(scaled[base:base + q].__getitem__, digits0)
        table.append(row)
    return table


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
    of N are tabulated over F^3 once per base.  Every row is read from the F^3
    index tables of L_{alpha_k} (`linalg.image_table`), one array per k.
    U(x,y) has dimension 3, as phi(a, .) has rank at least 2 for a != 0; a
    base of another dimension raises RuntimeError.

    The per-base counts depend only on the torus orbit of the plane <x, y>
    (`_torus_orbits`), so the sweep runs on the first plane of each orbit, in
    `plane_representatives` order, and weights its counts by the orbit size.
    The witnesses are the first five hits of those planes.
    """
    t0 = time.perf_counter()
    fld = spec.field
    q = fld.order
    n3 = q**3
    mul, add, sub = fld.mul_t, fld.add_t, fld.sub_t
    vecs = f3_vectors(q)
    # prods[k][v]: the index of phi(alpha_k, v), the table of L_{alpha_k}; U(x, y) has
    # the rows (phi(alpha_k, x) | phi(alpha_k, y))
    prods = [array("i", image_table(fld, zip(*left_mul_matrix(spec, e))))
             for e in identity_rows(3)]
    orbits = _torus_orbits(fld, prods)
    # for each x', the y' with (x', y') of rank 2: those off the line F x'
    scale = scalar_multiples(fld)  # scale[k * n3 + v]: the index of k v
    groups = []
    for ix in range(n3):
        line = set(scale[ix::n3])
        groups.append(array("i", [iy for iy in range(n3) if iy not in line] if ix else []))
    pairs = sum(map(len, groups))
    rank_one = _projective_sum_table(fld)
    hits = []
    admissible = two_dim = checked = 0
    for v, weight in orbits:
        x, y = v.x, v.y
        n = cross(fld, x, y)
        j = next(j for j, c in enumerate(n) if c)
        m = tuple(fld.inv(n[j]) if k == j else 0 for k in range(3))
        # (x, y, m) has determinant n.m = 1; the rows of its inverse are these
        alpha, beta, p = (image_table(fld, [(c, 0, 0) for c in f])
                          for f in (cross(fld, y, m), cross(fld, m, x), n))
        base_x, base_y = vec_index(q, x), vec_index(q, y)
        ann = kernel_rows(fld, [vecs[col[base_x]] + vecs[col[base_y]] for col in prods], 6)
        if len(ann) != 3:
            raise RuntimeError(f"U{(x, y)} has dimension {6 - len(ann)}, not 3")
        # the columns of N_L and N_R, the images of e_j
        left = image_table(fld, zip(*(r[:3] for r in ann)))
        right = image_table(fld, zip(*(r[3:] for r in ann)))
        right0, right1, right2 = ([right[i] for i in col] for col in prods)
        base_admissible = base_hits = 0
        for ix, group in enumerate(groups):
            p1, a1, b1 = p[ix], alpha[ix], beta[ix]
            by_p1, by_sq1, by_b1 = mul[p1], mul[mul[p1][p1]], mul[b1]
            proj0, proj1, proj2 = (rank_one[left[col[ix]]] for col in prods)
            for iy in group:
                p2 = p[iy]
                if not (p1 or p2):
                    continue
                det = sub[add[mul[by_p1[p2]][sub[a1][beta[iy]]]][by_b1[mul[p2][p2]]]][
                    by_sq1[alpha[iy]]]
                if not det:
                    continue
                base_admissible += 1
                line = {proj0[right0[iy]], proj1[right1[iy]], proj2[right2[iy]]}
                line.discard(0)
                if len(line) == 1:
                    base_hits += 1
                    if len(hits) < 5:
                        hits.append({"x": list(x), "y": list(y),
                                     "x2": list(vecs[ix]), "y2": list(vecs[iy])})
        checked += weight * pairs
        admissible += weight * base_admissible
        two_dim += weight * base_hits
    d_is_one = spec.d_product == 1
    passed = d_is_one or not two_dim
    return Verdict(
        name="two-dim-search",
        passed=passed,
        checked=checked,
        witnesses=hits,
        details={
            "q": q,
            "d_product": spec.d_product,
            "admissible_quadruples": admissible,
            "two_dim_hits": two_dim,
            "note": "finite-field analogue; heuristic evidence, not a theorem check",
        },
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def _torus_orbits(fld: Field, prods: list) -> list[tuple[PairVector, int]]:
    """The first plane of each torus orbit, in `plane_representatives` order, with its orbit size.

    t in (F^x)^3 acts by t.x = (t_0 x_0, t_1 x_1, t_2 x_2).  If
    phi(t.a, t.x) = u.phi(a, x) with u_k = t_{k+1} t_{k+2}, then
    U(t.x, t.y) = (u + u) U(x, y): t moves the rank-2 pairs among themselves
    and keeps the kernel of [x y x' y'] and every dim(U(x,y) meet U(x',y')),
    and frame changes in GL2 keep them as well, so the per-base counts of
    the 7.2 sweep depend only on the torus orbit of the plane <x, y>.  The
    run checks the certificate, raising RuntimeError when it fails: the
    identity holds for the generators diag(w,1,1), diag(1,w,1), diag(1,1,w)
    (w generating F^x) on every row of the product table `prods`,
    phi(alpha_k, t.x) = (u / t_k).phi(alpha_k, x); and the orbits cover all
    q^2+q+1 planes.  An orbit is taken on the normals x cross y, as
    t.x cross t.y = u.(x cross y) and u = t_0 t_1 t_2 / t runs through the
    torus, up to scalars, as t does.
    """
    q = fld.order
    w = _primitive(fld)
    for t in ((w, 1, 1), (1, w, 1), (1, 1, w)):
        u = [fld.mul(t[(k + 1) % 3], t[(k + 2) % 3]) for k in range(3)]
        move = scaling_table(fld, t)
        for k, col in enumerate(prods):
            image = scaling_table(fld, [fld.div(c, t[k]) for c in u])
            if any(col[move[x]] != image[col[x]] for x in range(len(col))):
                raise RuntimeError(f"phi(t.alpha_{k}, t.x) != u.phi(alpha_{k}, x) for t = {t}")
    torus = list(itertools.product(range(1, q), repeat=3))
    orbits = []
    seen: set[int] = set()
    for v in plane_representatives(fld):
        n = cross(fld, v.x, v.y)
        if vec_index(q, unit_row(fld, n)) in seen:
            continue
        orbit = {vec_index(q, unit_row(fld, [fld.mul(s, c) for s, c in zip(t, n)])) for t in torus}
        seen |= orbit
        orbits.append((v, len(orbit)))
    if len(seen) != q * q + q + 1:
        raise RuntimeError(f"the torus orbits cover {len(seen)} planes, not q^2+q+1")
    return orbits


def _primitive(fld: Field) -> int:
    """The least element generating F^x."""
    q = fld.order
    return next(w for w in range(1, q) if len({fld.pow(w, e) for e in range(q - 1)}) == q - 1)

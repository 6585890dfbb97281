"""Batch command-line frontend emitting reproducible JSON/CSV reports.

Exit codes: 0 = pass, 1 = counterexample or failed verdict, 2 = usage error,
3 = internal error (a broken invariant or a bug: JSON {"error": ...} on stdout,
the traceback on stderr).
Identical configuration and seed produce byte-identical JSON except for the
runtime_ms field, regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
import time

from . import engine
from .algebra3 import (
    IsotopyClass,
    TwistedFieldSpec,
    is_division,
    isotopy_class,
    pick_c_by_norm,
    to_structure_constants,
)
from .gf import (
    SUPPORTED_Q,
    Field,
    FieldTower,
    format_elem,
    format_triple,
    parse_elem,
    parse_triple,
)
from .splitalbert import SplitAlbertSpec, split_twisted_field, splitting_counterexample

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistfield",
        description="Three-dimensional twisted fields over GF(q): construction, "
                    "verification and intersection censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, c_flags=True):
        p.add_argument("--q", type=int, required=True, help="base field order (3,4,5,7,8,9)")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled modes")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the census --scan-all pool (>= 1); "
                            "every other command runs in one process")
        if c_flags:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--c", help='twisting element literal, e.g. "[2,0,0]"')
            group.add_argument("--norm-target",
                               help='pick the lex-least c with this norm, e.g. "-1" or "u"')

    common(sub.add_parser("field-info", help="field and tower presentation"), c_flags=False)
    common(sub.add_parser("build", help="construct a twisted field and its tensor"))
    common(sub.add_parser("split", help="scalar-extend a twisted field and verify the splitting"))

    p = sub.add_parser("verify", help="run a theorem verifier")
    common(p)
    p.add_argument("--theorem", required=True, choices=("A", "B", "3.1", "7.1", "7.2-analogue"))
    p.add_argument("--d", help='split constants "d0,d1,d2" for 3.1 / 7.2-analogue '
                               "(default: lex-least valid triple)")

    p = sub.add_parser("census", help="intersection-dimension census for a base vector")
    common(p)
    p.add_argument("--v", help='base vector "[x0,x1,x2],[y0,y1,y2]"')
    p.add_argument("--scan-all", action="store_true",
                   help="check every nondegenerate base vector against the closed forms")

    p = sub.add_parser("line-census", help="per-line census for a nondegenerate base vector")
    common(p)
    p.add_argument("--v", required=False)
    return parser


def resolve_tower(q: int) -> FieldTower:
    if q == 2:
        raise UsageError(
            "q=2 is rejected: the norm maps GF(8)^x onto GF(2)^x = {1}, so every "
            "candidate c has N(c) = 1 and no twisted field exists"
        )
    if q not in SUPPORTED_Q:
        raise UsageError(f"q must be one of {list(SUPPORTED_Q)}, got {q}")
    return FieldTower.build(q)


def resolve_c(tower: FieldTower, args) -> int:
    base = tower.base
    if args.c is not None:
        try:
            c = parse_triple(tower, args.c)
        except ValueError as exc:
            raise UsageError(f"malformed element literal: {exc}") from exc
    elif args.norm_target is not None:
        try:
            target = parse_elem(base, args.norm_target)
        except ValueError as exc:
            raise UsageError(f"malformed norm target: {exc}") from exc
        if target == 0:
            raise UsageError("norm target 0 is unreachable on K^x")
        if target == 1:
            raise UsageError("norm target 1 violates the construction: N(c) != 1 is required")
        c = pick_c_by_norm(tower, target)
    else:
        raise UsageError("provide --c or --norm-target")
    if c == 0:
        raise UsageError("c must be nonzero")
    if tower.norm(c) == 1:
        raise UsageError(f"c = {format_triple(tower, c)} has norm 1; N(c) != 1 is required")
    return c


def parse_pair_vector(tower: FieldTower, text: str) -> engine.PairVector:
    groups = re.findall(r"\[([^\]]*)\]", text)
    if len(groups) != 2:
        raise UsageError(f'base vector must look like "[1,0,0],[0,1,0]", got {text!r}')
    coords = []
    for g in groups:
        parts = g.split(",")
        if len(parts) != 3:
            raise UsageError(f"expected 3 coordinates in [{g}]")
        try:
            coords.append(tuple(parse_elem(tower.base, s) for s in parts))
        except ValueError as exc:
            raise UsageError(f"malformed element literal: {exc}") from exc
    return engine.PairVector(coords[0], coords[1])


def default_split_d(fld: Field) -> tuple[int, int, int]:
    q = fld.order
    for idx in range(q**3):
        d = (idx % q, idx // q % q, idx // (q * q))
        try:
            return SplitAlbertSpec(fld, d).d
        except ValueError:
            continue
    raise UsageError("no valid split constants exist")  # unreachable


def parse_split_d(fld: Field, text: str | None) -> tuple[int, int, int]:
    if text is None:
        return default_split_d(fld)
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError('split constants must look like "1,1,2"')
    try:
        return tuple(parse_elem(fld, s) for s in parts)
    except ValueError as exc:
        raise UsageError(f"malformed element literal: {exc}") from exc


def header_for(tower: FieldTower, c: int | None = None, d=None) -> dict:
    base = tower.base
    head = {
        "q": base.order,
        "field": base.spec.to_json() if base.spec else None,
        "tower_modulus": [format_elem(base, x) for x in tower.f],
    }
    if c is not None:
        head["c"] = format_triple(tower, c)
        head["norm_c"] = format_elem(tower.base, tower.norm(c))
        head["class"] = isotopy_class(TwistedFieldSpec(tower, c)).value
    if d is not None:
        head["d"] = [format_elem(base, di) for di in d]
    return head


def render(payload: dict, fmt: str, csv_rows=None) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if csv_rows is None:
        raise UsageError(f"format {fmt!r} is only available for census reports")
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(csv_rows)
        return out.getvalue().rstrip("\n")
    widths = {k: max(len(str(k)), *(len(str(r[k])) for r in csv_rows)) for k in csv_rows[0]}
    lines = ["  ".join(str(k).ljust(widths[k]) for k in csv_rows[0])]
    for r in csv_rows:
        lines.append("  ".join(str(r[k]).ljust(widths[k]) for k in r))
    return "\n".join(lines)


def cmd_field_info(args) -> int:
    tower = resolve_tower(args.q)
    fibers = {}
    for x in tower.ext.elements():
        if x:
            key = format_elem(tower.base, tower.norm(x))
            fibers[key] = fibers.get(key, 0) + 1
    payload = {
        "command": "field-info",
        "header": header_for(tower),
        "report": {
            "ext_order": tower.ext.order,
            "norm_fiber_sizes": dict(sorted(fibers.items())),
            "expected_fiber_size": (args.q**3 - 1) // (args.q - 1),
        },
    }
    print(render(payload, args.format))
    return EXIT_PASS


def cmd_build(args) -> int:
    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    spec = TwistedFieldSpec(tower, c)
    alg = to_structure_constants(spec)
    t0 = time.perf_counter()
    division = is_division(alg)
    payload = {
        "command": "build",
        "header": header_for(tower, c),
        "report": {
            "algebra": alg.to_json(),
            "commutative_tensor": alg.is_commutative(),
            "division": division,
            "runtime_ms": round((time.perf_counter() - t0) * 1000, 3),
        },
    }
    print(render(payload, args.format))
    return EXIT_PASS if division else EXIT_COUNTEREXAMPLE


def cmd_split(args) -> int:
    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    spec = TwistedFieldSpec(tower, c)
    stf = split_twisted_field(spec)
    n = tower.ext.order
    t0 = time.perf_counter()
    if n <= 125:
        pairs = [(x, y) for x in range(n) for y in range(n)]
        mode = "exhaustive"
    else:
        rng = random.Random(args.seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20000)]
        mode = "sampled"
    bad = splitting_counterexample(stf, pairs)
    payload = {
        "command": "split",
        "header": header_for(tower, c),
        "report": {
            "d": [format_triple(tower, di) for di in stf.spec.d],
            "d_product": format_triple(tower, stf.spec.d_product),
            "minus_norm_c": format_triple(tower, tower.ext.neg(tower.embed(tower.norm(c)))),
            "splitting_identity": bad is None,
            "mode": mode,
            "pairs_checked": len(pairs),
            "runtime_ms": round((time.perf_counter() - t0) * 1000, 3),
        },
    }
    if bad is not None:
        payload["report"]["witness"] = {"x": format_triple(tower, bad[0]),
                                        "y": format_triple(tower, bad[1])}
    print(render(payload, args.format))
    return EXIT_PASS if bad is None else EXIT_COUNTEREXAMPLE


def cmd_verify(args) -> int:
    tower = resolve_tower(args.q)
    rng = random.Random(args.seed)
    if args.theorem == "A":
        c = resolve_c(tower, args)
        alg = to_structure_constants(TwistedFieldSpec(tower, c))
        verdict = engine.verify_theorem_A(alg)
        head = header_for(tower, c)
    elif args.theorem == "B":
        c = resolve_c(tower, args)
        verdict = engine.verify_theorem_B(TwistedFieldSpec(tower, c))
        head = header_for(tower, c)
    elif args.theorem == "3.1":
        d = parse_split_d(tower.base, args.d)
        try:
            spec = SplitAlbertSpec(tower.base, d)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        verdict = engine.verify_split_theorem_3_1(spec, rng=rng)
        head = header_for(tower, d=d)
    elif args.theorem == "7.1":
        verdict = engine.verify_normal_forms(tower.base)
        head = header_for(tower)
    else:
        d = parse_split_d(tower.base, args.d)
        try:
            spec = SplitAlbertSpec(tower.base, d)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        verdict = engine.search_theorem_7_2_analogue(spec)
        head = header_for(tower, d=d)
    payload = {
        "command": "verify",
        "theorem": args.theorem,
        "seed": args.seed,
        "header": head,
        "report": verdict.to_json_dict(),
    }
    print(render(payload, args.format))
    return EXIT_PASS if verdict.passed else EXIT_COUNTEREXAMPLE


def cmd_census(args) -> int:
    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    spec = TwistedFieldSpec(tower, c)
    alg = to_structure_constants(spec)
    cls = isotopy_class(spec)
    if args.scan_all:
        report = engine.scan_all_nondegenerate(alg, algebra_class=cls, workers=args.workers)
        payload = {
            "command": "census",
            "header": header_for(tower, c),
            "report": report.to_json_dict(),
        }
        print(render(payload, args.format))
        return EXIT_PASS if report.match else EXIT_COUNTEREXAMPLE
    if not args.v:
        raise UsageError("census needs --v or --scan-all")
    v = parse_pair_vector(tower, args.v)
    if engine.classify(tower.base, v) == engine.ZERO:
        raise UsageError("census base vector must be nonzero")
    report = engine.per_vector_profile(alg, v, algebra_class=cls)
    payload = {
        "command": "census",
        "header": header_for(tower, c),
        "report": report.to_json_dict(),
    }
    print(render(payload, args.format, csv_rows=report.csv_rows()))
    return EXIT_PASS if report.match else EXIT_COUNTEREXAMPLE


def cmd_line_census(args) -> int:
    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    if not args.v:
        raise UsageError("line-census needs --v")
    spec = TwistedFieldSpec(tower, c)
    alg = to_structure_constants(spec)
    v = parse_pair_vector(tower, args.v)
    if engine.classify(tower.base, v) != engine.NONDEGENERATE:
        raise UsageError("line profile needs a nondegenerate base vector")
    report = engine.line_profile(alg, v, algebra_class=isotopy_class(spec))
    payload = {
        "command": "line-census",
        "header": header_for(tower, c),
        "report": report.to_json_dict(),
    }
    print(render(payload, args.format))
    return EXIT_PASS if report.match else EXIT_COUNTEREXAMPLE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "field-info": cmd_field_info,
        "build": cmd_build,
        "split": cmd_split,
        "verify": cmd_verify,
        "census": cmd_census,
        "line-census": cmd_line_census,
    }
    try:
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a broken invariant or a bug, never a counterexample
        import traceback  # only on this path, so start-up does not load it

        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}, indent=2, sort_keys=True))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line frontend emitting reproducible JSON/CSV reports.

Exit codes: 0 = pass, 1 = counterexample or failed verdict, 2 = usage error,
3 = internal error (a broken invariant or a bug: JSON {"error": ...} on stdout,
the traceback on stderr).
Identical configuration produces byte-identical JSON except for the
runtime_ms field, regardless of worker count.

Each command runs in a fresh process, which compiles every module it imports
unless a bytecode cache is at hand.  So this module imports only `gf`,
`algebra3` and `linalg` at the top, and each handler imports the engine
modules its command runs (`engine/__init__.py` re-exports nothing); the
verifiers in `engine.verify` do the same.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .algebra3 import (
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
from .linalg import f3_vectors

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from .engine.spaces import PairVector
    from .splitalbert import SplitAlbertSpec

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
        p.add_argument("--q", type=int, required=True,
                       help=f"base field order ({','.join(map(str, SUPPORTED_Q))})")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the exhaustive census --scan-all sweep, which "
                            "runs only when the orbit representative fails a check (>= 1); "
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


def parse_pair_vector(tower: FieldTower, text: str) -> PairVector:
    from .engine.spaces import PairVector

    match = re.fullmatch(r"\s*\[([^\[\]]*)\]\s*,\s*\[([^\[\]]*)\]\s*", text)
    if match is None:
        raise UsageError(f'base vector must look like "[1,0,0],[0,1,0]", got {text!r}')
    coords = []
    for g in match.groups():
        parts = g.split(",")
        if len(parts) != 3:
            raise UsageError(f"expected 3 coordinates in [{g}]")
        try:
            coords.append(tuple(parse_elem(tower.base, s) for s in parts))
        except ValueError as exc:
            raise UsageError(f"malformed element literal: {exc}") from exc
    return PairVector(coords[0], coords[1])


def resolve_split_spec(fld: Field, text: str | None) -> SplitAlbertSpec:
    """phi_d for --d "d0,d1,d2", or for the lex-least valid d when --d is absent."""
    from .splitalbert import SplitAlbertSpec

    if text is None:
        candidates = f3_vectors(fld.order)
    else:
        parts = text.split(",")
        if len(parts) != 3:
            raise UsageError('split constants must look like "1,1,2"')
        try:
            candidates = [tuple(parse_elem(fld, s) for s in parts)]
        except ValueError as exc:
            raise UsageError(f"malformed element literal: {exc}") from exc
    for d in candidates:
        try:
            return SplitAlbertSpec(fld, d)
        except ValueError as exc:
            error = exc
    raise UsageError(str(error))


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
    if fmt == "csv":
        import csv
        import io

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


def emit(args, header: dict, report: dict, ok: bool, csv_rows=None, **extra) -> int:
    """Print the command's payload in `args.format`; the exit code says whether it passed."""
    payload = {"command": args.command, "header": header, "report": report, **extra}
    print(render(payload, args.format, csv_rows=csv_rows))
    return EXIT_PASS if ok else EXIT_COUNTEREXAMPLE


def cmd_field_info(args) -> int:
    tower = resolve_tower(args.q)
    fibers = {}
    for x in tower.ext.elements():
        if x:
            key = format_elem(tower.base, tower.norm(x))
            fibers[key] = fibers.get(key, 0) + 1
    return emit(args, header_for(tower), {
        "ext_order": tower.ext.order,
        "norm_fiber_sizes": dict(sorted(fibers.items())),
        "expected_fiber_size": (args.q**3 - 1) // (args.q - 1),
    }, True)


def cmd_build(args) -> int:
    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    spec = TwistedFieldSpec(tower, c)
    alg = to_structure_constants(spec)
    t0 = time.perf_counter()
    division = is_division(alg)
    return emit(args, header_for(tower, c), {
        "algebra": alg.to_json(),
        "commutative_tensor": alg.is_commutative(),
        "division": division,
        "runtime_ms": round((time.perf_counter() - t0) * 1000, 3),
    }, division)


def cmd_split(args) -> int:
    from .splitalbert import split_twisted_field, splitting_counterexample

    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    spec = TwistedFieldSpec(tower, c)
    stf = split_twisted_field(spec)
    n = tower.ext.order
    t0 = time.perf_counter()
    # both sides are F-bilinear (split_twisted_field checks that E is F-linear),
    # so the basis pairs of (1, t, t^2) decide all n^2 pairs
    basis = (1, args.q, args.q**2)
    bad = splitting_counterexample(stf, [(x, y) for x in basis for y in basis])
    report = {
        "d": [format_triple(tower, di) for di in stf.spec.d],
        "d_product": format_triple(tower, stf.spec.d_product),
        "minus_norm_c": format_triple(tower, tower.ext.neg(tower.embed(tower.norm(c)))),
        "splitting_identity": bad is None,
        "mode": "exhaustive",
        "pairs_checked": n * n,
        "runtime_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    if bad is not None:
        report["witness"] = {"x": format_triple(tower, bad[0]), "y": format_triple(tower, bad[1])}
    return emit(args, header_for(tower, c), report, bad is None)


def cmd_verify(args) -> int:
    from .engine import verify

    tower = resolve_tower(args.q)
    ignored = []
    if args.theorem in ("3.1", "7.1", "7.2-analogue"):
        ignored += [flag for flag, value in (("--c", args.c), ("--norm-target", args.norm_target))
                    if value is not None]
    if args.theorem in ("A", "B", "7.1") and args.d is not None:
        ignored.append("--d")
    if ignored:
        print(f"note: --theorem {args.theorem} ignores {', '.join(ignored)}", file=sys.stderr)
    if args.theorem == "A":
        c = resolve_c(tower, args)
        alg = to_structure_constants(TwistedFieldSpec(tower, c))
        verdict = verify.verify_theorem_A(alg)
        head = header_for(tower, c)
    elif args.theorem == "B":
        c = resolve_c(tower, args)
        verdict = verify.verify_theorem_B(TwistedFieldSpec(tower, c))
        head = header_for(tower, c)
    elif args.theorem == "7.1":
        verdict = verify.verify_normal_forms(tower.base)
        head = header_for(tower)
    else:
        spec = resolve_split_spec(tower.base, args.d)
        if args.theorem == "3.1":
            verdict = verify.verify_split_theorem_3_1(spec)
        else:
            verdict = verify.search_theorem_7_2_analogue(spec)
        head = header_for(tower, d=spec.d)
    return emit(args, head, verdict.to_json_dict(), verdict.passed, theorem=args.theorem)


def cmd_census(args) -> int:
    from .engine import census, spaces

    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    spec = TwistedFieldSpec(tower, c)
    if args.scan_all:
        if args.v:
            print("note: census --scan-all ignores --v", file=sys.stderr)
        report = census.scan_orbit(spec, workers=args.workers)
        return emit(args, header_for(tower, c), report.to_json_dict(), report.match)
    if not args.v:
        raise UsageError("census needs --v or --scan-all")
    v = parse_pair_vector(tower, args.v)
    if spaces.classify(tower.base, v) == spaces.ZERO:
        raise UsageError("census base vector must be nonzero")
    alg = to_structure_constants(spec)
    report = census.per_vector_profile(alg, v, algebra_class=isotopy_class(spec))
    return emit(args, header_for(tower, c), report.to_json_dict(), report.match,
                csv_rows=report.csv_rows())


def cmd_line_census(args) -> int:
    from .engine import census, spaces

    tower = resolve_tower(args.q)
    c = resolve_c(tower, args)
    if not args.v:
        raise UsageError("line-census needs --v")
    spec = TwistedFieldSpec(tower, c)
    alg = to_structure_constants(spec)
    v = parse_pair_vector(tower, args.v)
    if spaces.classify(tower.base, v) != spaces.NONDEGENERATE:
        raise UsageError("line profile needs a nondegenerate base vector")
    report = census.line_profile(alg, v, algebra_class=isotopy_class(spec))
    return emit(args, header_for(tower, c), report.to_json_dict(), report.match)


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
        if args.format != "json" and (args.command != "census" or args.scan_all):
            raise UsageError(f"--format {args.format} is only available for census --v")
        if args.workers != 1 and not (args.command == "census" and args.scan_all):
            name = "census --v" if args.command == "census" else args.command
            print(f"note: {name} ignores --workers", file=sys.stderr)
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

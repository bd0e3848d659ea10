"""Command-line front end: classify, invert, det, bench, and sweep.

Exit codes: 0 for a completed run, 1 for usage or parse problems, 2 when an
enumeration hit its resource bound, 3 when a finite-case equivalence check
failed (which would mean a genuine bug somewhere, so it gets its own code).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bench import run_bench
from .determinant import branch_determinant, invert_via_det
from .errors import (
    DeterminantUndefinedError,
    GroupdetError,
    InversionError,
    ParseError,
    ResourceLimitError,
    StructuralError,
)
from .groups import CATALOG, build_group, catalog_groups
from .matrices import DEFAULT_AUT_ENUM_LIMIT, EndoMatrix, map_to_dict, matrix_from_dict, matrix_to_dict
from .pairs import PairReport, classify_pair

__all__ = ["CATALOG", "catalog_groups", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VIOLATION = 3


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    max_order = _flag(
        "--max-order",
        type=int,
        default=DEFAULT_AUT_ENUM_LIMIT,
        metavar="N",
        help=f"largest product order enumerated exhaustively (default {DEFAULT_AUT_ENUM_LIMIT})",
    )
    as_json = _flag("--json", action="store_true", help="emit JSON instead of text")
    seed = _flag("--seed", type=int, default=0, metavar="U64", help="PRNG seed")
    branch = _flag(
        "--branch",
        choices=("h", "k", "auto"),
        default="h",
        help="which diagonal entry to pivot on (default h: invert the second factor's entry)",
    )

    parser = argparse.ArgumentParser(
        prog="groupdet",
        description="Invertibility of endomorphisms of direct products, by determinants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[max_order, as_json], help="pair predicate report")
    p.add_argument("h_spec", metavar="H")
    p.add_argument("k_spec", metavar="K")

    p = sub.add_parser("invert", parents=[branch], help="closed-form matrix inverse (JSON)")
    p.add_argument("h_spec", metavar="H")
    p.add_argument("k_spec", metavar="K")
    p.add_argument("matrix_file", metavar="MATRIX_JSON")

    p = sub.add_parser("det", parents=[as_json, branch], help="print a determinant's value table")
    p.add_argument("h_spec", metavar="H")
    p.add_argument("k_spec", metavar="K")
    p.add_argument("matrix_file", metavar="MATRIX_JSON")

    p = sub.add_parser(
        "bench", parents=[as_json, seed, branch], help="naive vs determinant step counts"
    )
    p.add_argument("h_spec", metavar="H")
    p.add_argument("k_spec", metavar="K")
    p.add_argument("--trials", type=int, default=10, metavar="N")

    p = sub.add_parser("sweep", parents=[max_order, as_json], help="classify all catalog pairs")
    p.add_argument(
        "order",
        type=int,
        metavar="MAX_FACTOR_ORDER",
        help="keep catalog groups of at most this order",
    )
    return parser


def _load_matrix(args) -> EndoMatrix:
    """The matrix in ``args.matrix_file``; any fault of the file, an invalid map
    included, is a ParseError naming it, not a failed equivalence check."""
    path = args.matrix_file
    try:
        with open(path, "rb") as fh:
            m = matrix_from_dict(json.loads(fh.read().decode("utf-8")))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: matrix file is not UTF-8 text") from None
    except RecursionError:
        raise ParseError(f"{path}: matrix file nests too deeply") from None
    except (json.JSONDecodeError, GroupdetError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    expected = tuple(build_group(s).name for s in (args.h_spec, args.k_spec))
    got = tuple(f.name for f in m.factors)
    if got != expected:
        raise ParseError(f"{path}: matrix file is over {got}, command line says {expected}")
    return m


def _emit(args, payload: dict | list, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _print_undefined(exc: DeterminantUndefinedError) -> None:
    payload = {
        "error": "determinant-undefined",
        "message": str(exc),
        "pivot_index": exc.pivot_index,
        "fallback": "naive",
    }
    print(json.dumps(payload, indent=2))


def _report_text(r: PairReport) -> str:
    length = f" (length {r.total_length})" if r.total_length is not None else ""
    lines = [
        f"pair ({r.h_spec}, {r.k_spec})",
        f"  incompatible:            {r.incompatible}",
        f"  centrally incompatible:  {r.centrally_incompatible}",
        f"  totally incompatible:    {r.totally_incompatible}{length}",
        f"  common direct factor:    "
        + ("none" if r.common_factor is None else f"order {r.common_factor.h_factor.order}"),
        f"  A is a subgroup:         {r.a_is_subgroup}",
        f"  Aut equals A:            {r.a_equals_aut}",
    ]
    if r.incomplete:
        lines.append("  (incomplete: enumeration bound hit; raise --max-order)")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    report = classify_pair(args.h_spec, args.k_spec, max_product_order=args.max_order)
    _emit(args, report.as_dict(), _report_text(report))
    return EXIT_RESOURCE if report.incomplete else EXIT_OK


def cmd_invert(args) -> int:
    m = _load_matrix(args)
    try:
        inverse = invert_via_det(m, branch=args.branch)
    except DeterminantUndefinedError as exc:
        _print_undefined(exc)
        return EXIT_OK
    except InversionError as exc:
        print(json.dumps({"error": "not-invertible", "message": str(exc)}, indent=2))
        return EXIT_OK
    print(json.dumps(matrix_to_dict(inverse), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_det(args) -> int:
    m = _load_matrix(args)
    try:
        branch, value = branch_determinant(m, args.branch)
    except DeterminantUndefinedError as exc:
        _print_undefined(exc)
        return EXIT_OK
    g = value.domain
    table = "\n".join(f"  {g.labels[x]} -> {g.labels[value.values[x]]}" for x in range(g.order))
    _emit(
        args,
        {"branch": branch, "determinant": map_to_dict(value)},
        f"det_{branch} over {g.name}:\n{table}",
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    h, k = build_group(args.h_spec), build_group(args.k_spec)
    records = run_bench(h, k, trials=args.trials, seed=args.seed, branch=args.branch)
    if args.json:
        print(json.dumps([r.as_dict() for r in records], indent=2, sort_keys=True))
        return EXIT_OK
    print(f"pair ({h.name}, {k.name})  trials {args.trials}  seed {args.seed}  branch {args.branch}")
    for method in ("naive", "determinant"):
        rows = [r for r in records if r.method == method]
        headlines = sorted({r.steps_headline for r in rows})
        span = str(headlines[0]) if len(headlines) == 1 else f"{headlines[0]}..{headlines[-1]}"
        invertible = sum(r.verdict for r in rows)
        mean_time = sum(r.wall_time for r in rows) / len(rows)
        print(
            f"  {method:<12} headline steps {span:<10} "
            f"invertible {invertible}/{len(rows)}  mean {mean_time:.2e}s"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    groups = catalog_groups(args.order)
    reports: list[PairReport] = []
    violations: list[str] = []
    incomplete = False
    for i, h in enumerate(groups):
        for k in groups[i:]:
            try:
                report = classify_pair(h, k, max_product_order=args.max_order)
            except StructuralError as exc:
                violations.append(f"({h.name}, {k.name}): {exc}")
                continue
            reports.append(report)
            incomplete = incomplete or report.incomplete
    if args.json:
        print(
            json.dumps(
                {
                    "reports": [r.as_dict() for r in reports],
                    "violations": violations,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for r in reports:
            print(_report_text(r))
        for v in violations:
            print(f"VIOLATION {v}")
        print(f"{len(reports)} pairs, {len(violations)} violations")
    if violations:
        return EXIT_VIOLATION
    return EXIT_RESOURCE if incomplete else EXIT_OK


# Argument dest -> its name on the command line; each value must be at least 1.
_POSITIVE = {"max_order": "--max-order", "trials": "--trials", "order": "MAX_FACTOR_ORDER"}

_COMMANDS = {
    "classify": cmd_classify,
    "invert": cmd_invert,
    "det": cmd_det,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        for dest, name in _POSITIVE.items():
            value = getattr(args, dest, None)
            if value is not None and value < 1:
                raise ParseError(f"{name} must be at least 1, got {value}")
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except StructuralError as exc:
        print(f"equivalence check failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except GroupdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

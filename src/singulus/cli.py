"""Command-line front end.

Exit codes follow a stable contract: 0 means the input is consistent,
1 means an input or usage error, 2 means a mathematical obstruction was
found.  Reports are byte-deterministic: working primes and line-sampling
seeds derive from a digest of the canonicalized input.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .documents import (
    canonical_json,
    hilbert_to_document,
    load_table_file,
    render_report_text,
    report_to_document,
    table_to_document,
)
from .errors import DocumentError
from .oracle import _validate, cross_check
from .polynomials import _input_digest, infer_variable_count, parse, squarefree_check
from .rules import full_report, hspog_dim_guarantee, koszul_smooth_table


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="singulus",
        description=(
            "Exact analysis of graded Betti tables of Jacobian algebras and "
            "cross-validation against explicit defining polynomials."
        ),
    )
    parser.add_argument("--version", action="version", version=f"singulus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze-betti", help="run every obstruction check on a Betti table document"
    )
    p_analyze.add_argument("path", help="JSON table document")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")

    p_inspect = sub.add_parser(
        "inspect-poly",
        help="compute Hilbert data and the Betti table of a polynomial and cross-check them",
    )
    src = p_inspect.add_mutually_exclusive_group(required=True)
    src.add_argument("path", nargs="?", help="file containing the polynomial expression")
    src.add_argument("--expr", help="polynomial expression literal")
    p_inspect.add_argument("--n", type=int, help="top variable index (default: inferred)")
    p_inspect.add_argument("--max-degree", type=int, help="Betti degree bound")
    p_inspect.add_argument(
        "--prime", type=int, action="append", help="working prime (repeatable)"
    )
    p_inspect.add_argument("--window", type=int, help="Hilbert window upper bound")
    p_inspect.add_argument("--format", choices=("text", "json"), default="text")

    p_smooth = sub.add_parser(
        "smooth-table", help="print the Betti table document of a smooth hypersurface"
    )
    p_smooth.add_argument("n", type=int)
    p_smooth.add_argument("d", type=int)

    p_hspog = sub.add_parser(
        "hspog",
        help="degree threshold above which a plus-one generated table forces dim n-2",
    )
    p_hspog.add_argument("n", type=int)
    p_hspog.add_argument("d", type=int)

    return parser


def cmd_analyze_betti(args) -> int:
    try:
        table, metadata, digest = load_table_file(args.path)
    except DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report = full_report(table)
    info = {"kind": "betti-analysis", "digest": digest}
    if metadata.get("label"):
        info["label"] = metadata["label"]
    doc = report_to_document(
        report, info, extra={"betti_columns": table_to_document(table)["columns"]}
    )
    _emit(doc, args.format)
    return 0 if not report.obstructions else 2


def cmd_inspect_poly(args) -> int:
    if args.expr is not None:
        text = args.expr
    else:
        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
    # syntax and validation errors are ValueErrors, reported by main
    n = args.n if args.n is not None else infer_variable_count(text)
    f = parse(text, n)
    _validate(f)

    digest = _input_digest(f)
    squarefree = squarefree_check(f)

    cross = cross_check(
        f, window=args.window, max_degree=args.max_degree, primes=args.prime
    )

    hard_failures = [
        dev for dev in cross.deviations if dev.startswith(("hilbert_fit failed", "graded_betti failed"))
    ]

    info = {
        "kind": "polynomial-inspection",
        "digest": digest,
        "expression": str(f),
        "n": f.n,
        "degree": f.degree,
    }
    extra = {"deviations": cross.deviations, "squarefree": squarefree}
    warnings = []
    if not squarefree:
        warnings.append("the polynomial appears to have a repeated factor")
    if args.prime and len(set(args.prime)) == 1:
        warnings.append(
            f"ranks mod the single prime {args.prime[0]} are not certified; "
            "pass two distinct primes to certify them"
        )
    if warnings:
        extra["warnings"] = warnings
    if cross.hilbert is not None:
        extra["hilbert"] = hilbert_to_document(cross.hilbert)
    if cross.table is not None:
        extra["betti_columns"] = table_to_document(cross.table)["columns"]

    _emit(report_to_document(cross.rule_report, info, extra=extra), args.format)

    if hard_failures:
        for dev in hard_failures:
            sys.stderr.write(f"error: {dev}\n")
        return 1
    if cross.deviations or cross.rule_report.obstructions:
        return 2
    return 0


def cmd_smooth_table(args) -> int:
    table = koszul_smooth_table(args.n, args.d)
    sys.stdout.write(canonical_json(table_to_document(table)))
    return 0


def cmd_hspog(args) -> int:
    guaranteed, g, threshold = hspog_dim_guarantee(args.n, args.d)
    verdict = "guaranteed" if guaranteed else "not guaranteed"
    sys.stdout.write(
        f"n={args.n} d={args.d}\n"
        f"g(d) = {args.n + 1}*d^2 - {2 * args.n * (args.n + 1)}*d + {4 * args.n * args.n} "
        f"= {g}\n"
        f"threshold: d > {threshold['description']} ~= {threshold['decimal']}\n"
        f"dim of the singular locus equals n-2 for plus-one generated tables: {verdict}\n"
    )
    return 0


def _emit(doc: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(render_report_text(doc))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze-betti":
            return cmd_analyze_betti(args)
        if args.command == "inspect-poly":
            return cmd_inspect_poly(args)
        if args.command == "smooth-table":
            return cmd_smooth_table(args)
        if args.command == "hspog":
            return cmd_hspog(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())

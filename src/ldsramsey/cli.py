"""Command-line surface.

Exit codes are part of the contract: 0 means the command ran and produced
its normal result, including "none" and "invalid" answers; 1 is a usage
or parameter error; 2 means a limit was hit (the node budget, Python's
recursion limit or memory) or a certification was refuted, so the run is
inconclusive or negative; 3 is an I/O or parse failure.  With --json
every command prints exactly one JSON document on stdout and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .coloring import Color, ColoringFormatError, parse_coloring, serialize_coloring
from .constructions import FAMILIES, certify
from .detect import find_mono_lds, verify_witness
from .formulas import bound_report
from .lds import LdsParams, Witness
from .search import (
    EmbeddingLimitExceeded,
    ExactValue,
    Indeterminate,
    ValueInterval,
    check_export_cap,
    compute_ramsey,
    write_dimacs,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here wants 1
    def error(self, message: str):  # noqa: ANN201 - argparse signature
        raise _UsageError(message)


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--c", type=int, required=True, help="link length (vertices on the path)")
    sub.add_argument("--n", type=int, required=True, help="leaves at the first center")
    sub.add_argument("--m", type=int, required=True, help="leaves at the second center")
    sub.add_argument("--json", action="store_true")


def _params_of(args: argparse.Namespace) -> LdsParams:
    return LdsParams(c=args.c, n=args.n, m=args.m)


def _emit(args: argparse.Namespace, doc: object, plain: str) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(plain)


def _cmd_bound(args: argparse.Namespace) -> int:
    report = bound_report(_params_of(args))
    exact = "none" if report.exact is None else str(report.exact)
    plain = (
        f"{report.params.label()}: lower={report.lower} branch={report.lower_branch} "
        f"exact={exact} provenance={report.provenance}"
    )
    _emit(args, report.to_json_dict(), plain)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    params = _params_of(args)
    coloring = FAMILIES[args.family](params)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(serialize_coloring(coloring))
    report = certify(coloring, params, construction=args.family) if args.certify else None
    doc = {
        "family": args.family,
        "params": params.to_json_dict(),
        "r": coloring.r,
        "path": args.out,
        "report": report.to_json_dict() if report else None,
    }
    plain = f"wrote {args.out} r={coloring.r}"
    if report is not None:
        plain += f" verdict={report.verdict} method={report.method}"
    _emit(args, doc, plain)
    return 0 if report is None or report.verdict == "certified" else 2


def _read_coloring(path: str):
    with open(path, encoding="ascii") as fh:
        return parse_coloring(fh.read())


def _cmd_detect(args: argparse.Namespace) -> int:
    coloring = _read_coloring(args.coloring)
    restrict = Color.from_label(args.color) if args.color else None
    witness = find_mono_lds(coloring, _params_of(args), restrict)
    if witness is None:
        _emit(args, None, "none")
    else:
        doc = witness.to_json_dict()
        _emit(args, doc, json.dumps(doc, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    coloring = _read_coloring(args.coloring)
    with open(args.witness, encoding="ascii") as fh:
        text = fh.read()
    try:
        witness = Witness.from_json_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        # bad JSON, JSON nested beyond the parser's recursion, or valid JSON
        # of the wrong shape: each is a parse failure of an input file
        print(f"error: {exc}", file=sys.stderr)
        return 3
    ok = verify_witness(coloring, _params_of(args), witness)
    _emit(args, {"valid": ok}, "valid" if ok else "invalid")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    outcome = compute_ramsey(_params_of(args), args.r_lo, args.r_hi, args.node_limit)
    result = outcome.result
    if isinstance(result, ExactValue):
        plain = f"exact={result.value}"
    elif isinstance(result, ValueInterval):
        tag = "" if result.hi_certified else " (hi uncertified)"
        plain = f"interval=[{result.lo},{result.hi}]{tag}"
    else:
        plain = f"indeterminate: {result.reason}"
    plain += f" nodes={outcome.nodes_explored}"
    if outcome.limit_hit:
        plain += " limit-hit"
    _emit(args, outcome.to_json_dict(), plain)
    return 2 if isinstance(result, Indeterminate) or outcome.limit_hit else 0


def _cmd_sat_export(args: argparse.Namespace) -> int:
    params = _params_of(args)
    # a refused export must not create or truncate the file
    check_export_cap(params, args.r)
    with open(args.out, "w", encoding="ascii") as fh:
        n_vars, n_clauses = write_dimacs(params, args.r, fh)
    doc = {"path": args.out, "r": args.r, "vars": n_vars, "clauses": n_clauses}
    _emit(args, doc, f"wrote {args.out} vars={n_vars} clauses={n_clauses}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ldsramsey", description="Ramsey laboratory for linked double stars")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("bound", help="closed-form bounds and exact values")
    _add_params(sub)
    sub.set_defaults(func=_cmd_bound)

    sub = subs.add_parser("construct", help="build an extremal coloring and write it to a file")
    _add_params(sub)
    sub.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sub.add_argument("--out", required=True)
    sub.add_argument("--certify", action="store_true")
    sub.set_defaults(func=_cmd_construct)

    sub = subs.add_parser("detect", help="find a monochromatic copy in a coloring file")
    _add_params(sub)
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--color", choices=("red", "blue"))
    sub.set_defaults(func=_cmd_detect)

    sub = subs.add_parser("verify", help="check a stored witness against a coloring")
    _add_params(sub)
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--witness", required=True)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("search", help="determine the Ramsey number by exhaustive search")
    _add_params(sub)
    sub.add_argument("--r-lo", type=int, default=None)
    sub.add_argument("--r-hi", type=int, default=None)
    sub.add_argument("--node-limit", type=int, default=None)
    sub.set_defaults(func=_cmd_search)

    sub = subs.add_parser("sat-export", help="write a DIMACS CNF for external solving")
    _add_params(sub)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_sat_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ColoringFormatError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EmbeddingLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # Python's own limits, such as a detector path deeper than the
        # recursion limit or a K_r too large to allocate: inconclusive
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

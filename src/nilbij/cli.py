"""Command-line interface: JSON in, JSON (or a small table) out.

Data commands (forward, inverse, fitting, degree, joyal-forward,
joyal-inverse) read one JSON document from --input or standard input
and write canonical JSON (sorted keys, no insignificant whitespace) to
--output or standard output, so piping forward into inverse reproduces
the original document byte for byte.  Report commands (count-nilpotents,
verify-theorem, verify-degrees, verify-joyal) take the grid point as
flags, take no --input, and print a table by default or JSON with
--json, to --output or standard output.  Each command is one row of
``_COMMANDS``.

Exit codes: 0 success/verified, 1 a verification check failed, 2 bad
input or usage, undecodable documents and grid points beyond --budget
included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from .bijection import NilpotentPair, degree, forward, inverse
from .census import (
    DEFAULT_BUDGET,
    _table,
    count_nilpotents,
    expected_strata,
    verify_degree_refinement,
    verify_joyal,
    verify_theorem,
)
from .errors import NilbijError, SchemaError, _json_fields, _trusted
from .field import FieldSpec
from .fitting import fitting_decompose
from .joyal import EndoFunction, Tree, joyal_forward, joyal_inverse
from .linalg import Matrix


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_json(args: argparse.Namespace, stdin) -> object:
    """The one JSON document of a data command, from --input or stdin.
    Undecodable bytes, syntax errors and integers past Python's digit
    limit (each a ``ValueError``) and too deep nesting are bad input."""
    try:
        text = Path(args.input).read_text() if args.input else stdin.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def _write(args: argparse.Namespace, stdout, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        stdout.write(text)


def _run_data(compute, args, stdin, stdout) -> int:
    _write(args, stdout, canonical_dumps(compute(_read_json(args, stdin))))
    return 0


def _run_report(compute, args, stdin, stdout) -> int:
    """Write the report's table, or its payload with --json; exit 1
    unless the payload is ``ok``."""
    payload, table = compute(args)
    _write(args, stdout, canonical_dumps(payload) if args.json else table + "\n")
    return 0 if payload["ok"] else 1


# -- data commands: parsed document -> JSON result ----------------------
def _forward(doc):
    pair = NilpotentPair.from_json(doc)
    return forward(pair.t, pair.v).to_json()


def _inverse(doc):
    return _trusted(NilpotentPair, *inverse(Matrix.from_json(doc))).to_json()


def _fitting(doc):
    return fitting_decompose(Matrix.from_json(doc)).to_json()


def _degree(doc):
    pair = NilpotentPair.from_json(doc)
    return {"degree": degree(pair.t, pair.v)}


def _joyal_forward(doc):
    tree, v, v2 = _json_fields(doc, "joyal-forward", "tree", "v", "v2")
    return joyal_forward(Tree.from_json(tree), v, v2).to_json()


def _joyal_inverse(doc):
    tree, v, v2 = joyal_inverse(EndoFunction.from_json(doc))
    return {"tree": tree.to_json(), "v": v, "v2": v2}


# -- report commands: parsed flags -> (JSON payload, table) ----------------
def _field_from_args(args: argparse.Namespace) -> FieldSpec:
    poly = None
    if args.poly is not None:
        try:
            poly = tuple(int(c) for c in args.poly.split(","))
        except ValueError as exc:
            raise SchemaError(f"--poly must be comma-separated integers: {exc}") from exc
    return FieldSpec(args.p, args.k, poly)


def _count_nilpotents(args):
    spec = _field_from_args(args)
    count = count_nilpotents(spec, args.n, args.budget)
    expected = expected_strata(spec.q, args.n)[0]
    ok = count == expected
    payload = {"q": spec.q, "n": args.n, "count": count, "expected": expected, "ok": ok}
    title = f"nilpotent operators over GF({spec.q}), n = {args.n}"
    return payload, _table(title, 10, (("count", count), ("expected", expected)), (), ok)


def _verify_theorem(args):
    report = verify_theorem(_field_from_args(args), args.n, args.budget)
    return report.to_json(), report.render_table()


def _verify_degrees(args):
    spec = _field_from_args(args)
    strata = verify_degree_refinement(spec, args.n, args.budget)
    ok = all(s.ok for s in strata)
    payload = {"q": spec.q, "n": args.n, "strata": [s.to_json() for s in strata], "ok": ok}
    lines = [
        f"degree refinement over GF({spec.q}), n = {args.n}",
        f"{'k':>4} {'left':>10} {'right':>10} {'forward':>8}",
    ]
    for s in strata:
        lines.append(
            f"{s.k:>4} {s.left_count:>10} {s.right_count:>10} "
            f"{'ok' if s.forward_consistent else 'BAD':>8}"
        )
    lines.append(f"status: {'ok' if ok else 'FAILED'}")
    return payload, "\n".join(lines)


def _verify_joyal(args):
    report = verify_joyal(args.n, args.budget)
    return report.to_json(), report.render_table()


# -- the command table ------------------------------------------------------

_OUTPUT = ("--output", dict(help="write to this file instead of stdout"))
_IO = (("--input", dict(help="read JSON from this file instead of stdin")), _OUTPUT)
_GRID = (
    ("--p", dict(type=int, required=True, help="field characteristic (prime)")),
    ("--k", dict(type=int, default=1, help="extension degree (default 1)")),
    ("--poly", dict(help="reduction polynomial, comma-separated coefficients "
                         "c0,c1,...,ck (constant term first); built-in for small fields")),
    ("--n", dict(type=int, required=True, help="ambient dimension")),
)
_REPORT = (
    ("--json", dict(action="store_true", help="emit canonical JSON instead of a table")),
    ("--budget", dict(type=int, default=DEFAULT_BUDGET,
                      help=f"enumeration size guard (default {DEFAULT_BUDGET})")),
    _OUTPUT,
)
_VERTICES = (("--n", dict(type=int, required=True, help="number of vertices")),)

# (name, help, flags, run, compute), in the order of ``nilbij --help``.
_COMMANDS = (
    ("forward", "pair JSON {T, v} -> operator JSON", _IO, _run_data, _forward),
    ("inverse", "operator JSON -> pair JSON {T, v}", _IO, _run_data, _inverse),
    ("fitting", "operator JSON -> Fitting data JSON", _IO, _run_data, _fitting),
    ("degree", "pair JSON {T, v} -> {degree}", _IO, _run_data, _degree),
    ("count-nilpotents", "exhaustively count nilpotent operators",
     _GRID + _REPORT, _run_report, _count_nilpotents),
    ("verify-theorem", "audit the bijection exhaustively",
     _GRID + _REPORT, _run_report, _verify_theorem),
    ("verify-degrees", "audit the per-degree refinement",
     _GRID + _REPORT, _run_report, _verify_degrees),
    ("joyal-forward", "{tree, v, v2} JSON -> function JSON", _IO, _run_data,
     _joyal_forward),
    ("joyal-inverse", "function JSON -> {tree, v, v2} JSON", _IO, _run_data,
     _joyal_inverse),
    ("verify-joyal", "audit the tree bijection exhaustively",
     _VERTICES + _REPORT, _run_report, _verify_joyal),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    :func:`main` call; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="nilbij",
        description="Exact bijections between nilpotent pairs and linear operators "
        "over finite fields, with the tree/endofunction analogue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, run, compute in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            sp.add_argument(flag, **options)
        sp.set_defaults(func=functools.partial(run, compute))
    return parser


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        # argparse prints usage, errors and --help to sys.stdout/stderr
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args, stdin, stdout)
    except (NilbijError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

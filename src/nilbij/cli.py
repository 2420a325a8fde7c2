"""Command-line interface: JSON in, JSON (or a small table) out.

Data commands (forward, inverse, fitting, degree, joyal-forward,
joyal-inverse) read one JSON document from --input or standard input
and write canonical JSON (sorted keys, no insignificant whitespace) to
--output or standard output, so piping forward into inverse reproduces
the original document byte for byte.  Report commands (count-nilpotents,
verify-theorem, verify-degrees, verify-joyal) take the grid point as
flags and print a table by default or JSON with --json.

Exit codes: 0 success/verified, 1 a verification check failed, 2 bad
input or usage.
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
    count_nilpotents,
    verify_degree_refinement,
    verify_joyal,
    verify_theorem,
)
from .errors import NilbijError, SchemaError, _json_int
from .field import FieldSpec
from .fitting import fitting_decompose
from .joyal import EndoFunction, Tree, joyal_forward, joyal_inverse
from .linalg import Matrix


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_json(args: argparse.Namespace, stdin) -> object:
    text = Path(args.input).read_text() if args.input else stdin.read()
    return json.loads(text)


def _write(args: argparse.Namespace, stdout, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        stdout.write(text)


def _field_from_args(args: argparse.Namespace) -> FieldSpec:
    poly = None
    if args.poly is not None:
        try:
            poly = tuple(int(c) for c in args.poly.split(","))
        except ValueError as exc:
            raise SchemaError(f"--poly must be comma-separated integers: {exc}") from exc
    return FieldSpec(args.p, args.k, poly)


def _cmd_forward(args, stdin, stdout) -> int:
    pair = NilpotentPair.from_json(_read_json(args, stdin))
    _write(args, stdout, canonical_dumps(forward(pair.t, pair.v).to_json()))
    return 0


def _cmd_inverse(args, stdin, stdout) -> int:
    q = Matrix.from_json(_read_json(args, stdin))
    t, v = inverse(q)
    _write(args, stdout, canonical_dumps(NilpotentPair(t, v).to_json()))
    return 0


def _cmd_fitting(args, stdin, stdout) -> int:
    q = Matrix.from_json(_read_json(args, stdin))
    _write(args, stdout, canonical_dumps(fitting_decompose(q).to_json()))
    return 0


def _cmd_degree(args, stdin, stdout) -> int:
    pair = NilpotentPair.from_json(_read_json(args, stdin))
    _write(args, stdout, canonical_dumps({"degree": degree(pair.t, pair.v)}))
    return 0


def _cmd_joyal_forward(args, stdin, stdout) -> int:
    payload = _read_json(args, stdin)
    if not isinstance(payload, dict):
        raise SchemaError("joyal-forward input must be an object")
    try:
        tree = Tree.from_json(payload["tree"])
        v, v2 = _json_int(payload["v"], "v"), _json_int(payload["v2"], "v2")
    except KeyError as exc:
        raise SchemaError(f"bad joyal-forward payload: {exc}") from exc
    _write(args, stdout, canonical_dumps(joyal_forward(tree, v, v2).to_json()))
    return 0


def _cmd_joyal_inverse(args, stdin, stdout) -> int:
    f = EndoFunction.from_json(_read_json(args, stdin))
    tree, v, v2 = joyal_inverse(f)
    _write(args, stdout, canonical_dumps({"tree": tree.to_json(), "v": v, "v2": v2}))
    return 0


def _emit_report(args, stdout, payload: dict, table: str) -> None:
    if args.json:
        _write(args, stdout, canonical_dumps(payload))
    else:
        _write(args, stdout, table + "\n")


def _cmd_count_nilpotents(args, stdin, stdout) -> int:
    spec = _field_from_args(args)
    count = count_nilpotents(spec, args.n, args.budget)
    expected = spec.q ** (args.n * (args.n - 1))
    ok = count == expected
    payload = {
        "q": spec.q, "n": args.n, "count": count, "expected": expected, "ok": ok,
    }
    table = "\n".join(
        [
            f"nilpotent operators over GF({spec.q}), n = {args.n}",
            f"{'count':<10}{count}",
            f"{'expected':<10}{expected}",
            f"{'status':<10}{'ok' if ok else 'FAILED'}",
        ]
    )
    _emit_report(args, stdout, payload, table)
    return 0 if ok else 1


def _cmd_verify_theorem(args, stdin, stdout) -> int:
    report = verify_theorem(_field_from_args(args), args.n, args.budget)
    _emit_report(args, stdout, report.to_json(), report.render_table())
    return 0 if report.ok else 1


def _cmd_verify_degrees(args, stdin, stdout) -> int:
    spec = _field_from_args(args)
    strata = verify_degree_refinement(spec, args.n, args.budget)
    ok = all(s.ok for s in strata)
    payload = {
        "q": spec.q,
        "n": args.n,
        "strata": [s.to_json() for s in strata],
        "ok": ok,
    }
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
    _emit_report(args, stdout, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_verify_joyal(args, stdin, stdout) -> int:
    report = verify_joyal(args.n, args.budget)
    _emit_report(args, stdout, report.to_json(), report.render_table())
    return 0 if report.ok else 1


def _add_io_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", help="read JSON from this file instead of stdin")
    sp.add_argument("--output", help="write to this file instead of stdout")


def _add_field_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sp.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sp.add_argument(
        "--poly",
        help="reduction polynomial, comma-separated coefficients c0,c1,...,ck "
        "(constant term first); built-in for small fields",
    )


def _add_report_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--json", action="store_true", help="emit canonical JSON instead of a table"
    )
    sp.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"enumeration size guard (default {DEFAULT_BUDGET})",
    )
    _add_io_flags(sp)


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

    sp = sub.add_parser("forward", help="pair JSON {T, v} -> operator JSON")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_forward)

    sp = sub.add_parser("inverse", help="operator JSON -> pair JSON {T, v}")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_inverse)

    sp = sub.add_parser("fitting", help="operator JSON -> Fitting data JSON")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_fitting)

    sp = sub.add_parser("degree", help="pair JSON {T, v} -> {degree}")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_degree)

    sp = sub.add_parser(
        "count-nilpotents", help="exhaustively count nilpotent operators"
    )
    _add_field_flags(sp)
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    _add_report_flags(sp)
    sp.set_defaults(func=_cmd_count_nilpotents)

    sp = sub.add_parser("verify-theorem", help="audit the bijection exhaustively")
    _add_field_flags(sp)
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    _add_report_flags(sp)
    sp.set_defaults(func=_cmd_verify_theorem)

    sp = sub.add_parser("verify-degrees", help="audit the per-degree refinement")
    _add_field_flags(sp)
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    _add_report_flags(sp)
    sp.set_defaults(func=_cmd_verify_degrees)

    sp = sub.add_parser("joyal-forward", help="{tree, v, v2} JSON -> function JSON")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_joyal_forward)

    sp = sub.add_parser("joyal-inverse", help="function JSON -> {tree, v, v2} JSON")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_joyal_inverse)

    sp = sub.add_parser("verify-joyal", help="audit the tree bijection exhaustively")
    sp.add_argument("--n", type=int, required=True, help="number of vertices")
    _add_report_flags(sp)
    sp.set_defaults(func=_cmd_verify_joyal)

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
    except NilbijError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def entry() -> None:
    sys.exit(main())

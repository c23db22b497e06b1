"""Command-line front end: term, matrix, sum, gf, verify, bench.

Exit codes: 0 success, 2 usage/parse/constraint error, 3 precision
exhausted, 4 cross-strategy value mismatch.  Big integers are emitted as
decimal strings in JSON (never floats -- values outgrow 64-bit parsers
within a few dozen indices).

Each command returns its answer once, as an Output; `emit` alone knows
the formats.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace

from .bench import STRATEGIES, run_bench
from .binet import DEFAULT_PRECISION
from .core import SequenceKind, to_decimal
from .errors import PrecisionExhausted, StrategyMismatch, UnknownIdentity
from .identities import (PROFILE_BOUNDS, Profile, format_report_table,
                         registry, report_to_dict, verify_record)
from .matrices import Mat3, MatrixKind, k_matrix, t_matrix
from .series import (SumSpec, gf_coeffs, gf_matrix_coeffs, partial_sum,
                     partial_sum_bruteforce)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_MISMATCH = 4

# command-line kind -> sequence, e.g. "T", "KM"
KINDS = {kind.value: kind for kind in (*SequenceKind, *MatrixKind)}
_SCALAR_CHOICES = sorted(kind.value for kind in SequenceKind)
_BENCH_FIELDS = ("strategy", "kind", "n", "elapsed_ms", "big_adds",
                 "big_muls", "mat_muls", "precision")


@dataclass(frozen=True)
class Output:
    """A command's answer, numbers as decimal strings, in every format."""

    text: str           # plain
    data: object        # JSON document
    header: list        # CSV header
    rows: list          # CSV rows
    code: int = EXIT_OK


def emit(out: Output, fmt: str) -> None:
    if fmt == "plain":
        print(out.text)
    elif fmt == "json":
        print(json.dumps(out.data))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows)


def _bits(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number of bits "
            "(check --precision and TRIBKIT_PRECISION)") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribkit",
        description="Exact Tribonacci / Tribonacci-Lucas computation, "
                    "matrix sequences, sums, series and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, precision=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain", help="output format")
        if precision:
            # argparse runs a string default through `type` as well
            p.add_argument("--precision", type=_bits,
                           default=os.environ.get("TRIBKIT_PRECISION",
                                                  DEFAULT_PRECISION),
                           help="working precision in bits "
                                "(default: TRIBKIT_PRECISION or 256)")
        return p

    p = command("term", cmd_term, "nth term of T or K", precision=True)
    p.add_argument("kind", choices=_SCALAR_CHOICES)
    p.add_argument("n", type=int)
    p.add_argument("--strategy", choices=tuple(STRATEGIES),
                   default="iterate")

    p = command("matrix", cmd_matrix, "nth matrix term TM(n) or KM(n)")
    p.add_argument("kind", choices=_SCALAR_CHOICES)
    p.add_argument("n", type=int)

    p = command("sum", cmd_sum, "closed-form sum of n terms at m*i + j")
    p.add_argument("kind", choices=sorted(KINDS))
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true",
                   help="also run the brute-force oracle and compare")

    p = command("gf", cmd_gf, "leading generating-function coefficients")
    p.add_argument("kind", choices=sorted(KINDS))
    p.add_argument("count", type=int)

    p = command("verify", cmd_verify, "run identity verification")
    p.add_argument("ids", nargs="*", help="identity ids (default: all)")
    p.add_argument("--profile", choices=[pr.value for pr in Profile],
                   default=Profile.STANDARD.value)

    p = command("bench", cmd_bench, "compare nth-term strategies",
                precision=True)
    p.add_argument("--n", required=True,
                   help="comma-separated indices, e.g. 1000,100000")
    p.add_argument("--strategies", default="iterate,matpow",
                   help="comma-separated subset of " + ",".join(STRATEGIES))
    p.add_argument("--kind", choices=_SCALAR_CHOICES, default="T")

    return parser


def _value(value) -> tuple[str, object, list[str], list[list]]:
    """Plain text, JSON value, CSV columns and CSV cells of an int or Mat3.

    Matrix cells carry 1-based row and column, matching the prose
    convention.
    """
    if isinstance(value, Mat3):
        grid = value.decimal_rows()
        cells = [[r + 1, c + 1, x] for r, row in enumerate(grid)
                 for c, x in enumerate(row)]
        return ("\n".join(map(" ".join, grid)), grid,
                ["row", "col", "value"], cells)
    text = to_decimal(value)
    return text, text, ["value"], [[text]]


def _answer(fields: dict, value, wrap: bool = True,
            extra: dict | None = None) -> Output:
    """One value with the fields that name it.

    JSON is an object of the fields, the value and `extra` -- or, with
    wrap=False, the bare value; each CSV row repeats the fields.
    """
    extra = extra or {}
    text, data, columns, cells = _value(value)
    return Output(
        text, {**fields, "value": data, **extra} if wrap else data,
        [*fields, *columns, *extra],
        [[*fields.values(), *cell, *extra.values()] for cell in cells])


def cmd_term(args) -> Output:
    value = STRATEGIES[args.strategy](KINDS[args.kind], args.n,
                                      args.precision, None)
    return _answer({"kind": args.kind, "n": args.n,
                    "strategy": args.strategy}, value)


def cmd_matrix(args) -> Output:
    fn = t_matrix if args.kind == "T" else k_matrix
    return _answer({"kind": args.kind, "n": args.n}, fn(args.n), wrap=False)


def cmd_sum(args) -> Output:
    spec = SumSpec(KINDS[args.kind], args.m, args.j, args.n)
    value = partial_sum(spec)
    if args.check:
        oracle = partial_sum_bruteforce(spec)
        if value != oracle:
            raise StrategyMismatch(
                f"closed form {_value(value)[0]} disagrees with "
                f"brute force {_value(oracle)[0]} for {spec}")
    out = _answer({"kind": args.kind, "m": args.m, "j": args.j,
                   "n": args.n}, value,
                  extra={"check": "ok"} if args.check else None)
    if args.check:
        out = replace(out, text=out.text
                      + "\ncheck: closed form matches brute force")
    return out


def cmd_gf(args) -> Output:
    kind = KINDS[args.kind]
    scalar = isinstance(kind, SequenceKind)
    coeffs = (gf_coeffs if scalar else gf_matrix_coeffs)(kind, args.count)
    answers = [_answer({"kind": args.kind, "i": i}, c, wrap=False)
               for i, c in enumerate(coeffs)]
    if scalar:
        text = " ".join(a.text for a in answers)
    else:
        text = "\n".join(f"{i}: " + a.text.replace("\n", " | ")
                         for i, a in enumerate(answers))
    return Output(text, [a.data for a in answers], answers[0].header,
                  [row for a in answers for row in a.rows])


def cmd_verify(args) -> Output:
    records = {record.id: record for record in registry()}
    for identity_id in args.ids:
        if identity_id not in records:
            raise UnknownIdentity(identity_id)
    bounds = PROFILE_BOUNDS[Profile(args.profile)]
    reports = [verify_record(records[identity_id], bounds)
               for identity_id in args.ids or records]
    failed = [r.identity_id for r in reports if not r.passed]
    summary = (f"FAILED: {', '.join(failed)}" if failed
               else f"all {len(reports)} identities passed")
    return Output(
        format_report_table(reports) + "\n" + summary,
        [report_to_dict(r) for r in reports],
        ["id", "status", "cases", "failures", "elapsed_ms"],
        [[r.identity_id, "pass" if r.passed else "fail", r.cases,
          len(r.failures), round(r.elapsed_s * 1000, 3)] for r in reports],
        code=1 if failed else EXIT_OK)


def cmd_bench(args) -> Output:
    ns = [int(part) for part in args.n.split(",") if part]
    strategies = [part for part in args.strategies.split(",") if part]
    results = run_bench(KINDS[args.kind], ns, strategies, args.precision)
    rows = [dict(zip(_BENCH_FIELDS, (
        r.strategy, args.kind, r.n, round(r.elapsed_s * 1000, 3),
        r.big_adds, r.big_muls, r.mat_muls, r.precision)))
        for r in results]
    lines = [f"{'STRATEGY':<10} {'N':>12} {'MS':>12} {'ADDS':>12} "
             f"{'MULS':>12} {'MATMULS':>8}  PRECISION"]
    for row in rows:
        prec = row["precision"] if row["precision"] is not None else "-"
        lines.append(f"{row['strategy']:<10} {row['n']:>12} "
                     f"{row['elapsed_ms']:>12.3f} {row['big_adds']:>12} "
                     f"{row['big_muls']:>12} {row['mat_muls']:>8}  {prec}")
    # csv writes None (no precision) as an empty field
    return Output("\n".join(lines), rows, list(_BENCH_FIELDS),
                  [list(row.values()) for row in rows])


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.handler(args)
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except StrategyMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except UnknownIdentity as exc:
        print(f"error: unknown identity: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit(out, args.format)
    return out.code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

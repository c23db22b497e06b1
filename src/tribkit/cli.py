"""Command-line front end: term, matrix, sum, gf, verify, bench.

Exit codes: 0 success, 2 usage/parse/constraint error, 3 precision
exhausted, 4 cross-strategy value mismatch, 5 out of memory.  Big
integers are emitted as decimal strings in JSON (never floats -- values
outgrow 64-bit parsers within a few dozen indices).

Each command states its answer once, as an Output that writes itself in
each format; `emit` writes the one asked for, a listing item by item.
A matrix answer, a term or sum past the index `decimal_route` gives,
and a `gf` listing from the count it gives, is computed on
decimal.Decimal, so it is already decimal text.

`main` parses with one tree per process, so a later in-process call
pays only for `parse_args`; it runs `cmd_<command>` as bound in this
module when it is called.  `build_parser()` returns a fresh tree.  Only
a run that evaluates Binet reads TRIBKIT_PRECISION.

Loading: `bench`, `binet` and `identities` are lazy modules (see
`tribkit`), read here through the module when a command runs, so each
runs only in a process that needs it.  The parser's choices are
constants of this module, checked against their homes by the tests.
`term` and `bench` run `bench` (a `term` on the decimal route does
not), a Binet strategy runs `binet` too, and `verify` runs
`identities`; `matrix`, `sum` and `gf` run none of the three.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator

from . import bench, identities
from .core import DEFAULT_PRECISION, SequenceKind, to_decimal
from .errors import PrecisionExhausted, StrategyMismatch, UnknownIdentity
from .matrices import (Mat3, MatrixKind, decimal_form, decimal_route,
                       decimal_term)
from .series import (SumSpec, decimal_sum, gf_stream, partial_sum,
                     partial_sum_bruteforce)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_MISMATCH = 4
EXIT_MEMORY = 5

# command-line kind -> sequence, e.g. "T", "KM"
KINDS = {kind.value: kind for kind in (*SequenceKind, *MatrixKind)}
_SCALAR_CHOICES = sorted(kind.value for kind in SequenceKind)
# the values of identities.Profile and the names of bench.STRATEGIES,
# stated here so that building the parser runs neither module
_PROFILE_CHOICES = ("quick", "standard", "deep")
_STRATEGY_CHOICES = ("iterate", "matpow", "binet")
_BENCH_FIELDS = ("strategy", "kind", "n", "elapsed_ms", "big_adds",
                 "big_muls", "mat_muls", "precision")


class Output:
    """A command's answer, stated once: `plain(write)`, `json(write)` and
    `csv(write)` each render it in one format."""

    code = EXIT_OK


def _text(value) -> str:
    doc = decimal_form(value)
    return doc if isinstance(doc, str) else "\n".join(map(" ".join, doc))


def _csv_field(x) -> str:
    """A field as csv.writer writes it: None is empty, and a field holding
    a comma or a quote is quoted, its quotes doubled.  A line break is
    refused: csv.writer quotes "\n" but writes "\r" raw."""
    if x is None:
        return ""
    text = x if isinstance(x, str) else str(x)
    if "\r" in text or "\n" in text:
        raise ValueError(f"a CSV field holds a line break: {text!r}")
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_join(fields) -> str:
    return ",".join([_csv_field(x) for x in fields])


# The CSV columns of a number and of a matrix, and a matrix cell's 1-based
# row and column, matching the prose convention, as the fields before
# its value
_CSV_COLUMNS = (("value",), ("row", "col", "value"))
_CSV_CELLS = tuple(f"{r},{c}," for r in (1, 2, 3) for c in (1, 2, 3))


def _csv_prefix(fields: dict) -> str:
    """The values of `fields` as the CSV text before a value's columns."""
    return "".join([_csv_field(x) + "," for x in fields.values()])


def _write_cells(write, head: str, value, tail: str = "\n"):
    """The CSV rows of an int, Decimal or Mat3 between the text `head`
    and `tail`, one write per row; decimal text and indices never need
    quoting."""
    if isinstance(value, Mat3):
        for cell, x in zip(_CSV_CELLS, value.entries):
            write(head + cell + to_decimal(x) + tail)
    else:
        write(head + to_decimal(value) + tail)


@dataclass(frozen=True)
class Value(Output):
    """An int or Mat3 named by `fields`, the keys of its JSON object
    (bare=True: the value alone) and the first CSV columns; `extra`
    follows the value there, and `note` lines follow it in plain text."""

    fields: dict
    value: object
    bare: bool = False
    extra: dict = field(default_factory=dict)
    note: tuple = ()

    def plain(self, write):
        write("\n".join([_text(self.value), *self.note]) + "\n")

    def json(self, write):
        doc = decimal_form(self.value)
        if not self.bare:
            doc = {**self.fields, "value": doc, **self.extra}
        write(json.dumps(doc) + "\n")

    def csv(self, write):
        columns = _CSV_COLUMNS[isinstance(self.value, Mat3)]
        write(_csv_join([*self.fields, *columns, *self.extra]) + "\n")
        tail = "".join(["," + _csv_field(x) for x in self.extra.values()])
        _write_cells(write, _csv_prefix(self.fields), self.value, tail + "\n")


# A matrix of a listing as one line of plain text after its index, and
# as JSON; decimal text never needs escaping.  Their entries are passed
# as a list: `*map(...)` of nine builds a tuple ten long and shrinks it,
# so each one freed stays in CPython's free list of 9-tuples, up to
# 2000 of them (0.2 MiB traced in `gf TM 4000 --format json`).
_PLAIN_MATRIX = "\n{}: {} {} {} | {} {} {} | {} {} {}".format
_JSON_MATRIX = ('[["{}", "{}", "{}"], ["{}", "{}", "{}"], '
                '["{}", "{}", "{}"]]').format


@dataclass(frozen=True)
class Listing(Output):
    """Ints, Decimals or Mat3s drawn one at a time, value i named by
    `fields` and "i"; JSON is an array of the bare values.  A value is
    one write in plain text and JSON, and one per CSV row."""

    fields: dict
    values: Iterator

    def plain(self, write):
        for i, value in enumerate(self.values):
            if isinstance(value, Mat3):  # a line each
                text = _PLAIN_MATRIX(i, *list(map(to_decimal, value.entries)))
            else:
                text = " " + to_decimal(value)
            write(text[1:] if i == 0 else text)
        write("\n")

    def json(self, write):
        write("[")
        for i, value in enumerate(self.values):
            if isinstance(value, Mat3):
                text = _JSON_MATRIX(*list(map(to_decimal, value.entries)))
            else:
                text = '"' + to_decimal(value) + '"'
            write(", " + text if i else text)
        write("]\n")

    def csv(self, write):
        prefix = _csv_prefix(self.fields)
        for i, value in enumerate(self.values):
            if i == 0:
                columns = _CSV_COLUMNS[isinstance(value, Mat3)]
                write(_csv_join([*self.fields, "i", *columns]) + "\n")
            _write_cells(write, f"{prefix}{i},", value)


@dataclass(frozen=True)
class Reports(Output):
    reports: list
    code: int

    def plain(self, write):
        failed = [r.identity_id for r in self.reports if not r.passed]
        write(identities.format_report_table(self.reports) + "\n"
              + (f"FAILED: {', '.join(failed)}" if failed
                 else f"all {len(self.reports)} identities passed") + "\n")

    def json(self, write):
        write(json.dumps([identities.report_to_dict(r)
                          for r in self.reports]) + "\n")

    def csv(self, write):
        write("id,status,cases,failures,elapsed_ms\n")
        for r in self.reports:
            write(_csv_join([r.identity_id, "pass" if r.passed else "fail",
                             r.cases, len(r.failures),
                             round(r.elapsed_s * 1000, 3)]) + "\n")


@dataclass(frozen=True)
class BenchRows(Output):
    rows: list  # dicts of _BENCH_FIELDS

    def plain(self, write):
        line = "{:<10} {:>12} {:>12} {:>12} {:>12} {:>8}  {}\n".format
        write(line(*"STRATEGY N MS ADDS MULS MATMULS PRECISION".split()))
        for r in self.rows:
            write(line(r["strategy"], r["n"], f"{r['elapsed_ms']:.3f}",
                       r["big_adds"], r["big_muls"], r["mat_muls"],
                       "-" if r["precision"] is None else r["precision"]))

    def json(self, write):
        write(json.dumps(self.rows) + "\n")

    def csv(self, write):
        write(_csv_join(_BENCH_FIELDS) + "\n")
        for row in self.rows:  # None (no precision) is an empty field
            write(_csv_join(row.values()) + "\n")


def emit(out: Output, fmt: str) -> None:
    """Write `out` to stdout in `fmt` alone; a listing is drawn only as it
    is written, so it is never held whole."""
    getattr(out, fmt)(sys.stdout.write)


def _bits(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number of bits") from None


def build_parser() -> argparse.ArgumentParser:
    """A fresh argument tree; what a caller does to it never reaches
    `main`."""
    parser = argparse.ArgumentParser(
        prog="tribkit",
        description="Exact Tribonacci / Tribonacci-Lucas computation, "
                    "matrix sequences, sums, series and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, precision=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain", help="output format")
        if precision:
            p.add_argument("--precision", type=_bits,
                           help="working precision in bits (default: "
                                f"TRIBKIT_PRECISION or {DEFAULT_PRECISION})")
        return p

    p = command("term", "nth term of T or K", precision=True)
    p.add_argument("kind", choices=_SCALAR_CHOICES)
    p.add_argument("n", type=int)
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES,
                   default="matpow")

    p = command("matrix", "nth matrix term TM(n) or KM(n)")
    p.add_argument("kind", choices=_SCALAR_CHOICES)
    p.add_argument("n", type=int)

    p = command("sum", "closed-form sum of n terms at m*i + j")
    p.add_argument("kind", choices=sorted(KINDS))
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true",
                   help="also run the brute-force oracle and compare")

    p = command("gf", "leading generating-function coefficients")
    p.add_argument("kind", choices=sorted(KINDS))
    p.add_argument("count", type=int)

    p = command("verify", "run identity verification")
    p.add_argument("ids", nargs="*", help="identity ids (default: all)")
    p.add_argument("--profile", choices=_PROFILE_CHOICES,
                   default="standard")

    p = command("bench", "compare nth-term strategies", precision=True)
    p.add_argument("--n", required=True,
                   help="comma-separated indices, e.g. 1000,100000")
    p.add_argument("--strategies", default="iterate,matpow",
                   help="comma-separated subset of "
                        + ",".join(_STRATEGY_CHOICES))
    p.add_argument("--kind", choices=_SCALAR_CHOICES, default="T")

    return parser


# main's tree, one per process
_shared_parser = functools.cache(build_parser)


def _precision(args, strategies) -> int:
    """--precision, else TRIBKIT_PRECISION if Binet runs, else the default."""
    if args.precision is not None:
        return args.precision
    text = os.environ.get("TRIBKIT_PRECISION")
    if text is None or "binet" not in strategies:
        return DEFAULT_PRECISION
    try:
        return _bits(text)
    except argparse.ArgumentTypeError as exc:
        _shared_parser().error(f"TRIBKIT_PRECISION: {exc}")


def cmd_term(args) -> Output:
    kind = KINDS[args.kind]
    if args.strategy == "matpow" and decimal_route(kind, args.n):
        value = decimal_term(kind, args.n)
    else:
        value = bench.STRATEGIES[args.strategy](
            kind, args.n, _precision(args, [args.strategy]), None)
    return Value({"kind": args.kind, "n": args.n,
                  "strategy": args.strategy}, value)


def cmd_matrix(args) -> Output:
    return Value({"kind": args.kind, "n": args.n},
                 decimal_term(KINDS[args.kind + "M"], args.n), bare=True)


def cmd_sum(args) -> Output:
    spec = SumSpec(KINDS[args.kind], args.m, args.j, args.n)
    fields = {"kind": args.kind, "m": args.m, "j": args.j, "n": args.n}
    if not args.check:
        route = (decimal_sum if decimal_route(spec.kind, spec.top)
                 else partial_sum)
        return Value(fields, route(spec))
    # the oracle is an int, and int() of a Decimal is quadratic
    value = partial_sum(spec)
    oracle = partial_sum_bruteforce(spec)
    if value != oracle:
        raise StrategyMismatch(
            f"closed form {_text(value)} disagrees with "
            f"brute force {_text(oracle)} for {spec}")
    return Value(fields, value, extra={"check": "ok"},
                 note=("check: closed form matches brute force",))


def cmd_gf(args) -> Output:
    kind = KINDS[args.kind]
    one = (decimal.Decimal(1)
           if decimal_route(kind, args.count, listing=True) else 1)
    return Listing({"kind": args.kind}, gf_stream(kind, args.count, one))


def cmd_verify(args) -> Output:
    records = {record.id: record for record in identities.registry()}
    for identity_id in args.ids:
        if identity_id not in records:
            raise UnknownIdentity(identity_id)
    bounds = identities.PROFILE_BOUNDS[identities.Profile(args.profile)]
    reports = [identities.verify_record(records[identity_id], bounds)
               for identity_id in args.ids or records]
    return Reports(reports, 1 if any(not r.passed for r in reports)
                   else EXIT_OK)


def cmd_bench(args) -> Output:
    try:
        ns = [int(part) for part in args.n.split(",") if part]
    except ValueError:
        raise ValueError(f"--n takes comma-separated integers, "
                         f"got {args.n!r}") from None
    strategies = [part for part in args.strategies.split(",") if part]
    results = bench.run_bench(KINDS[args.kind], ns, strategies,
                              _precision(args, strategies))
    return BenchRows([dict(zip(_BENCH_FIELDS, (
        r.strategy, args.kind, r.n, round(r.elapsed_s * 1000, 3),
        r.big_adds, r.big_muls, r.mat_muls, r.precision)))
        for r in results])


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        # looked up per call, so a rebound cmd_* is the one that runs
        out = globals()["cmd_" + args.command](args)
        emit(out, args.format)
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
    except MemoryError:
        print("error: out of memory; ask for a smaller index, count or "
              "profile", file=sys.stderr)
        return EXIT_MEMORY
    return out.code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

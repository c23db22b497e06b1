"""Command-line front end: term, matrix, sum, gf, verify, bench.

Exit codes: `0` success, `1` `verify` found an identity false, `2`
usage, parse or constraint error, `3` precision exhausted, `4`
cross-strategy value mismatch, `5` out of memory, `6` the output could
not be written, `130` interrupted, `141` stdout closed before the
output ended (128 + SIGPIPE).  A parse error prints argparse's usage
and its error; every other failure is one `error:` line on stderr (none
for 141) from its row of `EXITS`, never a traceback.  A fault the
package detects in itself (DivisibilityViolation,
DegenerateDenominator, a trapped decimal signal) keeps its traceback.
A listing streams, so output can precede a failure: on any code but 0,
discard what you read (on `verify`'s 1 the report is whole).

Big integers are emitted as decimal strings in JSON (never floats --
values outgrow 64-bit parsers within a few dozen indices).

Each command states its answer once, as an Output that writes itself in
each format; `emit` writes the one asked for, a listing item by item.
A matrix answer is a `matrices.ZQ`, printed as the rows of its
entries, each of its seven distinct entries converted to text once.  A
`gf` listing of TM or KM holds no matrices: it draws the stream of T or
K and lays each matrix out of a window of their texts
(`_matrix_lines`), about two numbers converted a matrix.  A matrix
answer, a term or sum past the index `decimal_route` gives, and a `gf`
listing from the count it gives, is computed on decimal.Decimal, so it
is already decimal text.

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
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator

from . import bench, identities, matrices
from .core import DEFAULT_PRECISION, SEEDS, SequenceKind, to_decimal, walk
from .errors import PrecisionExhausted, StrategyMismatch, UnknownIdentity
from .matrices import (_MATRICES, KIND_SEEDS, ZQ, MatrixKind, decimal_form,
                       decimal_route, decimal_term)
from .series import (SumSpec, decimal_sum, gf_stream, partial_sum,
                     partial_sum_bruteforce)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_MISMATCH = 4
EXIT_MEMORY = 5
EXIT_OUTPUT = 6
EXIT_INTERRUPT = 130  # 128 + SIGINT
EXIT_PIPE = 141  # 128 + SIGPIPE

# What leaves the process other than an answer or verify's verdict:
# (exception type, exit code, message of its one `error:` line, None for
# none), the first row that matches winning.  `main` applies the rows a
# request can raise; `main_entry` the last three, which only a whole
# process meets, so an in-process caller of `main` still sees them raised.
EXITS = (
    (PrecisionExhausted, EXIT_PRECISION, "{}"),
    (StrategyMismatch, EXIT_MISMATCH, "{}"),
    (UnknownIdentity, EXIT_USAGE, "unknown identity: {0.args[0]}"),
    (ValueError, EXIT_USAGE, "{}"),
    (MemoryError, EXIT_MEMORY,
     "out of memory; ask for a smaller index, count or profile"),
    (BrokenPipeError, EXIT_PIPE, None),  # the reader ended the output
    (OSError, EXIT_OUTPUT, "cannot write the output: {}"),
    (KeyboardInterrupt, EXIT_INTERRUPT, "interrupted"),
)
_REQUEST_EXITS, _PROCESS_EXITS = EXITS[:5], EXITS[5:]

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
    """The plain text of a number or a matrix, a matrix row by row."""
    if isinstance(value, _MATRICES):
        return _PLAIN_GRID.format(*_entry_texts(value))
    return decimal_form(value)


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


def _write_cells(write, head: str, texts, tail: str):
    """The CSV rows of a matrix's nine entry texts, row by row, between
    the text `head` and `tail`, one write per row; decimal text and
    indices never need quoting."""
    for cell, text in zip(_CSV_CELLS, texts):
        write(head + cell + text + tail)


# A matrix laid out from the texts of its nine entries, row by row: as
# a plain answer, as a line of a plain listing after its index, and as
# JSON (byte for byte json.dumps's, since decimal text never needs
# escaping).  "{}" marks a slot.  A single answer fills a layout by
# str.format; a listing splits it once (`_slots`), then sets each
# matrix's texts into the slots and joins them, 3 to 4 times faster than
# str.format, which parses the layout at every call.
_PLAIN_GRID = "{} {} {}\n{} {} {}\n{} {} {}"
_PLAIN_LINE = "\n{}: {} {} {} | {} {} {} | {} {} {}"
_JSON_MATRIX = '[["{}", "{}", "{}"], ["{}", "{}", "{}"], ["{}", "{}", "{}"]]'


def _slots(layout: str) -> list:
    """The fixed pieces of `layout` with a slot between each two: slot k
    is item 2k + 1."""
    pieces = layout.split("{}")
    parts = [None] * (2 * len(pieces) - 1)
    parts[::2] = pieces
    return parts


def _entry_texts(value) -> list:
    """The texts of a matrix's nine entries, row by row.  A ZQ has seven
    distinct entries (`ZQ.entries`: (s + c, s, v, v, a + c, a, a, b, c)),
    and each is converted once; a caller's Mat3 converts all nine."""
    if type(value) is not ZQ:
        return list(map(to_decimal, value.entries))
    e = value.entries
    s1, p0, s0, p1, s_1, p2, s_2 = map(
        to_decimal, (e[0], e[1], e[2], e[4], e[5], e[7], e[8]))
    return [s1, p0, s0, s0, p1, s_1, s_1, p2, s_2]


@dataclass(frozen=True)
class Value(Output):
    """A number or a matrix named by `fields`, the keys of its JSON object
    (bare=True: the value alone) and the first CSV columns; `extra`
    follows the value there, and `note` lines follow it in plain text.
    Neither `fields` nor `extra` has a "value" key."""

    fields: dict
    value: object
    bare: bool = False
    extra: dict = field(default_factory=dict)
    note: tuple = ()

    def plain(self, write):
        write("\n".join([_text(self.value), *self.note]) + "\n")

    def json(self, write):
        if isinstance(self.value, _MATRICES):
            doc = _JSON_MATRIX.format(*_entry_texts(self.value))
        else:
            doc = '"' + to_decimal(self.value) + '"'  # digits need no escape
        if self.bare:
            write(doc + "\n")
            return
        # json.dumps({**fields, "value": doc, **extra}), with doc's
        # digits copied once
        head = json.dumps({**self.fields, "value": 0})[:-2]
        tail = json.dumps(self.extra)[1:-1]
        write("".join([head, doc, ", " + tail if tail else "", "}\n"]))

    def csv(self, write):
        matrix = isinstance(self.value, _MATRICES)
        write(_csv_join([*self.fields, *_CSV_COLUMNS[matrix], *self.extra])
              + "\n")
        head = _csv_prefix(self.fields)
        tail = "".join(["," + _csv_field(x) for x in self.extra.values()])
        if matrix:
            _write_cells(write, head, _entry_texts(self.value), tail + "\n")
        else:
            write(head + to_decimal(self.value) + tail + "\n")


def _matrix_lines(kind: MatrixKind, count: int, one) -> Iterator[list]:
    """The nine entry texts of TM(i) or KM(i) for 0 <= i < count, drawn
    from the stream of the kind's scalar sequence s, T or K, with the
    unit `one`.

    Row r of the matrix at i is (s(i+1-r), p(i-r), s(i-r)), with p(k) =
    s(k) + s(k-1) (`matrices._closed_form`).  So the listing reads
    s(k) for k in [-3, count] and p(k) for k in [-2, count - 1]: s(0) ..
    s(count) from `gf_stream`, the rest from the seeds.  Each number is
    converted to text once, 2*count + 5 in all, and held in a window of
    the last four texts of s and three of p until the lines that repeat
    it are made.  A Decimal p(k) is added by `matrices.EXACT.add`, so
    no digit rounds away in the caller's context and no context is
    entered.  A count below 1 raises here, before anything is drawn.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scalar = KIND_SEEDS[kind][1]
    return _window(gf_stream(scalar, count + 1, one),
                   [walk(SEEDS[scalar], k) for k in (-3, -2, -1)],
                   matrices.EXACT.add if isinstance(one, decimal.Decimal)
                   else operator.add)


def _window(stream: Iterator, below: list, add) -> Iterator[list]:
    """The lines of `_matrix_lines` from the stream s(0), s(1), ... and
    `below`, (s(-3), s(-2), s(-1)); p(k) is add(s(k), s(k-1))."""
    text = to_decimal
    s_3, s_2, s_1 = below
    t2, p2, t1, p1 = text(s_2), text(s_2 + s_3), text(s_1), text(s_1 + s_2)
    before, s = s_1, next(stream)  # s(i-1), s(i)
    t0 = text(s)
    for after in stream:  # s(i+1)
        p0 = text(add(s, before))
        t = text(after)
        yield [t, p0, t0, t0, p1, t1, t1, p2, t2]
        t2, t1, t0, p2, p1 = t1, t0, t, p1, p0
        before, s = s, after


@dataclass(frozen=True)
class Listing(Output):
    """Numbers, or the nine entry texts of each matrix (`_matrix_lines`,
    with matrix=True), drawn one at a time, value i named by `fields`
    and "i"; JSON is an array of the bare values.  A value is one
    write in plain text and JSON, and one per CSV row."""

    fields: dict
    values: Iterator
    matrix: bool = False

    def plain(self, write):
        matrix, line = self.matrix, _slots(_PLAIN_LINE)
        for i, value in enumerate(self.values):
            if matrix:  # a line each
                line[1] = str(i)
                line[3::2] = value
                text = "".join(line)
            else:
                text = " " + to_decimal(value)
            write(text[1:] if i == 0 else text)
        write("\n")

    def json(self, write):
        matrix, grid = self.matrix, _slots(_JSON_MATRIX)
        write("[")
        for i, value in enumerate(self.values):
            if matrix:
                grid[1::2] = value
                text = "".join(grid)
            else:
                text = '"' + to_decimal(value) + '"'
            write(", " + text if i else text)
        write("]\n")

    def csv(self, write):
        matrix = self.matrix
        prefix = _csv_prefix(self.fields)
        write(_csv_join([*self.fields, "i", *_CSV_COLUMNS[matrix]]) + "\n")
        for i, value in enumerate(self.values):
            if matrix:
                _write_cells(write, f"{prefix}{i},", value, "\n")
            else:
                write(f"{prefix}{i},{to_decimal(value)}\n")


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
    if isinstance(kind, MatrixKind):
        return Listing({"kind": args.kind},
                       _matrix_lines(kind, args.count, one), matrix=True)
    return Listing({"kind": args.kind}, gf_stream(kind, args.count, one))


def cmd_verify(args) -> Output:
    records = {record.id: record for record in identities.registry()}
    for identity_id in args.ids:
        if identity_id not in records:
            raise UnknownIdentity(identity_id)
    bounds = identities.PROFILE_BOUNDS[identities.Profile(args.profile)]
    reports = [identities.verify_record(records[identity_id], bounds)
               for identity_id in args.ids or records]
    return Reports(reports, EXIT_FAILED if any(not r.passed for r in reports)
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
    except tuple(row[0] for row in _REQUEST_EXITS) as exc:
        return _exit(exc, _REQUEST_EXITS)
    return out.code


def _exit(exc: BaseException, rows) -> int:
    """The code of the first of `rows` that `exc` matches, after its line
    on stderr."""
    code, message = next(row[1:] for row in rows if isinstance(exc, row[0]))
    if message is not None:
        print("error: " + message.format(exc), file=sys.stderr)
    return code


def main_entry() -> None:
    """The console script: `main`, then stdout flushed, so that a closed
    pipe or a failed write is raised here and not in the flush at exit."""
    try:
        code = main()
        sys.stdout.flush()
    except tuple(row[0] for row in _PROCESS_EXITS) as exc:
        if isinstance(exc, OSError):  # the flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _exit(exc, _PROCESS_EXITS)
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()

"""Matrix text from the two scalar sequences of the paper: a `gf` listing
of TM or KM, and a single matrix answer, each number converted to text
once and laid out byte for byte as the `walk` oracle's entries."""

import csv
import decimal
import functools
import io
import json

import pytest

import tribkit.cli as cli
from tribkit import K_MAT_SEEDS, T_MAT_SEEDS, k_matrix, t_matrix
from tribkit.core import walk
from tribkit.cli import main
from tribkit.matrices import LISTING_DECIMAL_CROSSOVER, ZQ, decimal_form


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _same_text(a: str, b: str) -> bool:
    """a == b, told by the first differing character: pytest's own diff
    of two listings of megabytes would take minutes."""
    if a == b:
        return True
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
              min(len(a), len(b)))
    lo = max(at - 20, 0)
    print(f"differ at {at}: {a[lo:at + 20]!r} != {b[lo:at + 20]!r}")
    return False


def _csv_writer_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@functools.cache
def _oracle_texts(kind: str) -> tuple:
    """The entry texts of the `walk` oracle's matrices 0 .. the crossover,
    row by row, for "TM" or "KM"."""
    seeds = T_MAT_SEEDS if kind == "TM" else K_MAT_SEEDS
    return tuple([str(x) for x in walk(seeds, i).entries]
                 for i in range(LISTING_DECIMAL_CROSSOVER + 2))


def _oracle_listing(kind: str, count: int, fmt: str) -> str:
    """`gf kind count` in `fmt`, laid out from the oracle's entries."""
    texts = _oracle_texts(kind)[:count]
    if fmt == "plain":
        return "".join(f"{i}: {' '.join(t[0:3])} | {' '.join(t[3:6])} | "
                       f"{' '.join(t[6:9])}\n" for i, t in enumerate(texts))
    if fmt == "json":
        return json.dumps([[t[0:3], t[3:6], t[6:9]] for t in texts]) + "\n"
    return _csv_writer_text(
        [["kind", "i", "row", "col", "value"]]
        + [[kind, i, k // 3 + 1, k % 3 + 1, x]
           for i, t in enumerate(texts) for k, x in enumerate(t)])


class TestMatrixText:
    """A `gf` listing of a matrix kind is laid out from the texts of its
    scalar sequence, and a matrix answer from its seven distinct
    entries, each number converted once."""

    @staticmethod
    def conversions(monkeypatch):
        """The list that each `to_decimal` call of the command line
        appends its argument to."""
        calls, real = [], cli.to_decimal

        def spy(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(cli, "to_decimal", spy)
        return calls

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("decimal_unit", [False, True])
    @pytest.mark.parametrize("kind", ["TM", "KM"])
    def test_converts_each_number_once(self, kind, decimal_unit, fmt, capsys,
                                       monkeypatch):
        # 9N at a listing of a matrix at a time; the bound is 2N + 8
        monkeypatch.setattr(cli, "decimal_route",
                            lambda kind, n, listing=False: decimal_unit)
        calls = self.conversions(monkeypatch)
        for count in (1, 2, 3, 40):
            calls.clear()
            code, out, _ = run(["gf", kind, str(count), "--format", fmt],
                               capsys)
            assert code == 0
            assert out == _oracle_listing(kind, count, fmt), count
            assert 0 < len(calls) <= 2 * count + 8, count
            assert any(isinstance(x, decimal.Decimal)
                       for x in calls) is decimal_unit

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("kind", ["TM", "KM"])
    def test_matches_the_walk_oracle(self, kind, fmt, capsys):
        for count in (1, 2, 3, LISTING_DECIMAL_CROSSOVER - 1,
                      LISTING_DECIMAL_CROSSOVER,
                      LISTING_DECIMAL_CROSSOVER + 1):
            code, out, _ = run(["gf", kind, str(count), "--format", fmt],
                               capsys)
            assert code == 0
            assert _same_text(out, _oracle_listing(kind, count, fmt)), count

    def test_caller_context_kept(self, capsys):
        # 28 digits by default: a p(k) added in the caller's context
        # would round
        with decimal.localcontext(decimal.DefaultContext) as caller:
            code, out, _ = run(["gf", "TM", str(LISTING_DECIMAL_CROSSOVER)],
                               capsys)
            assert decimal.getcontext() is caller
            assert caller.prec == 28
        assert code == 0
        assert _same_text(out, _oracle_listing(
            "TM", LISTING_DECIMAL_CROSSOVER, "plain"))

    @pytest.mark.parametrize("argv", [["gf", "TM", "0"], ["gf", "KM", "-1"]])
    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_count_floor_exits_2(self, argv, fmt, capsys):
        code, out, err = run([*argv, "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert "count" in err

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["matrix", "T", "50"], ["matrix", "K", "-50"],
        ["matrix", "T", "5000"], ["sum", "TM", "3", "1", "40"],
        ["sum", "KM", "3", "1", "40", "--check"],
    ])
    def test_answer_converts_seven_entries(self, argv, fmt, capsys,
                                           monkeypatch):
        calls = self.conversions(monkeypatch)
        code, out, _ = run([*argv, "--format", fmt], capsys)
        assert code == 0
        assert len(calls) == 7

    @pytest.mark.parametrize("fields,extra,bare", [
        ({"kind": "T", "n": 5}, {}, True),
        ({"kind": "T", "n": 5}, {}, False),
        ({"kind": "KM", "m": 3, "j": 1, "n": 4}, {"check": "ok"}, False),
        ({}, {}, False),
        ({}, {"check": "ok"}, False),
        ({"kind": 'say "x"', "n": -1}, {"check": "ok"}, False),
    ])
    @pytest.mark.parametrize("value", [
        t_matrix(-9), ZQ.of_matrix(t_matrix(-9)), k_matrix(300),
        ZQ.of_matrix(k_matrix(300)), 7**400, -13])
    def test_json_answer_is_json_dumps(self, fields, extra, bare, value):
        written = []
        cli.Value(fields, value, bare=bare, extra=extra).json(written.append)
        doc = decimal_form(value)
        assert "".join(written) == json.dumps(
            doc if bare else {**fields, "value": doc, **extra}) + "\n"

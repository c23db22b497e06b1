import contextlib
import decimal
import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

import tribkit.cli as cli
import tribkit.matrices as matrices
from tribkit import (MatrixStrategy, lucas_fast, t_matrix, to_decimal,
                     trib_fast)
from tribkit.cli import main
from tribkit.matrices import DECIMAL_CROSSOVER


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Discard:
    """A stdout that counts what is written and keeps none of it."""

    written = 0

    def write(self, text):
        self.written += len(text)  # ASCII: one byte a character


class TestTerm:
    @pytest.mark.parametrize("argv,expected", [
        (["term", "T", "7"], "24"),
        (["term", "K", "0"], "3"),
        (["term", "T", "-12", "--strategy", "iterate"], "-20"),
        (["term", "T", "7", "--strategy", "matpow"], "24"),
        (["term", "K", "-7", "--strategy", "matpow"], "-15"),
        (["term", "T", "7", "--strategy", "binet"], "24"),
        (["term", "K", "-9", "--strategy", "binet"], "23"),
    ])
    def test_values(self, argv, expected, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.strip() == expected

    def test_json(self, capsys):
        code, out, _ = run(["term", "T", "7", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {"kind": "T", "n": 7,
                                   "strategy": "matpow", "value": "24"}

    def test_csv(self, capsys):
        code, out, _ = run(["term", "K", "5", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == ["kind,n,strategy,value", "K,5,matpow,21"]

    def test_iterate_still_named(self, capsys):
        code, out, _ = run(["term", "K", "5", "--strategy", "iterate",
                            "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines() == ["kind,n,strategy,value",
                                    "K,5,iterate,21"]

    def test_parse_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["term", "T", "seven"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_precision_exhausted_exits_3(self, capsys):
        code, _, err = run(["term", "T", "5000", "--strategy", "binet",
                            "--precision", "64"], capsys)
        assert code == 3
        assert "precision" in err

    def test_env_var_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIBKIT_PRECISION", "64")
        code, _, _ = run(["term", "T", "200", "--strategy", "binet"], capsys)
        assert code == 3
        monkeypatch.setenv("TRIBKIT_PRECISION", "4096")
        code, out, _ = run(["term", "T", "200", "--strategy", "binet"],
                           capsys)
        assert code == 0
        from tribkit import trib
        assert out.strip() == str(trib(200))


class TestMatrix:
    def test_json_matches_seed(self, capsys):
        code, out, _ = run(["matrix", "T", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == [["2", "2", "1"], ["1", "1", "1"],
                                   ["1", "0", "0"]]

    def test_plain_lucas_seed(self, capsys):
        code, out, _ = run(["matrix", "K", "0"], capsys)
        assert code == 0
        assert out.splitlines() == ["1 2 3", "3 -2 -1", "-1 4 -1"]

    def test_identity_at_zero(self, capsys):
        code, out, _ = run(["matrix", "T", "0"], capsys)
        assert code == 0
        assert out.splitlines() == ["1 0 0", "0 1 0", "0 0 1"]

    def test_csv_rows(self, capsys):
        code, out, _ = run(["matrix", "T", "1", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind,n,row,col,value"
        assert len(lines) == 10
        assert lines[1] == "T,1,1,1,1"


class TestSum:
    @pytest.mark.parametrize("argv,expected", [
        (["sum", "T", "1", "0", "5"], "8"),
        (["sum", "K", "1", "0", "5"], "25"),
    ])
    def test_values(self, argv, expected, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.strip() == expected

    def test_constraint_violation_exits_2(self, capsys):
        code, _, err = run(["sum", "T", "0", "0", "5"], capsys)
        assert code == 2
        assert "m > j >= 0" in err

    def test_check_flag(self, capsys):
        code, out, _ = run(["sum", "TM", "2", "1", "4", "--check",
                            "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "ok"
        assert payload["value"][1][0] == str(
            sum(__import__("tribkit").trib(2 * i + 1) for i in range(4)))

    def test_matrix_sum_plain(self, capsys):
        code, out, _ = run(["sum", "KM", "1", "0", "3"], capsys)
        assert code == 0
        # KM(0) + KM(1) + KM(2) entrywise
        assert out.splitlines() == ["11 10 7", "7 4 3", "3 4 1"]


class TestGf:
    def test_scalar_plain(self, capsys):
        code, out, _ = run(["gf", "T", "5"], capsys)
        assert code == 0
        assert out.strip() == "0 1 1 2 4"
        code, out, _ = run(["gf", "K", "3"], capsys)
        assert code == 0
        assert out.strip() == "3 1 3"

    def test_matrix_json_identity(self, capsys):
        code, out, _ = run(["gf", "TM", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == [[["1", "0", "0"], ["0", "1", "0"],
                                    ["0", "0", "1"]]]

    def test_count_floor_exits_2(self, capsys):
        code, out, err = run(["gf", "T", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "count" in err

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_listing_streams(self, fmt):
        # memory of about one term: holding the listing, in any format,
        # would take several times the bytes written
        sink = Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["gf", "TM", "4000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 15 * 2**20
        assert peak < sink.written / 4


class TestVerify:
    def test_quick_profile_all_pass(self, capsys):
        code, out, _ = run(["verify", "--profile", "quick"], capsys)
        assert code == 0
        lines = out.splitlines()
        statuses = [line.split()[1] for line in lines[1:-1]]
        assert len(statuses) >= 28
        assert all(status == "PASS" for status in statuses)
        assert lines[-1].startswith("all ")

    def test_selected_ids(self, capsys):
        code, out, _ = run(["verify", "EQ4", "EQ5", "EQ6"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5  # header + 3 rows + summary
        assert "all 3 identities passed" in lines[-1]

    def test_unknown_identity_exits_2(self, capsys):
        code, out, err = run(["verify", "NOPE"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown identity" in err

    def test_json_report_schema(self, capsys):
        code, out, _ = run(["verify", "EQ4", "--profile", "quick",
                            "--format", "json"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert {"id", "anchor", "bounds", "cases", "failures",
                "elapsed_ms"} <= set(reports[0])

    def test_csv_output(self, capsys):
        code, out, _ = run(["verify", "EQ4", "EQ5", "--format", "csv"],
                           capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,status,cases,failures,elapsed_ms"
        assert lines[1].startswith("EQ4,pass,81,0,")

    def test_one_registry_per_request(self, capsys, monkeypatch):
        import tribkit.cli as cli
        original = cli.registry
        calls = []

        def counted():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "registry", counted)
        code, _, _ = run(["verify", "EQ4", "EQ5", "TNEG", "--profile",
                          "quick"], capsys)
        assert code == 0
        assert len(calls) == 1


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run(["bench", "--n", "100,1000",
                            "--strategies", "iterate,matpow",
                            "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("strategy,kind,n,elapsed_ms,big_adds,big_muls,"
                            "mat_muls,precision")
        assert len(lines) == 5

    def test_binet_row_reports_precision(self, capsys):
        code, out, _ = run(["bench", "--n", "10", "--strategies", "binet",
                            "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["precision"] == 256

    def test_unknown_strategy_exits_2(self, capsys):
        code, _, err = run(["bench", "--n", "10", "--strategies", "warp"],
                           capsys)
        assert code == 2
        assert "unknown strategies" in err

    @pytest.mark.parametrize("indices,message", [
        (",", "no indices selected"),
        ("1.5", "--n takes comma-separated integers"),
    ])
    def test_bad_indices_exit_2(self, indices, message, capsys):
        code, out, err = run(["bench", "--n", indices], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_value_mismatch_exits_4(self, capsys, monkeypatch):
        import tribkit.bench as bench
        monkeypatch.setitem(bench.STRATEGIES, "matpow",
                            lambda kind, n, precision, counter: 0)
        code, out, err = run(["bench", "--n", "10",
                              "--strategies", "iterate,matpow"], capsys)
        assert code == 4
        assert out == ""
        assert "disagree" in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["matrix", "T", "2", "--precision", "64"],
        ["verify", "--jobs", "2"],
    ])
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_bad_env_precision_named(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIBKIT_PRECISION", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["term", "T", "5", "--strategy", "binet"])
        assert excinfo.value.code == 2
        assert "TRIBKIT_PRECISION" in capsys.readouterr().err

    def test_bad_env_precision_ignored_without_flag(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("TRIBKIT_PRECISION", "abc")
        code, out, _ = run(["gf", "T", "3"], capsys)
        assert code == 0
        assert out.strip() == "0 1 1"


class TestBigAnswers:
    """Answers far past the 4300-digit int-to-str limit."""

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_term(self, fmt, capsys, unlimited_str):
        from tribkit import trib_fast
        code, out, _ = run(["term", "T", "100000", "--strategy", "matpow",
                            "--format", fmt], capsys)
        assert code == 0
        expected = unlimited_str(trib_fast(100000))
        assert len(expected) > 20000
        if fmt == "plain":
            value = out.strip()
        elif fmt == "json":
            value = json.loads(out)["value"]
        else:
            value = out.splitlines()[-1].split(",")[-1]
        assert value == expected

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_matrix(self, fmt, capsys, unlimited_str):
        from tribkit import k_matrix
        code, out, _ = run(["matrix", "K", "20000", "--format", fmt], capsys)
        assert code == 0
        expected = [unlimited_str(x) for x in k_matrix(20000).entries]
        assert max(map(len, expected)) > 4300
        assert _entries(fmt, out) == expected

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_matrix_sum(self, fmt, capsys, unlimited_str):
        from tribkit import MatrixKind, SumSpec, partial_sum
        code, out, _ = run(["sum", "TM", "3", "1", "10000", "--format", fmt],
                           capsys)
        assert code == 0
        value = partial_sum(SumSpec(MatrixKind.TRIB_MATRIX, 3, 1, 10000))
        expected = [unlimited_str(x) for x in value.entries]
        assert max(map(len, expected)) > 4300
        assert _entries(fmt, out) == expected

    def test_bench_mismatch_exits_4(self, capsys, monkeypatch):
        import tribkit.bench as bench
        from tribkit import trib_fast
        monkeypatch.setitem(bench.STRATEGIES, "matpow",
                            lambda kind, n, precision, counter:
                            trib_fast(n) + 1)
        code, out, err = run(["bench", "--n", "100000",
                              "--strategies", "iterate,matpow"], capsys)
        assert code == 4
        assert out == ""
        assert "disagree" in err

    def test_sum_check_mismatch_exits_4(self, capsys, monkeypatch,
                                        unlimited_str):
        import tribkit.cli as cli
        from tribkit import SequenceKind, SumSpec, partial_sum
        monkeypatch.setattr(cli, "partial_sum_bruteforce",
                            lambda spec: partial_sum(spec) + 1)
        code, out, err = run(["sum", "T", "1", "0", "20000", "--check"],
                             capsys)
        assert code == 4
        assert out == ""
        value = partial_sum(SumSpec(SequenceKind.TRIBONACCI, 1, 0, 20000))
        assert unlimited_str(value + 1) in err


class TestDecimalRoute:
    """`term --strategy matpow` from n = DECIMAL_CROSSOVER up and from
    n = -2 * DECIMAL_CROSSOVER down runs the kernel on decimal.Decimal;
    the int route is its oracle."""

    EDGES = [DECIMAL_CROSSOVER - 1, DECIMAL_CROSSOVER,
             DECIMAL_CROSSOVER + 1, -DECIMAL_CROSSOVER,
             1 - 2 * DECIMAL_CROSSOVER, -2 * DECIMAL_CROSSOVER]

    @pytest.mark.parametrize("n", EDGES)
    @pytest.mark.parametrize("kind", ["T", "K"])
    def test_term_at_the_crossover(self, kind, n, capsys):
        code, out, _ = run(["term", kind, str(n)], capsys)
        assert code == 0
        fast = trib_fast if kind == "T" else lucas_fast
        assert out == to_decimal(fast(n)) + "\n"

    @pytest.mark.parametrize("argv,routed", [
        (["term", "T", str(DECIMAL_CROSSOVER - 1)], False),
        (["term", "K", str(DECIMAL_CROSSOVER)], True),
        (["term", "K", str(-DECIMAL_CROSSOVER)], False),
        (["term", "T", str(1 - 2 * DECIMAL_CROSSOVER)], False),
        (["term", "T", str(-2 * DECIMAL_CROSSOVER)], True),
        (["term", "T", str(DECIMAL_CROSSOVER), "--strategy", "iterate"],
         False),
        (["matrix", "K", str(DECIMAL_CROSSOVER)], False),
    ])
    def test_route_starts_at_the_crossover(self, argv, routed, capsys,
                                           monkeypatch):
        calls = []

        def spy(kind, n):
            calls.append(n)
            return matrices.decimal_term(kind, n)

        monkeypatch.setattr(cli, "decimal_term", spy)
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == ([int(argv[2])] if routed else [])

    def test_million(self, capsys):
        code, out, _ = run(["term", "T", "1000000", "--format", "json"],
                           capsys)
        assert code == 0
        value = json.loads(out)["value"]
        assert len(value) == 264649
        # by matrix products: the int kernel shares the route's read-out
        tm = t_matrix(10**6, MatrixStrategy.MAT_POW)
        assert value == to_decimal(tm.entry(1, 0))

    @pytest.mark.parametrize("argv", [
        ["term", "T", str(DECIMAL_CROSSOVER)],
        ["term", "K", str(-2 * DECIMAL_CROSSOVER)],
    ])
    def test_refuses_to_round(self, argv, capsys, monkeypatch):
        narrow = matrices.EXACT.copy()
        narrow.prec = 50
        monkeypatch.setattr(matrices, "EXACT", narrow)
        with pytest.raises(decimal.Inexact):
            main(argv)
        assert capsys.readouterr().out == ""

    def test_million_memory_of_the_answer(self):
        # the answer's digits and the kernel's temporaries, never a
        # second copy of every digit (such as a digit tuple of it)
        sink = Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["term", "T", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written == 264650
        assert peak <= 8 * sink.written


def _entries(fmt, out):
    """The nine entries of a matrix answer, row-major, as printed."""
    if fmt == "plain":
        return out.split()
    if fmt == "json":
        payload = json.loads(out)
        grid = payload["value"] if isinstance(payload, dict) else payload
        return [x for row in grid for x in row]
    return [line.split(",")[-1] for line in out.splitlines()[1:]]


class TestReadme:
    def test_cli_examples_exit_0(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```text\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        assert len(lines) >= 13
        for line in lines:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "tribkit", line
            assert main(argv[1:]) == 0, line
            capsys.readouterr()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["term", "T", "40", "--format", "json"],
        ["term", "K", "-13", "--format", "csv"],
        ["matrix", "K", "9", "--format", "json"],
        ["matrix", "T", "-4", "--format", "csv"],
        ["sum", "T", "3", "1", "7", "--format", "json"],
        ["sum", "KM", "2", "0", "5", "--format", "csv"],
        ["gf", "K", "12", "--format", "json"],
        ["gf", "KM", "4", "--format", "csv"],
    ])
    def test_byte_identical_output(self, argv, capsys):
        code_a, out_a, _ = run(argv, capsys)
        code_b, out_b, _ = run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_verify_stable_modulo_timing(self, capsys):
        argv = ["verify", "EQ4", "EQ6", "--profile", "quick",
                "--format", "json"]
        _, out_a, _ = run(argv, capsys)
        _, out_b, _ = run(argv, capsys)

        def strip_ms(text):
            return [{k: v for k, v in rep.items() if k != "elapsed_ms"}
                    for rep in json.loads(text)]

        assert strip_ms(out_a) == strip_ms(out_b)

import argparse
import contextlib
import csv
import decimal
import importlib
import io
import json
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tribkit
import tribkit.cli as cli
import tribkit.matrices as matrices
from tribkit import (PROFILE_BOUNDS, MatrixKind, Profile, SequenceKind,
                     SumSpec, T_MAT_SEEDS, k_matrix, lucas_fast, lucas_trib,
                     mat_pow, partial_sum, partial_sum_bruteforce, registry,
                     t_matrix, to_decimal, trib, trib_fast, verify_record)
from tribkit.cli import main
from tribkit.matrices import (DECIMAL_CROSSOVER, LISTING_DECIMAL_CROSSOVER,
                              decimal_form)


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

    @pytest.mark.parametrize("name,argv", [
        ("decimal_term", ["term", "T", "1000000"]),  # in the handler
        ("decimal_form", ["term", "T", "7"]),        # in emit
    ])
    def test_out_of_memory_exits_5(self, name, argv, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, name, exhausted)
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_MEMORY == 5
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1

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
        # memory of a block of terms, the README's promise: holding the
        # listing, in any format, would take 36 times the bound
        sink = Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["gf", "TM", "4000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 18 * 2**20
        assert peak < 2**19


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
        import tribkit.identities as identities
        original = identities.registry
        calls = []

        def counted():
            calls.append(1)
            return original()

        # cli reads the lazy module's binding when verify runs
        monkeypatch.setattr(identities, "registry", counted)
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

    @pytest.mark.parametrize("argv,lines", [
        (["term", "T", "5"], ["7"]),
        (["term", "T", "5", "--strategy", "iterate"], ["7"]),
        (["bench", "--n", "5", "--strategies", "iterate,matpow",
          "--format", "csv"], [",".join(cli._BENCH_FIELDS), "iterate,T,5,",
                               "matpow,T,5,"]),
    ])
    def test_bad_env_precision_ignored_by_exact_runs(self, argv, lines,
                                                     capsys, monkeypatch):
        # only a run that evaluates Binet reads TRIBKIT_PRECISION
        monkeypatch.setenv("TRIBKIT_PRECISION", "abc")
        code, out, _ = run(argv, capsys)
        assert code == 0
        printed = out.splitlines()
        assert len(printed) == len(lines)
        assert all(p.startswith(x) for p, x in zip(printed, lines))

    def test_bad_env_precision_ignored_without_flag(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("TRIBKIT_PRECISION", "abc")
        code, out, _ = run(["gf", "T", "3"], capsys)
        assert code == 0
        assert out.strip() == "0 1 1"


class TestParserConstants:
    """The parser's choices and help are constants that run no lazy
    module; each equals the value at its home."""

    @staticmethod
    def option(command: str, dest: str) -> argparse.Action:
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        return next(a for a in commands.choices[command]._actions
                    if a.dest == dest)

    def test_profiles_are_identities_profiles(self):
        from tribkit import identities
        option = self.option("verify", "profile")
        assert list(option.choices) == [p.value for p in identities.Profile]
        assert option.default == identities.Profile.STANDARD.value

    def test_strategies_are_bench_strategies(self):
        from tribkit import bench
        assert self.option("term", "strategy").choices == tuple(
            bench.STRATEGIES)
        assert self.option("bench", "strategies").help.endswith(
            ",".join(bench.STRATEGIES))

    @pytest.mark.parametrize("command", ["term", "bench"])
    def test_precision_help_is_binet_default(self, command):
        from tribkit import binet
        assert self.option(command, "precision").help == (
            "working precision in bits (default: TRIBKIT_PRECISION or "
            f"{binet.DEFAULT_PRECISION})")


class TestSharedParser:
    """`main` parses with one tree per process, whatever TRIBKIT_PRECISION
    holds, and no parse leaves anything on it for the next call."""

    ONE_OF_EACH = [
        ["term", "T", "40"],
        ["term", "K", "-9", "--strategy", "binet"],
        ["matrix", "K", "9", "--format", "json"],
        ["sum", "T", "3", "1", "7", "--check"],
        ["gf", "KM", "4", "--format", "csv"],
        ["verify", "EQ4", "--profile", "quick"],
        ["bench", "--n", "10", "--strategies", "iterate,matpow"],
    ]

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.delenv("TRIBKIT_PRECISION", raising=False)
        cli._shared_parser.cache_clear()
        yield
        cli._shared_parser.cache_clear()

    @staticmethod
    def count_parsers(monkeypatch) -> list:
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return built

    @staticmethod
    def precision(capsys) -> int:
        """The bits a Binet row of `bench` ran at, as main parsed them."""
        code, out, _ = run(["bench", "--n", "10", "--strategies", "binet",
                            "--format", "json"], capsys)
        assert code == 0
        return json.loads(out)[0]["precision"]

    def test_one_tree_for_many_calls(self, capsys, monkeypatch):
        built = self.count_parsers(monkeypatch)
        cli.build_parser()
        per_tree = len(built)  # the root and one per command
        assert per_tree == 7
        built.clear()
        for _ in range(3):
            for argv in self.ONE_OF_EACH:
                assert main(argv) == 0, argv
        capsys.readouterr()
        assert len(built) == per_tree
        assert cli._shared_parser.cache_info().misses == 1

    def test_env_precision_between_calls(self, capsys, monkeypatch):
        built = self.count_parsers(monkeypatch)
        states = [None, "64", "512", None, "64"]
        for value in states:
            if value is None:
                monkeypatch.delenv("TRIBKIT_PRECISION", raising=False)
            else:
                monkeypatch.setenv("TRIBKIT_PRECISION", value)
            expected = int(value or cli.DEFAULT_PRECISION)
            assert self.precision(capsys) == expected
            # the variable is no default of the tree: a Binet run reads it
            fresh = cli.build_parser().parse_args(["term", "T", "5"])
            assert fresh.precision is None
        # one tree for main, 5 fresh trees for the comparison
        assert len(built) == (1 + len(states)) * 7
        assert cli._shared_parser.cache_info().misses == 1

    @pytest.mark.parametrize("first", [None, "64"])
    def test_corrupt_env_precision_after_valid_call(self, first, capsys,
                                                    monkeypatch):
        if first is not None:
            monkeypatch.setenv("TRIBKIT_PRECISION", first)
        assert self.precision(capsys) == int(first or cli.DEFAULT_PRECISION)
        monkeypatch.setenv("TRIBKIT_PRECISION", "abc")
        for argv in (["term", "T", "5", "--strategy", "binet"],
                     ["bench", "--n", "10", "--strategies", "binet"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "TRIBKIT_PRECISION" in capsys.readouterr().err
        # commands without --precision do not read it
        assert run(["gf", "T", "3"], capsys)[:2] == (0, "0 1 1\n")
        monkeypatch.setenv("TRIBKIT_PRECISION", "64")
        assert self.precision(capsys) == 64

    def test_check_does_not_carry_over(self, capsys):
        code, checked, _ = run(["sum", "T", "3", "1", "7", "--check"],
                               capsys)
        assert code == 0
        assert checked.splitlines()[1] == (
            "check: closed form matches brute force")
        code, out, _ = run(["sum", "T", "3", "1", "7"], capsys)
        assert code == 0
        assert out == checked.splitlines()[0] + "\n"

    def test_precision_flag_does_not_carry_over(self, capsys):
        code, out, _ = run(["bench", "--n", "10", "--strategies", "binet",
                            "--precision", "64", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)[0]["precision"] == 64
        assert self.precision(capsys) == cli.DEFAULT_PRECISION

    def test_ids_do_not_carry_over(self, capsys):
        code, out, _ = run(["verify", "EQ3", "--profile", "quick",
                            "--format", "json"], capsys)
        assert code == 0
        assert [r["id"] for r in json.loads(out)] == ["EQ3"]
        code, out, _ = run(["verify", "--profile", "quick",
                            "--format", "json"], capsys)
        assert code == 0
        assert ([r["id"] for r in json.loads(out)]
                == [record.id for record in registry()])
        assert len(json.loads(out)) == 32

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        assert run(["gf", "T", "3"], capsys)[:2] == (0, "0 1 1\n")
        monkeypatch.setattr(cli, "cmd_gf", lambda args: cli.Value({}, 42))
        assert run(["gf", "T", "3"], capsys)[:2] == (0, "42\n")

    def test_build_parser_is_fresh(self, capsys):
        tree = cli.build_parser()
        assert tree is not cli.build_parser()
        assert run(["term", "T", "7"], capsys)[:2] == (0, "24\n")
        assert tree is not cli._shared_parser()
        # a caller's change to its own tree does not reach main
        tree.add_argument("--only-in-that-tree", required=True)
        assert run(["term", "T", "7"], capsys)[:2] == (0, "24\n")


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
    """`term --strategy matpow` and a scalar `sum` without --check (at
    its top index m*n + j) from DECIMAL_CROSSOVER up and from
    -2 * DECIMAL_CROSSOVER down run the kernel on decimal.Decimal, and
    `matrix` and a matrix `sum` without --check at every index; the int
    route is its oracle."""

    EDGES = [DECIMAL_CROSSOVER - 1, DECIMAL_CROSSOVER,
             DECIMAL_CROSSOVER + 1, -DECIMAL_CROSSOVER,
             1 - 2 * DECIMAL_CROSSOVER, -2 * DECIMAL_CROSSOVER]
    # the edges of the crossover at 10^5, on the decimal route since the
    # route pads its squares past libmpdec's schoolbook band
    FORMER_EDGES = [10**5 - 1, 10**5, 10**5 + 1, -10**5, 1 - 2 * 10**5,
                    -2 * 10**5]

    @pytest.mark.parametrize("n", EDGES + FORMER_EDGES)
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
        # a matrix answer at every index, the former crossover's edges
        # among them
        (["matrix", "K", "1999"], True),
        (["matrix", "K", "2000"], True),
        (["matrix", "T", "-3999"], True),
        (["matrix", "T", "-4000"], True),
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
        tm = mat_pow(T_MAT_SEEDS[1], 10**6)
        assert value == to_decimal(tm.entry(1, 0))

    @pytest.mark.parametrize("kind,m,j,top,routed", [
        ("T", 3, 1, DECIMAL_CROSSOVER - 1, False),
        ("T", 3, 1, DECIMAL_CROSSOVER, True),
        ("T", 3, 1, 10**5, True),  # the former crossover
        ("TM", 7, 3, 1999, True),  # a matrix sum at every top index
        ("KM", 7, 3, 2000, True),
    ])
    def test_sum_routes_by_its_top_index(self, kind, m, j, top, routed,
                                         capsys, monkeypatch):
        # n is the last count whose top index m*n + j stays below `top`,
        # and one more when the route starts there
        n = (top - j - 1) // m + routed
        real, calls = cli.decimal_sum, []

        def spy(spec):
            calls.append(spec.m * spec.n + spec.j)
            return real(spec)

        monkeypatch.setattr(cli, "decimal_sum", spy)
        argv = ["sum", kind, str(m), str(j), str(n)]
        assert main(argv) == 0
        assert len(calls) == routed
        # --check compares with the int oracle, so it stays on ints
        assert main([*argv, "--check"]) == 0
        capsys.readouterr()
        assert len(calls) == routed

    @pytest.mark.parametrize("kind", ["T", "K"])
    def test_matrix_text_on_both_routes(self, kind, capsys):
        # every n in [-300, 300] and +-5*10^4: the decimal route's text
        # is the int kernel's, and a zero entry is "0", never "-0"
        scalar = trib if kind == "T" else lucas_trib
        oracle = t_matrix if kind == "T" else k_matrix
        for n in [*range(-300, 301), 5 * 10**4, -5 * 10**4]:
            out = run(["matrix", kind, str(n)], capsys)[1]
            assert out == cli._text(oracle(n)) + "\n", n
            assert "-0 " not in out and "-0\n" not in out, n
            if abs(n) <= 300:  # the row 2, column 1 entry is s(n)
                assert out.split()[3] == str(scalar(n)), n

    @pytest.mark.parametrize("kind", ["TM", "KM"])
    def test_matrix_sum_text_on_both_routes(self, kind, capsys):
        cases = [(m, j, n) for m in range(1, 7) for j in range(m)
                 for n in range(1, 41)] + [(7, 3, 14285)]  # top 99 998
        for m, j, n in cases:
            out = run(["sum", kind, str(m), str(j), str(n)], capsys)[1]
            spec = SumSpec(cli.KINDS[kind], m, j, n)
            assert out == cli._text(partial_sum(spec)) + "\n", (m, j, n)
            assert "-0" not in out.split(), (m, j, n)

    @staticmethod
    def int_route(out, fmt):
        """What `out` writes in `fmt`: the text of an int answer."""
        written = []
        getattr(out, fmt)(written.append)
        return "".join(written)

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_every_matrix_answer_is_decimal(self, fmt, capsys, monkeypatch):
        # each `matrix` answer, and each matrix `sum` without --check,
        # comes from the decimal route, digit for digit the int kernel's
        calls = []

        def spy(route):
            def called(*args):
                calls.append(route.__name__)
                return route(*args)
            return called

        monkeypatch.setattr(cli, "decimal_term", spy(cli.decimal_term))
        monkeypatch.setattr(cli, "decimal_sum", spy(cli.decimal_sum))
        for n in (0, 1, -1, 2, -2, 7, -7, 100, -100, 1999, 2000, -3999,
                  -4000, 5 * 10**4):
            for kind, oracle in (("T", t_matrix), ("K", k_matrix)):
                calls.clear()
                code, out, _ = run(["matrix", kind, str(n), "--format", fmt],
                                   capsys)
                assert code == 0 and calls == ["decimal_term"], (kind, n)
                expected = cli.Value({"kind": kind, "n": n}, oracle(n),
                                     bare=True)
                assert out == self.int_route(expected, fmt), (kind, n)
        # top indices m*n + j of 1, 10, 1999 and 2000
        for m, j, n in ((1, 0, 1), (3, 1, 3), (7, 4, 285), (7, 5, 285)):
            for kind in ("TM", "KM"):
                calls.clear()
                code, out, _ = run(["sum", kind, str(m), str(j), str(n),
                                    "--format", fmt], capsys)
                assert code == 0 and calls == ["decimal_sum"], (kind, m, j)
                spec = SumSpec(cli.KINDS[kind], m, j, n)
                expected = cli.Value({"kind": kind, "m": m, "j": j, "n": n},
                                     partial_sum(spec))
                assert out == self.int_route(expected, fmt), (kind, m, j)

    @pytest.mark.parametrize("argv", [
        ["term", "T", str(DECIMAL_CROSSOVER)],
        ["term", "K", str(-2 * DECIMAL_CROSSOVER)],
        ["matrix", "K", "50000"],
        ["sum", "KM", "7", "3", "14285"],
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

    def test_matrix_sum_memory_of_the_answer(self):
        sink = Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["sum", "KM", "10", "3", "9999"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written > 9 * 25000  # nine entries near K(99 993)
        assert peak <= 8 * sink.written


def _same_text(a: str, b: str) -> bool:
    """a == b, told by the first differing character: pytest's own diff
    of two multi-megabyte listings would take minutes."""
    if a == b:
        return True
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
              min(len(a), len(b)))
    lo = max(at - 20, 0)
    print(f"differ at {at}: {a[lo:at + 20]!r} != {b[lo:at + 20]!r}")
    return False


class TestGfRoute:
    """`gf` from LISTING_DECIMAL_CROSSOVER coefficients up draws them on
    decimal.Decimal (`gf_stream` with a Decimal unit); the int unit is
    its oracle, byte for byte."""

    @staticmethod
    def outputs(argv, capsys, monkeypatch):
        """The output of `argv` on the route `decimal_route` picks, and on
        the other one, and the unit of the first."""
        units, real = [], cli.gf_stream

        def spy(kind, count, one=1):
            units.append(type(one))
            return real(kind, count, one)

        monkeypatch.setattr(cli, "gf_stream", spy)
        code, routed, _ = run(argv, capsys)
        assert code == 0
        other = units[0] is int
        monkeypatch.setattr(cli, "decimal_route",
                            lambda kind, n, listing=False: other)
        code, forced, _ = run(argv, capsys)
        assert code == 0
        assert units[1] is not units[0]
        return routed, forced, units[0]

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["T", "K", "TM", "KM"])
    def test_both_routes_at_the_crossover(self, kind, offset, fmt, capsys,
                                          monkeypatch):
        count = LISTING_DECIMAL_CROSSOVER + offset
        routed, forced, unit = self.outputs(
            ["gf", kind, str(count), "--format", fmt], capsys, monkeypatch)
        assert unit is (int if offset < 0 else decimal.Decimal)
        assert _same_text(routed, forced)
        assert not re.search(r"(?<!\d)-0(?!\d)", routed)

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_past_the_digit_limit(self, fmt, capsys, monkeypatch,
                                  unlimited_str):
        # T(16499) has 4 366 digits: str() of the int refuses it
        routed, forced, unit = self.outputs(
            ["gf", "T", "16500", "--format", fmt], capsys, monkeypatch)
        assert unit is decimal.Decimal
        assert _same_text(routed, forced)
        last = unlimited_str(trib_fast(16499))
        assert len(last) > 4300
        assert routed.endswith({"plain": f" {last}\n", "json": f'"{last}"]\n',
                                "csv": f"T,16499,{last}\n"}[fmt])

    def test_caller_context_kept(self, capsys):
        # 28 digits by default, far fewer than the listing's longest
        with decimal.localcontext(decimal.DefaultContext) as caller:
            code, out, _ = run(["gf", "T", str(LISTING_DECIMAL_CROSSOVER)],
                               capsys)
            assert decimal.getcontext() is caller
            assert caller.prec == 28
        assert code == 0
        assert out.split() == [str(trib(i))
                               for i in range(LISTING_DECIMAL_CROSSOVER)]


def _entries(fmt, out):
    """The nine entries of a matrix answer, row-major, as printed."""
    if fmt == "plain":
        return out.split()
    if fmt == "json":
        payload = json.loads(out)
        grid = payload["value"] if isinstance(payload, dict) else payload
        return [x for row in grid for x in row]
    return [line.split(",")[-1] for line in out.splitlines()[1:]]


def _csv_writer_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _cells(fields, value):
    """The CSV rows of one answer, as the csv module's rows."""
    doc = decimal_form(value)
    if isinstance(doc, str):
        return [[*fields, doc]]
    return [[*fields, r + 1, c + 1, x] for r, row in enumerate(doc)
            for c, x in enumerate(row)]


class TestCsv:
    """CSV is written without the csv module, one `write` per row, byte
    for byte as csv.writer(lineterminator="\n") writes the same rows."""

    @given(st.lists(st.one_of(
        st.none(), st.integers(), st.floats(allow_nan=False),
        st.text(alphabet='a1-, ".')), min_size=2, max_size=6))
    def test_join_matches_csv_writer(self, fields):
        assert cli._csv_join(fields) + "\n" == _csv_writer_text([fields])

    @pytest.mark.parametrize("argv,rows", [
        (["term", "K", "-13"],
         [["kind", "n", "strategy", "value"],
          ["K", -13, "matpow", lucas_trib(-13)]]),
        (["matrix", "T", "-4"],
         [["kind", "n", "row", "col", "value"],
          *_cells(["T", -4], t_matrix(-4))]),
        (["matrix", "K", "3000"],  # the decimal route
         [["kind", "n", "row", "col", "value"],
          *_cells(["K", 3000], k_matrix(3000))]),
        (["sum", "TM", "2", "1", "4", "--check"],
         [["kind", "m", "j", "n", "row", "col", "value", "check"],
          *[[*row, "ok"] for row in _cells(
              ["TM", 2, 1, 4], partial_sum(SumSpec(MatrixKind.TRIB_MATRIX,
                                                   2, 1, 4)))]]),
        (["sum", "K", "3", "2", "5", "--check"],
         [["kind", "m", "j", "n", "value", "check"],
          ["K", 3, 2, 5, partial_sum_bruteforce(
              SumSpec(SequenceKind.TRIBONACCI_LUCAS, 3, 2, 5)), "ok"]]),
        (["gf", "T", "12"],
         [["kind", "i", "value"], *[["T", i, trib(i)] for i in range(12)]]),
        (["gf", "KM", "4"],
         [["kind", "i", "row", "col", "value"],
          *[row for i in range(4) for row in _cells(["KM", i],
                                                     k_matrix(i))]]),
    ], ids=["term", "matrix", "matrix-decimal", "sum-check-matrix",
            "sum-check", "gf", "gf-matrix"])
    def test_shapes_match_csv_writer(self, argv, rows, capsys):
        code, out, _ = run([*argv, "--format", "csv"], capsys)
        assert code == 0
        assert out == _csv_writer_text(rows)

    def test_reports_match_csv_writer(self):
        records = [r for r in registry() if r.id in ("EQ4", "SUMTHMa")]
        reports = [verify_record(r, PROFILE_BOUNDS[Profile.QUICK])
                   for r in records]
        written = []
        cli.Reports(reports, 0).csv(written.append)
        assert len(written) == 3  # a write per row
        assert "".join(written) == _csv_writer_text(
            [["id", "status", "cases", "failures", "elapsed_ms"]]
            + [[r.identity_id, "pass", r.cases, 0,
                round(r.elapsed_s * 1000, 3)] for r in reports])

    def test_bench_rows_match_csv_writer(self):
        rows = [dict(zip(cli._BENCH_FIELDS, values)) for values in (
            ("iterate", "T", 1000, 0.125, 1996, 0, 0, None),
            ("binet", "K", 50, 2.5, 0, 8, 0, 256))]
        written = []
        cli.BenchRows(rows).csv(written.append)
        assert written[1] == "iterate,T,1000,0.125,1996,0,0,\n"
        assert "".join(written) == _csv_writer_text(
            [cli._BENCH_FIELDS, *(row.values() for row in rows)])

    @pytest.mark.parametrize("label", ["a,b", 'say "x"', '"', ","])
    def test_field_needing_quotes_is_quoted(self, label):
        written = []
        cli.Value({"kind": label, "n": 1}, t_matrix(1)).csv(written.append)
        assert "".join(written) == _csv_writer_text(
            [["kind", "n", "row", "col", "value"],
             *_cells([label, 1], t_matrix(1))])
        # and the csv module reads the label back whole
        rows = list(csv.reader(io.StringIO("".join(written))))
        assert {row[0] for row in rows[1:]} == {label}

    @pytest.mark.parametrize("label", ["two\nlines", "a\rb", "\r\n"])
    def test_field_with_a_line_break_is_refused(self, label):
        written = []
        with pytest.raises(ValueError, match="line break"):
            cli.Value({"kind": label, "n": 1}, 5).csv(written.append)
        assert not any(label in text for text in written)

    def test_reader_gives_the_json_values(self, capsys):
        code, out, _ = run(["gf", "TM", "300", "--format", "json"], capsys)
        assert code == 0
        expected = [x for value in json.loads(out) for row in value
                    for x in row]
        code, out, _ = run(["gf", "TM", "300", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 300 * 9
        assert [row["value"] for row in rows] == expected
        assert rows[9] == {"kind": "TM", "i": "1", "row": "1", "col": "1",
                           "value": "1"}


README = (Path(__file__).parent.parent / "README.md").read_text()


class TestReadme:
    def test_cli_examples_exit_0(self, capsys):
        block = README.split("## CLI", 1)[1].split("```text\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        assert len(lines) >= 13
        shown = 0
        for line in lines:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "tribkit", line
            assert main(argv[1:]) == 0, line
            first = capsys.readouterr().out.split("\n", 1)[0]
            # a comment that starts with numbers or a JSON list, up to an
            # " = " that explains it, is the output's first line
            comment = line.partition("#")[2].strip().split(" = ", 1)[0]
            if re.fullmatch(r"-?\d+( -?\d+)*|\[.*\]", comment):
                assert first == comment, line
                shown += 1
        assert shown == 5

    def test_module_table_names_exist(self):
        table = README.split("## What is in the box", 1)[1].split("\n\n")[1]
        rows = re.findall(r"^\| `(tribkit\.\w+)` +\|(.*)\|$", table, re.M)
        assert len(rows) == 9
        for module_name, contents in rows:
            module = importlib.import_module(module_name)
            for name in re.findall(r"`([A-Za-z_]\w*)(?:\(.*?\))?`", contents):
                assert hasattr(module, name), (module_name, name)


def test_public_surface():
    namespace = {}
    exec("from tribkit import *", namespace)
    assert len(tribkit.__all__) == len(set(tribkit.__all__))
    assert set(tribkit.__all__) <= namespace.keys()


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

"""What a fresh interpreter loads: only Binet evaluation imports mpmath,
and each lazy module (`bench`, `binet`, `identities`) runs only in a
command that reads it.

Each case runs in its own interpreter, since this test session has
imported mpmath and run every module long before; the package comes
from this checkout's `src`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tribkit import to_decimal, trib
from tribkit.matrices import DECIMAL_CROSSOVER

SRC = Path(__file__).resolve().parents[1] / "src"

# The lazy modules that have run, each known by a name it defines:
# until it runs, its dict holds only what the import system put there.
# object.__getattribute__ reads that dict; a plain read would run it.
RAN = """[m for m, name in (("tribkit.bench", "STRATEGIES"),
                         ("tribkit.binet", "compute_roots"),
                         ("tribkit.identities", "registry"))
     if name in object.__getattribute__(sys.modules[m], "__dict__")]"""

# Runs `tribkit.cli.main(argv)` with its stdout kept, then reports the
# exit code, the output, the mpmath modules loaded and the lazy modules
# run by then.
CLI_CASE = f"""
import contextlib, io, json, sys
from tribkit.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({{"code": code, "out": out.getvalue(),
                  "mpmath": [m for m in sys.modules
                             if m.partition(".")[0] == "mpmath"],
                  "ran": {RAN}}}))
"""


def fresh(code: str, *args: str) -> dict:
    """The JSON that `code` prints last, run in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def fresh_cli(argv: list[str]) -> dict:
    return fresh(CLI_CASE, json.dumps(argv))


MPMATH_LOADED = ("import json, sys; print(json.dumps("
                 "[m for m in sys.modules if m.partition('.')[0] == 'mpmath']))")


@pytest.mark.parametrize("module", ["tribkit", "tribkit.cli"])
def test_import_leaves_mpmath_out(module):
    assert fresh(f"import {module}; " + MPMATH_LOADED) == []


@pytest.mark.parametrize("argv", [
    ["term", "T", "50"],
    ["term", "T", str(DECIMAL_CROSSOVER)],  # the decimal route
    ["term", "T", "100000"],  # its former crossover, inside it now
    ["term", "K", "-50", "--strategy", "iterate"],
    ["matrix", "K", "12"],
    ["sum", "T", "3", "1", "40"],
    ["sum", "TM", "3", "1", "40", "--check"],
    ["gf", "KM", "12"],
    ["verify", "--profile", "quick"],
    ["bench", "--n", "200", "--strategies", "iterate,matpow"],
], ids=" ".join)
def test_exact_commands_leave_mpmath_out(argv):
    result = fresh_cli(argv)
    assert result["code"] == 0
    assert result["mpmath"] == []


def test_term_binet_loads_mpmath():
    result = fresh_cli(["term", "T", "200", "--strategy", "binet"])
    assert result["code"] == 0
    assert result["out"].strip() == to_decimal(trib(200))
    assert "mpmath" in result["mpmath"]


def test_bench_binet_loads_mpmath():
    # bench raises StrategyMismatch (exit 4) unless the two values agree
    result = fresh_cli(["bench", "--n", "200,-200", "--kind", "K",
                        "--strategies", "binet,iterate", "--format", "json"])
    assert result["code"] == 0
    rows = json.loads(result["out"])
    assert [(r["strategy"], r["n"]) for r in rows] == [
        ("binet", 200), ("iterate", 200), ("binet", -200), ("iterate", -200)]
    assert "mpmath" in result["mpmath"]


def test_cli_parser_runs_no_lazy_module():
    loaded = fresh("import json, sys, tribkit.cli as cli; cli.build_parser(); "
                   f"print(json.dumps([sorted(sys.modules), {RAN}]))")
    assert loaded[1] == []
    assert {"tribkit.bench", "tribkit.binet",
            "tribkit.identities"} <= set(loaded[0])
    assert [m for m in loaded[0] if m.partition(".")[0] == "mpmath"] == []


@pytest.mark.parametrize("argv,ran", [
    (["term", "T", "100000"], []),  # the decimal route
    (["matrix", "K", "12"], []),
    (["sum", "T", "3", "1", "40"], []),
    (["sum", "KM", "3", "1", "40", "--check"], []),
    (["gf", "TM", "12"], []),
    (["term", "T", "100"], ["tribkit.bench"]),
    (["bench", "--n", "200", "--strategies", "iterate,matpow"],
     ["tribkit.bench"]),
    (["verify", "EQ4", "--profile", "quick"], ["tribkit.identities"]),
    (["term", "K", "30", "--strategy", "binet"],
     ["tribkit.bench", "tribkit.binet"]),
    (["bench", "--n", "30", "--strategies", "binet"],
     ["tribkit.bench", "tribkit.binet"]),
], ids=" ".join)
def test_command_runs_only_its_lazy_modules(argv, ran):
    result = fresh_cli(argv)
    assert result["code"] == 0
    assert result["ran"] == ran


def test_every_public_name_resolves():
    missing = fresh(
        "import json, tribkit\n"
        "from tribkit import registry, compute_roots, run_bench\n"
        "print(json.dumps([n for n in tribkit.__all__\n"
        "                  if not hasattr(tribkit, n)]))")
    assert missing == []


def test_cli_import_binds_binet_functions():
    # perfbench's tracer finds these through sys.modules at startup, and
    # its getattr runs the lazy module there, before any timed request
    names = fresh(
        "import json, sys, tribkit.cli; "
        "binet = sys.modules.get('tribkit.binet'); "
        "print(json.dumps([n for n in ('compute_roots', 'binet_trib', "
        "'binet_lucas') if callable(getattr(binet, n, None))]))")
    assert names == ["compute_roots", "binet_trib", "binet_lucas"]


def timer_calls(probe: str) -> list:
    """`probe` at each timer call of a fresh `run_bench` of binet and
    iterate."""
    return fresh(
        "import json, sys, tribkit.bench as bench\n"
        "from tribkit import SequenceKind\n"
        "real, seen = bench.time.perf_counter, []\n"
        "def timer():\n"
        f"    seen.append({probe})\n"
        "    return real()\n"
        "bench.time.perf_counter = timer\n"
        "bench.run_bench(SequenceKind.TRIBONACCI, [5], ['binet', 'iterate'])\n"
        "bench.time.perf_counter = real\n"
        "print(json.dumps(seen))")


def test_bench_times_no_mpmath_import():
    # every timer call of a binet run finds mpmath loaded already
    assert timer_calls("'mpmath' in sys.modules") == [True] * 4


def test_bench_times_no_binet_module_run():
    # every timer call of a binet run finds the lazy binet module run
    assert timer_calls(RAN) == [["tribkit.bench", "tribkit.binet"]] * 4

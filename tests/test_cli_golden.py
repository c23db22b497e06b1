"""Golden CLI output: every command in every format, byte for byte.

`cli_golden.json` holds the stdout and exit code of each case below as
recorded before the CLI moved to a single output emitter.  Timings are
the only bytes allowed to differ; `strip_timings` blanks them on both
sides.  Every value stays below 4300 digits, the int-to-str limit of the
interpreters the recording must run on.

To re-record from the sources on PYTHONPATH:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("plain", "json", "csv")

COMMANDS = [
    ["term", "T", "7"],
    ["term", "K", "-7"],
    ["term", "T", "-40", "--strategy", "matpow"],
    ["term", "K", "900", "--strategy", "matpow"],
    ["term", "T", "100", "--strategy", "binet"],
    ["term", "K", "-150", "--strategy", "binet", "--precision", "512"],
    ["matrix", "T", "2"],
    ["matrix", "K", "0"],
    ["matrix", "T", "-9"],
    ["matrix", "K", "300"],
    ["sum", "T", "1", "0", "5"],
    ["sum", "K", "3", "2", "20"],
    ["sum", "K", "4", "1", "9", "--check"],
    ["sum", "TM", "2", "1", "4", "--check"],
    ["sum", "KM", "3", "1", "60"],
    ["sum", "KM", "2", "0", "5", "--check"],
    ["gf", "T", "12"],
    ["gf", "K", "5"],
    ["gf", "TM", "4"],
    ["gf", "KM", "3"],
    ["verify", "EQ4", "COR19a", "SUMCORb"],
    ["verify", "THM18a", "TNEG", "--profile", "quick"],
    ["verify", "--profile", "quick"],
    ["bench", "--n", "10,100", "--strategies", "iterate,matpow,binet"],
    ["bench", "--n", "50", "--kind", "K"],
]
CASES = [command + ["--format", fmt] for command in COMMANDS
         for fmt in FORMATS]

# elapsed_ms in JSON; the timing column of verify and bench tables
_TIMINGS = (
    re.compile(r'("elapsed_ms": )[-+.0-9e]+'),
    re.compile(r"^(\S+ +(?:PASS|FAIL) +\d+ +\d+) +[.0-9]+", re.M),
    re.compile(r"^(\w+,(?:pass|fail),\d+,\d+,)[-+.0-9e]+$", re.M),
    re.compile(r"^(\w+ +-?\d+) +[.0-9]+", re.M),
    re.compile(r"^(\w+,[TK],-?\d+,)[-+.0-9e]+", re.M),
)


def strip_timings(argv, out):
    if argv[0] not in ("verify", "bench"):
        return out
    for pattern in _TIMINGS:
        out = pattern.sub(r"\1*", out)
    return out


def run_case(argv):
    from tribkit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "exit": code,
            "stdout": strip_timings(argv, out.getvalue())}


def _golden():
    return {" ".join(case["argv"]): case
            for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_matches_golden(argv):
    assert run_case(argv) == _golden()[" ".join(argv)]


def test_every_case_recorded():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    records = [run_case(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} cases to {GOLDEN}", file=sys.stderr)

"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SEEDS = {"T": (0, 1, 1), "K": (3, 1, 3)}


def exact(kind: str, n: int) -> int:
    """s(n) by walking the recurrence; small |n| only."""
    a, b, c = SEEDS[kind]
    for _ in range(abs(n)):
        a, b, c = (b, c, a + b + c) if n > 0 else (c - b - a, a, b)
    return a


def exact_matrix(kind: str, n: int) -> list[int]:
    s = {d: exact(kind, n + d) for d in range(-3, 2)}
    return [s[1], s[0] + s[-1], s[0], s[0], s[-1] + s[-2], s[-1],
            s[-1], s[-2] + s[-3], s[-2]]


def residues(value: int):
    return tuple(value % p for p in oracle.PRIMES)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_requests(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.requests(workload, 7),
                                 workloads.requests(workload, 7))
                self.assertNotEqual(workloads.requests(workload, 7),
                                    workloads.requests(workload, 8))
                self.assertEqual(len(workloads.requests(workload, 7)),
                                 workloads.RUN_SIZE)

    def test_every_run_reaches_the_top_of_each_range(self):
        sizes = [int(r.argv[2]) for r in workloads.requests("terms", 3)
                 if r.family == "term"]
        self.assertEqual(max(sizes), 10**6)
        tops = [int(r.argv[2]) * int(r.argv[4]) + int(r.argv[3])
                for r in workloads.requests("sums", 3) if r.family == "sum"]
        self.assertTrue(10**5 - 10 < max(tops) <= 10**5)

    def test_verify_sweeps_each_id_equally_often_per_profile(self):
        for seed in range(5):
            swept = {profile: [] for profile in workloads.VERIFY_PLAN}
            for request in workloads.requests("verify", seed):
                _, ids, options = oracle.parse_request(request.argv)
                self.assertLessEqual(len(ids), workloads.MAX_IDS)
                self.assertEqual(len(set(ids)), len(ids))
                if ids:
                    swept[options["profile"]].extend(ids)
            for profile, (count, passes) in workloads.VERIFY_PLAN.items():
                self.assertEqual(sorted(swept[profile]),
                                 sorted(oracle.IDENTITY_IDS * passes))


class OracleTest(unittest.TestCase):
    def test_primes_are_prime(self):
        for p in oracle.PRIMES:
            self.assertEqual(p.bit_length(), 61)
            d, s = p - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                x = pow(a, d, p)
                if x in (1, p - 1):
                    continue
                for _ in range(s - 1):
                    x = x * x % p
                    if x == p - 1:
                        break
                else:
                    self.fail(f"{p} is composite")

    def test_residues_match_exact_values(self):
        for kind in "TK":
            for n in range(-40, 41):
                self.assertEqual(oracle.term_residues(kind, n),
                                 [residues(exact(kind, n))])
                self.assertEqual(oracle.matrix_residues(kind, n),
                                 [residues(x) for x in exact_matrix(kind, n)])
        for kind, m, j, n in [("T", 1, 0, 30), ("K", 7, 3, 11),
                              ("TM", 4, 1, 9), ("KM", 10, 9, 5)]:
            scalar = kind[0]
            terms = [exact_matrix(scalar, m * i + j) if len(kind) == 2
                     else [exact(scalar, m * i + j)] for i in range(n)]
            total = [sum(col) for col in zip(*terms)]
            self.assertEqual(oracle.sum_residues(kind, m, j, n),
                             [residues(x) for x in total])
        self.assertEqual(oracle.gf_residues("K", 20),
                         [residues(exact("K", i)) for i in range(20)])
        self.assertEqual(oracle.gf_residues("TM", 5),
                         [residues(x) for i in range(5)
                          for x in exact_matrix("T", i)])

    def test_reads_numbers_beyond_the_string_digit_limit(self):
        token = "-1" + "0" * 9000
        self.assertEqual(oracle.decimal_residues(token),
                         residues(-10**9000))

    def assert_rejected(self, argv, text):
        with self.assertRaises(oracle.WrongAnswer):
            oracle.check(argv, text)

    def test_rejects_an_off_by_one_value(self):
        value = exact("T", 100)
        for fmt, render in [
                ("plain", lambda v: f"{v}\n"),
                ("json", lambda v: json.dumps(
                    {"kind": "T", "n": 100, "strategy": "matpow",
                     "value": str(v)}) + "\n"),
                ("csv", lambda v: f"kind,n,strategy,value\n"
                                  f"T,100,matpow,{v}\n")]:
            argv = ("term", "T", "100", "--strategy", "matpow",
                    "--format", fmt)
            with self.subTest(fmt=fmt):
                oracle.check(argv, render(value))
                self.assert_rejected(argv, render(value + 1))
                self.assert_rejected(argv, render(value - 1))
        matrix = exact_matrix("K", -9)
        lines = [" ".join(str(x) for x in matrix[r:r + 3]) for r in (0, 3, 6)]
        oracle.check(("matrix", "K", "-9"), "\n".join(lines) + "\n")
        lines[2] = lines[2] + "1"
        self.assert_rejected(("matrix", "K", "-9"), "\n".join(lines) + "\n")

    def test_rejects_a_case_count_off_by_one(self):
        argv = ("verify", "EQ3", "TNEG", "--profile", "quick",
                "--format", "csv")
        good = "id,status,cases,failures,elapsed_ms\nEQ3,pass,21,0,0.1\n" \
               "TNEG,pass,11,0,0.1\n"
        oracle.check(argv, good)
        self.assert_rejected(argv, good.replace("TNEG,pass,11", "TNEG,pass,12"))
        self.assert_rejected(argv, good.replace("TNEG,pass", "TNEG,fail"))

    def test_timing_free_masks_only_timings(self):
        argv = ("verify", "EQ3", "--profile", "quick")
        row = "EQ3        PASS        21        0 {:>9}  T(n) = 2*T(n-1) - T(n-4)"
        text = "ID  STATUS CASES FAILURES MS ANCHOR\n{}\nall 1 identities passed\n"
        fast = text.format(row.format("0.1"))
        slow = text.format(row.format("1234.5"))
        self.assertEqual(oracle.timing_free(argv, fast),
                         oracle.timing_free(argv, slow))
        self.assertNotEqual(oracle.timing_free(argv, fast),
                            oracle.timing_free(argv, fast.replace("21", "22")))


class PercentileTest(unittest.TestCase):
    def outcome(self, seconds: float, failed: bool) -> run.Outcome:
        request = workloads.Request("term", ("term", "T", "1"))
        return run.Outcome(request, 2 if failed else 0, seconds, 0, "",
                           cause="exit 2" if failed else "")

    def test_a_failure_ranks_slower_than_every_success(self):
        outcomes = [self.outcome(s, False) for s in (0.001, 5.0, 170.0)]
        fast_failure = self.outcome(0.0001, True)
        ranked = [run.ranked_ms(o) for o in outcomes + [fast_failure]]
        self.assertEqual(max(ranked), run.ranked_ms(fast_failure))
        self.assertGreater(run.ranked_ms(fast_failure), run.ranked_ms(
            self.outcome(179.0, False)))
        self.assertGreaterEqual(run.percentile(ranked, 90), run.FAILED_MS)
        self.assertEqual(run.percentile(ranked, 50), 5000.0)

    def test_nearest_rank_leaves_ten_samples_beyond_p90_at_100(self):
        values = list(range(1, 101))
        p90 = run.percentile(values, 90)
        self.assertEqual(sum(v > p90 for v in values), 10)


class YardstickTest(unittest.TestCase):
    def test_scale_divides_by_the_local_median_reference_time(self):
        stick = yardstick.Yardstick()
        stick.marks = [1.0] * 10 + [2.0] * 10
        self.assertEqual(stick.scale(2), yardstick.REFERENCE_S / 1.0)
        self.assertEqual(stick.scale(17), yardstick.REFERENCE_S / 2.0)
        self.assertGreater(stick.mark(), 19)


class ContractTest(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class EndToEndTest(unittest.TestCase):
    """Real tribkit answers, small sizes, every command and format."""

    def test_oracle_accepts_tribkit_answers(self):
        sys.path.insert(0, str(run.SRC))
        from tribkit import cli
        argvs = [("term", "K", "-50", "--strategy", "matpow"),
                 ("term", "T", "300", "--strategy", "binet",
                  "--precision", "1024"),
                 ("matrix", "T", "-20"),
                 ("sum", "TM", "3", "2", "7", "--check"),
                 ("sum", "K", "5", "0", "9"),
                 ("gf", "KM", "6"), ("gf", "T", "30"),
                 ("verify", "EQ3", "SUMCORb", "--profile", "quick"),
                 ("verify", "--profile", "quick")]
        for argv, fmt in itertools.product(argvs, workloads.FORMATS):
            request = workloads.Request("test", argv + ("--format", fmt))
            with self.subTest(argv=request.argv):
                outcome = run.execute(cli, request, check=True)
                self.assertEqual(outcome.cause, "")


if __name__ == "__main__":
    unittest.main()

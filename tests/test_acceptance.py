"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `pytest` alone still enforces everything.
"""

import dataclasses
import json
import math
import time

from tribkit import (GridBounds, K_MAT_SEEDS, MatrixKind, OpCounter, Profile,
                     SequenceKind, SumSpec, T_MAT_SEEDS, TermCache,
                     binet_lucas, binet_matrix, binet_trib,
                     check_constant_algebra, compute_roots, binet_constants,
                     gf_coeffs, gf_matrix_coeffs, gf_numerators, k_matrix,
                     lucas_trib, mat_mul, mat_pow, partial_sum,
                     partial_sum_bruteforce, registry, t_matrix, term_reader,
                     trib, trib_fast, verify_all, verify_record)
from tribkit.cli import main
from tribkit.core import walk

T = SequenceKind.TRIBONACCI
K = SequenceKind.TRIBONACCI_LUCAS
TM = MatrixKind.TRIB_MATRIX
KM = MatrixKind.LUCAS_MATRIX

T_TABLE = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504]
T_NEG_TABLE = [0, 0, 1, -1, 0, 2, -3, 1, 4, -8, 5, 7, -20]
K_TABLE = [3, 1, 3, 7, 11, 21, 39, 71, 131, 241, 443, 815, 1499]
K_NEG_TABLE = [3, -1, -1, 5, -5, -1, 11, -15, 3, 23, -41, 21, 43]


def _passed(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_golden_tables():
    start = time.perf_counter()
    values = ([trib(n) for n in range(13)]
              + [trib(-n) for n in range(13)]
              + [lucas_trib(n) for n in range(13)]
              + [lucas_trib(-n) for n in range(13)])
    expected = T_TABLE + T_NEG_TABLE + K_TABLE + K_NEG_TABLE
    elapsed = time.perf_counter() - start
    assert values == expected
    assert len(values) == 52
    assert elapsed < 1.0
    _passed(1, f"52 published table values reproduced exactly in "
               f"{elapsed * 1000:.1f} ms")


def test_criterion_2_initial_matrices():
    # the kernel and its oracles: the walk, matrix powers, KM(0) @ TM(n)
    t_routes = (lambda n: walk(T_MAT_SEEDS, n), t_matrix,
                lambda n: mat_pow(T_MAT_SEEDS[1], n))
    k_routes = (lambda n: walk(K_MAT_SEEDS, n), k_matrix,
                lambda n: mat_mul(K_MAT_SEEDS[0], t_matrix(n)))
    for n in range(3):
        for route in t_routes:
            assert route(n) == T_MAT_SEEDS[n]
        for route in k_routes:
            assert route(n) == K_MAT_SEEDS[n]
    _passed(2, "six defining matrices reproduced entrywise by every route")


def test_criterion_3_strategy_equivalence():
    start = time.perf_counter()
    t_cache = TermCache(T)
    k_cache = TermCache(K)
    for n in range(-200, 201):
        t_ref = walk(T_MAT_SEEDS, n)
        assert term_reader(TM, t_cache)(n) == t_ref
        assert t_matrix(n) == t_ref
        if n >= 0:
            assert mat_pow(T_MAT_SEEDS[1], n) == t_ref
        k_ref = walk(K_MAT_SEEDS, n)
        assert term_reader(KM, k_cache)(n) == k_ref
        assert k_matrix(n) == k_ref
        assert mat_mul(K_MAT_SEEDS[0], t_matrix(n)) == k_ref
    t_cache.get(5000)
    for n in range(0, 5001):
        assert trib_fast(n) == t_cache.get(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(3, f"routes agree on [-200, 200]; trib_fast matches on "
               f"[0, 5000] ({elapsed:.1f} s)")


def test_criterion_4_identity_suite_standard():
    start = time.perf_counter()
    reports = verify_all(Profile.STANDARD)
    elapsed = time.perf_counter() - start
    assert len(reports) >= 28
    failing = [r.identity_id for r in reports if not r.passed]
    assert not failing, failing
    covered = {r.identity_id for r in reports}
    assert {"EQ3", "EQ4", "EQ5", "EQ6"} <= covered
    assert {"THM15a", "THM15b", "THM15c", "THM15e"} <= covered
    assert {"LEM16a", "LEM16b", "COR17a", "COR17b"} <= covered
    assert {"THM18a", "THM18b", "THM18c", "THM18d", "THM18e"} <= covered
    assert {"COR19a", "COR19b", "COR19c", "COR19d", "COR19e"} <= covered
    assert {"THM20a", "THM20b", "THM20c", "THMFINALa", "THMFINALb"} <= covered
    assert {"SUMTHMa", "SUMTHMb", "SUMCORa", "SUMCORb"} <= covered
    assert elapsed < 60.0
    cases = sum(r.cases for r in reports)
    _passed(4, f"{len(reports)} identities, {cases} cases, zero failures "
               f"({elapsed:.1f} s)")


def test_criterion_5_binet_recovery():
    roots = compute_roots(256)
    constants = binet_constants(256, roots)
    t_cache = TermCache(T)
    k_cache = TermCache(K)
    for n in range(-60, 61):
        assert binet_trib(n, 256, roots) == t_cache.get(n)
        assert binet_lucas(n, 256, roots) == k_cache.get(n)
    for n in range(-30, 31):
        assert binet_matrix(TM, n, 256, roots, constants) == \
            term_reader(TM, t_cache)(n)
        assert binet_matrix(KM, n, 256, roots, constants) == \
            term_reader(KM, k_cache)(n)
    report = check_constant_algebra(256, 1e-50, constants)
    assert report.passed, report.worst()
    _passed(5, f"exact recovery on both ranges; worst constant-algebra "
               f"deviation {report.worst().deviation:.2e} < 1e-50")


def test_criterion_6_summation_closed_forms():
    t_cache = TermCache(T)
    k_cache = TermCache(K)
    checked = 0
    for kind in (T, K, TM, KM):
        for m in range(1, 11):
            for j in range(m):
                for n in range(1, 41):
                    spec = SumSpec(kind, m, j, n)
                    assert partial_sum(spec) == \
                        partial_sum_bruteforce(spec), spec
                    checked += 1
    for n in range(1, 101):
        t_num = t_cache.get(n + 2) - t_cache.get(n) - 1
        assert t_num % 2 == 0
        assert partial_sum(SumSpec(T, 1, 0, n)) == t_num // 2
        k_num = k_cache.get(n + 2) - k_cache.get(n)
        assert k_num % 2 == 0
        assert partial_sum(SumSpec(K, 1, 0, n)) == k_num // 2
    _passed(6, f"{checked} closed-form sums matched brute force; "
               "specializations hold on [1, 100]; zero divisibility "
               "violations")


def test_criterion_7_generating_functions():
    t_cache = TermCache(T)
    k_cache = TermCache(K)
    assert gf_coeffs(T, 64) == [t_cache.get(i) for i in range(64)]
    assert gf_coeffs(K, 64) == [k_cache.get(i) for i in range(64)]
    assert gf_matrix_coeffs(TM, 64) == [term_reader(TM, t_cache)(i)
                                        for i in range(64)]
    assert gf_matrix_coeffs(KM, 64) == [term_reader(KM, k_cache)(i)
                                        for i in range(64)]
    n0, n1, n2 = gf_numerators(KM)
    # the three quoted numerator polynomial entries: 1 + 2x + 3x^2,
    # 4 - 6x, and -1 + 5x^2
    assert (n0.entry(0, 0), n1.entry(0, 0), n2.entry(0, 0)) == (1, 2, 3)
    assert (n0.entry(2, 1), n1.entry(2, 1), n2.entry(2, 1)) == (4, -6, 0)
    assert (n0.entry(2, 2), n1.entry(2, 2), n2.entry(2, 2)) == (-1, 0, 5)
    _passed(7, "first 64 coefficients exact for all four series; quoted "
               "numerator entries reconciled")


def test_criterion_8_performance(capsys):
    n = 10**6
    counter = OpCounter()
    start = time.perf_counter()
    trib_fast(n, counter)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    bound = 2 * math.ceil(math.log2(n)) + 2
    assert counter.mat_muls <= bound
    code = main(["bench", "--n", str(n), "--strategies", "iterate,matpow",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0  # run_bench asserted cross-strategy value agreement
    rows = {row["strategy"]: row for row in json.loads(out)}
    assert rows["matpow"]["elapsed_ms"] < rows["iterate"]["elapsed_ms"]
    _passed(8, f"trib_fast(1e6) in {elapsed:.2f} s with "
               f"{counter.mat_muls} <= {bound} matrix products; bench: "
               f"matpow {rows['matpow']['elapsed_ms']:.0f} ms vs "
               f"iterate {rows['iterate']['elapsed_ms']:.0f} ms")


def test_criterion_9_negative_controls(capsys, monkeypatch):
    base = next(r for r in registry() if r.id == "EQ4")
    corrupted = dataclasses.replace(
        base, id="EQ4-corrupt",
        evaluate=lambda n: (lucas_trib(n),
                            3 * trib(n + 1) - 2 * trib(n) + trib(n - 1)))
    report = verify_record(corrupted, GridBounds(signed=10, pair=10))
    assert not report.passed
    assert len(report.failures) > 0

    import tribkit.bench as bench
    monkeypatch.setitem(bench.STRATEGIES, "matpow",
                        lambda kind, n, precision, counter: -1)
    code = main(["bench", "--n", "10", "--strategies", "iterate,matpow"])
    captured = capsys.readouterr()
    assert code == 4
    assert "disagree" in captured.err
    _passed(9, f"corrupted evaluator produced {len(report.failures)} "
               "failures; strategy mismatch exited 4")

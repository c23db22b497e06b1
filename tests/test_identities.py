import json
import random
from collections import Counter

import pytest

from tribkit import (IDENTITY, Arity, GridBounds, IdentityRecord, MatrixKind,
                     PROFILE_BOUNDS, Profile, SequenceKind, SumSpec,
                     TermCache, UnknownIdentity, format_report_table,
                     VerifyReport, lucas_trib, partial_sum_bruteforce,
                     registry, report_to_dict, t_matrix, term_reader, trib,
                     verify, verify_all, verify_record)
from tribkit import identities, matrices
from tribkit.identities import Failure

EXPECTED_IDS = {
    "EQ3", "TNEG", "EQ4", "EQ5", "EQ6",
    "THM15a", "THM15b", "THM15c", "THM15e",
    "LEM16a", "LEM16b",
    "COR17a", "COR17b",
    "THM18a", "THM18b", "THM18c", "THM18d", "THM18e",
    "COR19a", "COR19b", "COR19c", "COR19d", "COR19e",
    "THM20a", "THM20b", "THM20c",
    "THMFINALa", "THMFINALb",
    "SUMTHMa", "SUMTHMb", "SUMCORa", "SUMCORb",
}


class TestRegistry:
    def test_contents(self):
        records = registry()
        ids = [r.id for r in records]
        assert len(ids) == len(set(ids))
        assert set(ids) == EXPECTED_IDS
        assert len(records) >= 28

    def test_declared_arities(self):
        by_id = {r.id: r for r in registry()}
        assert by_id["EQ4"].arity is Arity.N
        assert by_id["THM20a"].arity is Arity.MN
        assert by_id["THM20a"].domain == "m, n >= 0"
        assert by_id["THMFINALa"].arity is Arity.MNR
        assert by_id["THMFINALa"].domain == "n >= r >= 0"
        assert by_id["SUMCORa"].arity is Arity.MNR

    def test_duplicate_statement_noted_once(self):
        by_id = {r.id: r for r in registry()}
        assert "THM15d" not in by_id
        assert by_id["THM15c"].note is not None
        assert "(d)" in by_id["THM15c"].note

    def test_evaluators_return_matching_kinds(self):
        for record in registry():
            indices = next(iter(record.grid(GridBounds(signed=5, pair=5))))
            left, right = record.evaluate(*indices)
            assert type(left) is type(right)

    def test_signed_grids_cover_negative_indices(self):
        by_id = {r.id: r for r in registry()}
        bounds = GridBounds(signed=5, pair=5)
        signed_ids = ["EQ3", "EQ4", "EQ5", "EQ6", "THM15a", "THM15e",
                      "COR17a", "COR17b"]
        for identity_id in signed_ids:
            points = list(by_id[identity_id].grid(bounds))
            assert (-5,) in points and (5,) in points
        # stated for non-negative indices only: swept non-negatively
        for identity_id in ("LEM16a", "LEM16b", "TNEG"):
            points = list(by_id[identity_id].grid(bounds))
            assert min(p[0] for p in points) == 0
        for identity_id in ("THM18a", "THM20a", "COR19a"):
            points = list(by_id[identity_id].grid(bounds))
            assert all(m >= 0 and n >= 0 for m, n in points)


FORMULA_IDS = [
    "EQ3", "TNEG", "EQ4", "EQ5", "EQ6",
    "THM15a", "THM15b", "THM15c", "THM15e", "LEM16a", "LEM16b",
    "COR17a", "COR17b", "THM18a", "THM18b", "THM18c", "THM18d", "THM18e",
    "COR19a", "COR19b", "COR19c", "COR19d", "COR19e",
    "THM20a", "THM20b", "THM20c", "THMFINALa", "THMFINALb",
]


def _changed(anchor):
    """The anchor with the last sign of its last side flipped, or that
    side doubled when it has no sign: one sign or coefficient changed."""
    head, eq, last = anchor.rpartition(" = ")
    at = max(last.rfind(" + "), last.rfind(" - "))
    if at < 0:
        return f"{head}{eq}2*{last}"
    flipped = " - " if last[at + 1] == "+" else " + "
    return f"{head}{eq}{last[:at]}{flipped}{last[at + 3:]}"


def _with_anchor(monkeypatch, identity_id, anchor):
    """Registry rows with `identity_id`'s anchor replaced."""
    rows = tuple((identity_id, anchor, *row[2:]) if row[0] == identity_id
                 else row for row in identities.FORMULAS)
    monkeypatch.setattr(identities, "FORMULAS", rows)


class TestAnchors:
    """A formula record checks its anchor's own text."""

    @pytest.mark.parametrize("identity_id", FORMULA_IDS)
    def test_changed_anchor_fails(self, identity_id, monkeypatch):
        anchor = next(r.anchor for r in registry() if r.id == identity_id)
        changed = _changed(anchor)
        assert changed != anchor
        _with_anchor(monkeypatch, identity_id, changed)
        record = next(r for r in registry() if r.id == identity_id)
        assert record.anchor == changed
        assert not verify_record(record, PROFILE_BOUNDS[Profile.QUICK]).passed

    @pytest.mark.parametrize("side", [
        "abs(T(n))", "T(m)", "TM(n).entries", "(x := T(n))",
        "[T(k) for k in (n,)]", "__import__('os')",
    ])
    def test_anchor_naming_anything_else_refused(self, side, monkeypatch):
        _with_anchor(monkeypatch, "EQ3", f"T(n) = {side}")
        with pytest.raises(ValueError, match="EQ3"):
            registry()

    def test_chain_evaluates_each_side_once(self, monkeypatch):
        tm3, tm5, tm7 = t_matrix(3), t_matrix(5), t_matrix(7)
        square = matrices.mat_mul(tm5, tm5)
        exponents = []
        real_pow = matrices.mat_pow

        def counting_pow(a, e, counter=None):
            exponents.append(e)
            return real_pow(a, e, counter)

        monkeypatch.setattr(matrices, "mat_pow", counting_pow)
        record = next(r for r in registry() if r.id == "THM20c")
        # TM(n-r)*TM(n+r) = TM(n)^2 = TM(2)^n at (n, r) = (5, 2): the legs
        # pair neighbouring sides and share one TM(n)^2
        assert record.evaluate(5, 2) == ((matrices.mat_mul(tm3, tm7), square),
                                         (square, square))
        assert exponents == [2, 5]

    def test_anchors_compiled_once_per_process(self):
        registry()
        misses = identities._compile.cache_info().misses
        registry()
        registry()
        assert identities._compile.cache_info().misses == misses


class TestVerify:
    def test_single_identity_standard_cases(self):
        report = verify("EQ5")
        assert report.passed
        assert report.cases == 81

    def test_bounds_override(self):
        report = verify("COR19a", GridBounds(signed=40, pair=20))
        assert report.passed
        assert report.cases == 441

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            verify("NOPE")

    @pytest.mark.parametrize("identity_id,bounds", [
        ("SUMTHMa", GridBounds(signed=10, pair=0)),
        ("EQ4", GridBounds(signed=-1, pair=-1)),
    ])
    def test_empty_grid_raises(self, identity_id, bounds):
        record = next(r for r in registry() if r.id == identity_id)
        with pytest.raises(ValueError) as excinfo:
            verify(identity_id, bounds)
        assert str(excinfo.value) == \
            f"{identity_id}: no case in {record.describe(bounds)}"

    def test_deterministic(self):
        first = verify("EQ4")
        second = verify("EQ4")
        assert (first.cases, first.failures) == (second.cases, second.failures)
        assert first.bounds == second.bounds

    def test_negative_control_corrupted_evaluator(self):
        base = next(r for r in registry() if r.id == "EQ4")
        corrupted = IdentityRecord(
            id="EQ4-corrupt", anchor=base.anchor, arity=base.arity,
            domain=base.domain,
            # sign of the last term flipped
            evaluate=lambda n: (lucas_trib(n),
                                3 * trib(n + 1) - 2 * trib(n) + trib(n - 1)),
            grid=base.grid, describe=base.describe)
        report = verify_record(corrupted, GridBounds(signed=10, pair=10))
        assert not report.passed
        assert report.failures
        payload = report_to_dict(report)
        assert payload["status"] == "fail"
        assert payload["failures"]
        assert isinstance(payload["failures"][0]["left"], str)

    def test_verify_all_quick(self):
        reports = verify_all(Profile.QUICK)
        assert len(reports) == len(registry())
        assert all(r.passed for r in reports)
        assert sum(r.cases for r in reports) >= 3000

    def test_each_matrix_term_built_once_per_registry(self, monkeypatch):
        # every record of a registry, both sides of the sum records too,
        # reads one memoised reader per kind
        builds = Counter()
        real_closed_form = matrices._closed_form

        def counting_closed_form(term, n):
            builds[term, n] += 1
            return real_closed_form(term, n)

        monkeypatch.setattr(matrices, "_closed_form", counting_closed_form)
        assert all(report.passed for report in verify_all(Profile.QUICK))
        assert len({term for term, _ in builds}) == 2  # TM's and KM's caches
        assert max(builds.values()) == 1

    def test_verify_all_deep(self):
        # grid sizes at signed = 100, pair = 60, counted from each domain
        deep_cases = {
            "all integers n": 201,         # n in [-100, 100]
            "n >= 0": 101,                 # n in [0, 100]
            "m, n >= 0": 61 * 61,          # (m, n) in [0, 60]^2
            "n >= r >= 0": 61 * 62 // 2,   # 0 <= r <= n <= 60
            "m > j >= 0, n >= 1": 55 * 60,  # 55 (m, j) with m <= 10
        }
        reports = verify_all(Profile.DEEP)
        domains = {r.id: r.domain for r in registry()}
        assert [r.identity_id for r in reports] == list(domains)
        for report in reports:
            assert report.passed, report.identity_id
            assert report.cases == deep_cases[domains[report.identity_id]], \
                report.identity_id


# identity id -> (kind summed, scalar sequence its terms come from, unit)
SUM_RECORDS = {
    "SUMTHMa": (MatrixKind.TRIB_MATRIX, SequenceKind.TRIBONACCI, IDENTITY),
    "SUMCORb": (SequenceKind.TRIBONACCI_LUCAS,
                SequenceKind.TRIBONACCI_LUCAS, 1),
}


def _sum_record(identity_id):
    return next(r for r in registry() if r.id == identity_id)


class TestSumOracle:
    """The sum records' running totals against a fresh direct sum."""

    @pytest.mark.parametrize("identity_id", sorted(SUM_RECORDS))
    def test_call_order_does_not_matter(self, identity_id, monkeypatch):
        kind, scalar, _ = SUM_RECORDS[identity_id]
        quick = PROFILE_BOUNDS[Profile.QUICK]
        points = list(_sum_record(identity_id).grid(quick))
        shuffled = random.Random(20180101).sample(points, len(points))
        # per (m, j): steps up, repeats, skips forwards and backwards
        uneven_n = (1, 2, 2, 4, 5, 3, 4, 4, 7, 6, 10, 1)
        uneven = [(m, j, n) for m, j in sorted({p[:2] for p in points})
                  for n in uneven_n]
        fresh = term_reader(kind, TermCache(scalar))
        expected = {p: partial_sum_bruteforce(SumSpec(kind, *p), fresh)
                    for p in points}
        reads = 0
        real_oracle = identities.running_bruteforce

        def counting_oracle(kind, term):
            def counted(n):
                nonlocal reads
                reads += 1
                return term(n)
            return real_oracle(kind, counted)

        # only the oracle's reads, through the reader it is handed, are
        # counted; the closed form reads that reader too, six terms a case
        monkeypatch.setattr(identities, "running_bruteforce", counting_oracle)
        for order in (shuffled, uneven):
            reads = 0
            record = _sum_record(identity_id)
            for m, j, n in order:
                _, right = record.evaluate(m, j, n)
                assert right == expected[m, j, n], (m, j, n)
            # a call continuing the (m, j) of the call before it from
            # n_prev <= n reads n - n_prev terms; any other reads n
            assert reads == order[0][2] + sum(
                n - prev[2] if prev[:2] == (m, j) and prev[2] <= n else n
                for prev, (m, j, n) in zip(order, order[1:]))

    @pytest.mark.parametrize("identity_id", sorted(SUM_RECORDS))
    def test_negative_control_one_wrong_point(self, identity_id,
                                              monkeypatch):
        kind, scalar, unit = SUM_RECORDS[identity_id]
        real = identities.partial_sum
        bad = (3, 1, 7)

        def skewed(spec, term=None):
            value = real(spec, term)
            if (spec.m, spec.j, spec.n) == bad:
                value = value + unit
            return value

        monkeypatch.setattr(identities, "partial_sum", skewed)
        report = verify_record(_sum_record(identity_id),
                               PROFILE_BOUNDS[Profile.QUICK])
        right = partial_sum_bruteforce(SumSpec(kind, *bad),
                                       term_reader(kind, TermCache(scalar)))
        assert report.cases == 55 * 10
        assert report.failures == (Failure(bad, right + unit, right),)

    def test_cache_reads_linear_in_n(self, monkeypatch):
        # 3300 cases; re-summing from i = 0 at every n reads 602 250 terms
        reads = 0
        real_get = TermCache.get

        def counting_get(cache, n):
            nonlocal reads
            reads += 1
            return real_get(cache, n)

        monkeypatch.setattr(TermCache, "get", counting_get)
        report = verify_record(_sum_record("SUMTHMa"),
                               PROFILE_BOUNDS[Profile.DEEP])
        assert report.passed
        assert report.cases == 3300
        assert reads < 200_000



class TestReports:
    def test_json_schema(self):
        report = verify("EQ4", PROFILE_BOUNDS[Profile.QUICK])
        payload = report_to_dict(report)
        assert {"id", "anchor", "bounds", "cases", "failures",
                "elapsed_ms"} <= set(payload)
        assert payload["id"] == "EQ4"
        assert payload["cases"] == 21
        assert payload["failures"] == []
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_big_failure_values_serialize(self, unlimited_str):
        big = 7 ** 6000  # 5071 digits, past the int-to-str limit
        report = VerifyReport("X", "x = y", "n in [0, 0]", 1,
                              (Failure((0,), big, -big),), 0.0)
        payload = report_to_dict(report)
        assert payload["failures"][0]["left"] == unlimited_str(big)
        assert payload["failures"][0]["right"] == unlimited_str(-big)
        json.dumps(payload)

    def test_note_included_when_present(self):
        report = verify("THM15c", PROFILE_BOUNDS[Profile.QUICK])
        assert "note" in report_to_dict(report)

    def test_table_rendering(self):
        reports = [verify("EQ4", PROFILE_BOUNDS[Profile.QUICK]),
                   verify("THM18a", PROFILE_BOUNDS[Profile.QUICK])]
        table = format_report_table(reports)
        lines = table.splitlines()
        assert len(lines) == 3
        assert "PASS" in lines[1] and "EQ4" in lines[1]


def test_convolution_right_sides_mutually_equal():
    # the three right sides share one left side; their pairwise equality
    # is implied but never stated, so it gets its own check
    for m in range(0, 16):
        for n in range(0, 16):
            s = m + n
            first = (9 * trib(s + 2) - 12 * trib(s + 1) - 2 * trib(s)
                     + 4 * trib(s - 1) + trib(s - 2))
            second = (trib(s) + 4 * trib(s - 1) + 10 * trib(s - 2)
                      + 12 * trib(s - 3) + 9 * trib(s - 4))
            third = (trib(s) - 8 * trib(s + 1) + 18 * trib(s + 2)
                     - 8 * trib(s + 3) + trib(s + 4))
            assert first == second == third

import json

import pytest

from tribkit import (Arity, GridBounds, IdentityRecord, PROFILE_BOUNDS,
                     Profile, UnknownIdentity, format_report_table,
                     VerifyReport, lucas_trib, registry, report_to_dict,
                     trib, verify, verify_all, verify_record)
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

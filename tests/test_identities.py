import dataclasses
import functools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from tribkit import (IDENTITY, GridBounds, Mat3, MatrixKind, PROFILE_BOUNDS,
                     Profile, SequenceKind, SumSpec, T_MAT_SEEDS, TermCache,
                     UnknownIdentity, format_report_table,
                     VerifyReport, lucas_trib, partial_sum_bruteforce,
                     registry, report_to_dict, t_matrix, trib,
                     verify, verify_all, verify_record)
from tribkit import identities, matrices
from tribkit.core import walk
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
        assert by_id["EQ4"].shape.indices == "n"
        assert by_id["EQ4"].shape.domain == "all integers n"
        assert by_id["THM20a"].shape.indices == "m, n"
        assert by_id["THM20a"].shape.domain == "m, n >= 0"
        assert by_id["THMFINALa"].shape.indices == "n, r"
        assert by_id["THMFINALa"].shape.domain == "n >= r >= 0"
        assert by_id["SUMCORa"].shape.indices == "m, j, n"
        assert by_id["SUMCORa"].shape.domain == "m > j >= 0, n >= 1"

    def test_shape_matches_evaluator(self):
        # a shape names the indices its anchor's evaluator takes, in
        # order, and its grid yields points of that length
        quick = PROFILE_BOUNDS[Profile.QUICK]
        records = registry()
        assert len(records) == 32
        for record in records:
            code = record.evaluate.__code__
            params = code.co_varnames[:code.co_argcount]
            assert record.shape.indices == ", ".join(params), record.id
            points = list(record.shape.grid(quick))
            assert points, record.id
            assert all(len(p) == len(params) for p in points), record.id

    def test_duplicate_statement_noted_once(self):
        by_id = {r.id: r for r in registry()}
        assert "THM15d" not in by_id
        assert by_id["THM15c"].note is not None
        assert "(d)" in by_id["THM15c"].note

    def test_evaluators_return_matching_kinds(self):
        for record in registry():
            indices = next(iter(record.shape.grid(
                GridBounds(signed=5, pair=5))))
            left, right = record.evaluate(*indices)
            assert type(left) is type(right)

    def test_signed_grids_cover_negative_indices(self):
        by_id = {r.id: r for r in registry()}
        bounds = GridBounds(signed=5, pair=5)
        signed_ids = ["EQ3", "EQ4", "EQ5", "EQ6", "THM15a", "THM15e",
                      "COR17a", "COR17b"]
        for identity_id in signed_ids:
            points = list(by_id[identity_id].shape.grid(bounds))
            assert (-5,) in points and (5,) in points
        # stated for non-negative indices only: swept non-negatively
        for identity_id in ("LEM16a", "LEM16b", "TNEG"):
            points = list(by_id[identity_id].shape.grid(bounds))
            assert min(p[0] for p in points) == 0
        for identity_id in ("THM18a", "THM20a", "COR19a"):
            points = list(by_id[identity_id].shape.grid(bounds))
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
        "[T(k) for k in (n,)]", "__import__('os')", "_mid", "_mid = T(n)",
        "_pow(T(n), 2)", "_memo('EQ3.1', n, lambda: T(n))",
        "_div(T(n), 1)",
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


def _count_ops(patch):
    """Counts of `mat_mul` and `mat_pow` calls from now on; a product
    inside `mat_pow` counts as a `mat_mul`."""
    ops = Counter(mat_mul=0, mat_pow=0)
    real_mul, real_pow = matrices.mat_mul, matrices.mat_pow

    def counting_mul(a, b, counter=None):
        ops["mat_mul"] += 1
        return real_mul(a, b, counter)

    def counting_pow(a, e, counter=None):
        ops["mat_pow"] += 1
        return real_pow(a, e, counter)

    patch.setattr(matrices, "mat_mul", counting_mul)
    patch.setattr(matrices, "mat_pow", counting_pow)
    return ops


def _standard_sweep(records, identity_id):
    record = next(r for r in records if r.id == identity_id)
    return verify_record(record, PROFILE_BOUNDS[Profile.STANDARD])


class TestPowers:
    """`^` continues the registry's latest power of its base."""

    # one Standard sweep of a fresh registry; a fresh mat_pow at every
    # case makes 961 / 4309, 1922 / 9579, 1922 / 9579, 992 / 3704 and
    # 496 / 992
    @pytest.mark.parametrize("identity_id,pows,products", [
        ("THM20a", 31, 930),      # e = 0 once per base, then one a step
        ("THM20b", 31, 1891),     # TM(1)^m read once per m
        ("THMFINALb", 31, 1891),  # KM(0)^m read once per m
        ("THM20c", 31, 556),
        ("THMFINALa", 31, 527),
    ])
    def test_op_counts(self, identity_id, pows, products, monkeypatch):
        records = registry()
        ops = _count_ops(monkeypatch)
        assert _standard_sweep(records, identity_id).passed
        assert ops == {"mat_pow": pows, "mat_mul": products}

    def test_negative_control_power_one_product_short(self, monkeypatch):
        # THM20a's TM(n0)^m0 comes back as TM(n0)^(m0-1); every later m
        # of n0 builds on it and fails too, nothing else does.  TM(0) is
        # the identity, whose powers would hide the error: m0, n0 >= 1.
        m0, n0 = 4, 3
        base, short = t_matrix(n0), t_matrix(n0 * (m0 - 1))
        real_mul = matrices.mat_mul
        skipped = []

        def short_mul(a, b, counter=None):
            if (a, b) == (short, base) and not skipped:  # once only
                skipped.append((a, b))
                return a
            return real_mul(a, b, counter)

        monkeypatch.setattr(matrices, "mat_mul", short_mul)
        report = _standard_sweep(registry(), "THM20a")
        assert report.cases == 961
        assert report.failures == tuple(
            Failure((m, n0), t_matrix(n0 * (m - 1)), t_matrix(n0 * m))
            for m in range(m0, 31))

    def test_registries_share_no_powers(self, monkeypatch):
        # the first registry holds every TM(n)^0, TM(n0)'s wrong; the
        # second, built alongside it, sweeps as a fresh registry does
        first, second = registry(), registry()
        n0, base = 3, t_matrix(3)
        real_pow = matrices.mat_pow

        def wrong_pow(a, e, counter=None):
            return a if (a, e) == (base, 0) else real_pow(a, e, counter)

        with monkeypatch.context() as patch:
            patch.setattr(matrices, "mat_pow", wrong_pow)
            thm20a = next(r for r in first if r.id == "THM20a")
            for n in range(31):
                thm20a.evaluate(0, n)
        with monkeypatch.context() as patch:
            ops = _count_ops(patch)
            assert _standard_sweep(second, "THM20a").passed
            assert ops == {"mat_pow": 31, "mat_mul": 930}
        # the first registry still continues its own wrong power
        report = _standard_sweep(first, "THM20a")
        assert [f.indices for f in report.failures] == \
            [(m, n0) for m in range(31)]


def _right_side(identity_id):
    anchor = next(r.anchor for r in registry() if r.id == identity_id)
    return anchor.rpartition(" = ")[2]


def _scalings(patch):
    """Counts of `k * Mat3` products from now on."""
    count = Counter()
    real_rmul = matrices.Mat3.__rmul__

    def counting_rmul(self, k):
        count["rmul"] += 1
        return real_rmul(self, k)

    patch.setattr(matrices.Mat3, "__rmul__", counting_rmul)
    return count


class TestFormMemo:
    """A side that reads only one form of two or more indices is
    evaluated once per value of that form."""

    def test_memoised_sides(self):
        # exactly the right sides of THM18c-e and COR19c-e, all m + n
        found = {}
        for id, anchor, shape, *_ in identities.FORMULAS:
            sides = anchor.replace("^", "**").split(" = ")
            for i, side in enumerate(sides):
                form = identities._one_form(side, shape.indices.split(", "))
                if form is not None:
                    found[id] = (i == len(sides) - 1, form)
        assert found == dict.fromkeys(
            ["THM18c", "THM18d", "THM18e", "COR19c", "COR19d", "COR19e"],
            (True, "m + n"))

    @pytest.mark.parametrize("side,indices,form", [
        ("TM(m+n)", "m, n", None),                      # a bare read
        ("2*TM(m*n) - TM(m*n)", "m, n", None),          # not affine
        ("3*TM(n+1) - 2*TM(n) - TM(n-1)", "n", None),   # THM15a: one index
        ("TM(m+n)**2", "m, n", None),                   # a `^` side
        ("TM(m+n) + TM(m-n)", "m, n", None),            # two forms
        ("2*TM(m+n) + KM(0)", "m, n", None),            # a constant read
        ("m*TM(m+n)", "m, n", None),                    # an index outside
        ("TM(m+n) - 2*TM()", "m, n", None),             # a call without one
        ("TM(m+n) - 2*TM(m+n, m)", "m, n", None),       # argument
        ("TM(m+n) - 2*TM(n=m+n)", "m, n", None),
        ("TM(2*m+n) - TM(2*m+n+1)", "m, n", "2*m + n"),
        ("T(n-r+1) - 2*T(n-r)", "n, r", "n - r"),
        ("T(3-m-2*n) + T(-m-2*n)", "m, n", "-m - 2*n"),
    ])
    def test_form_finder(self, side, indices, form):
        assert identities._one_form(side, indices.split(", ")) == form

    # a fresh sweep evaluates each side 3721 times; its form m + n takes
    # 121 values on Deep
    @pytest.mark.parametrize("identity_id", ["THM18c", "THM18d", "THM18e"])
    def test_right_side_evaluated_once_per_form_value(self, identity_id,
                                                      monkeypatch):
        records = registry()
        record = next(r for r in records if r.id == identity_id)
        scalings = _scalings(monkeypatch)
        report = verify_record(record, PROFILE_BOUNDS[Profile.DEEP])
        assert report.passed and report.cases == 61 * 61
        per_side = _right_side(identity_id).count("*TM(")
        assert per_side >= 3
        assert scalings["rmul"] == 121 * per_side

    def test_negative_control_wrong_form(self, monkeypatch):
        # keyed by m alone, a side returns its value at (m, 0) for every n
        real_one_form = identities._one_form
        monkeypatch.setattr(
            identities, "_one_form",
            lambda side, indices: real_one_form(side, indices)
            and indices[0])
        monkeypatch.setattr(identities, "_compile",
                            functools.cache(identities._compile.__wrapped__))
        report = _standard_sweep(registry(), "THM18c")
        assert report.cases == 961
        assert [f.indices for f in report.failures] == \
            [(m, n) for m in range(31) for n in range(1, 31)]

    def test_registries_share_no_memo(self, monkeypatch):
        # the first registry holds THM18c's right side wrong at every
        # m + n <= 30; the second, built alongside it, sweeps as a fresh
        # registry does
        first, second = registry(), registry()
        with monkeypatch.context() as patch:
            patch.setattr(matrices.Mat3, "__rmul__", lambda self, k: self)
            thm18c = next(r for r in first if r.id == "THM18c")
            for n in range(31):
                thm18c.evaluate(0, n)
        with monkeypatch.context() as patch:
            scalings = _scalings(patch)
            assert _standard_sweep(second, "THM18c").passed
            assert scalings["rmul"] == 61 * 4
        # the first registry still reads its own wrong values
        report = _standard_sweep(first, "THM18c")
        assert [f.indices for f in report.failures] == \
            [(m, n) for m in range(31) for n in range(31) if m + n <= 30]


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
            f"{identity_id}: no case in {record.shape.describe(bounds)}"

    def test_deterministic(self):
        first = verify("EQ4")
        second = verify("EQ4")
        assert (first.cases, first.failures) == (second.cases, second.failures)
        assert first.bounds == second.bounds

    def test_negative_control_corrupted_evaluator(self):
        base = next(r for r in registry() if r.id == "EQ4")
        corrupted = dataclasses.replace(
            base, id="EQ4-corrupt",
            # sign of the last term flipped
            evaluate=lambda n: (lucas_trib(n),
                                3 * trib(n + 1) - 2 * trib(n) + trib(n - 1)))
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
        domains = {r.id: r.shape.domain for r in registry()}
        assert [r.identity_id for r in reports] == list(domains)
        for report in reports:
            assert report.passed, report.identity_id
            assert report.cases == deep_cases[domains[report.identity_id]], \
                report.identity_id


# identity id -> the kind it sums
SUM_RECORDS = {
    "SUMTHMa": MatrixKind.TRIB_MATRIX,
    "SUMCORb": SequenceKind.TRIBONACCI_LUCAS,
}


def _sum_record(identity_id):
    return next(r for r in registry() if r.id == identity_id)


class TestSumOracle:
    """The sum records' running totals against a fresh direct sum."""

    @pytest.mark.parametrize("identity_id", sorted(SUM_RECORDS))
    def test_call_order_does_not_matter(self, identity_id, monkeypatch):
        kind = SUM_RECORDS[identity_id]
        quick = PROFILE_BOUNDS[Profile.QUICK]
        points = list(_sum_record(identity_id).shape.grid(quick))
        shuffled = random.Random(20180101).sample(points, len(points))
        # per (m, j): steps up, repeats, skips forwards and backwards
        uneven_n = (1, 2, 2, 4, 5, 3, 4, 4, 7, 6, 10, 1)
        uneven = [(m, j, n) for m, j in sorted({p[:2] for p in points})
                  for n in uneven_n]
        expected = {p: partial_sum_bruteforce(SumSpec(kind, *p))
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
        # counted; the closed form reads the reader itself, six terms a case
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


# identity id -> (kind summed, i -> its term by `trib`, `lucas_trib` or a
# walk from its seed matrices, none of them the registry's readers)
COMPILED_SUMS = {
    "SUMCORa": (SequenceKind.TRIBONACCI, trib),
    "SUMTHMa": (MatrixKind.TRIB_MATRIX, lambda i: walk(T_MAT_SEEDS, i)),
}

MUTATIONS = {
    # the closed form without its - s(j-m)
    "drop-s(j-m)": lambda anchor, kind: anchor.replace(f" - {kind.value}(j-m)",
                                                     ""),
    # the divisor read at K(m+1)
    "divisor-at-m+1": lambda anchor, kind: anchor.replace(
        "/ (K(m) - K(-m))", "/ (K(m+1) - K(-m-1))"),
}


def _rational(value, divisor):
    """value / divisor as Fractions, entrywise for a Mat3."""
    if isinstance(value, Mat3):
        return Mat3(tuple(Fraction(x, divisor) for x in value.entries))
    return Fraction(value, divisor)


def _mutated(term, mutation, m, j, n):
    """The mutated closed form at (m, j, n), evaluated over Fractions."""
    top, w = m * n + j, 1 - lucas_trib(m)
    numerator = (term(top + m) + term(top - m) + w * term(top)
                 - term(j + m) - w * term(j))
    if mutation != "drop-s(j-m)":
        numerator = numerator - term(j - m)
    d = m + 1 if mutation == "divisor-at-m+1" else m
    return _rational(numerator, lucas_trib(d) - lucas_trib(-d))


def _entries(value):
    return value.entries if isinstance(value, Mat3) else (value,)


class TestCompiledSums:
    """A sum record's closed form is its anchor, `/` an exact division
    over the rationals."""

    # Quick sweeps 550 cases; s(j-m) = 0 at j - m in {-1, -4} for T, and
    # the sum is 0 only at T(0), j = 0, n = 1; no TM term is zero
    @pytest.mark.parametrize("identity_id,mutation,failed", [
        ("SUMCORa", "drop-s(j-m)", 380),
        ("SUMCORa", "divisor-at-m+1", 540),
        ("SUMTHMa", "drop-s(j-m)", 550),
        ("SUMTHMa", "divisor-at-m+1", 550),
    ])
    def test_negative_control_mutated_closed_form(self, identity_id,
                                                  mutation, failed,
                                                  monkeypatch):
        kind, term = COMPILED_SUMS[identity_id]
        anchor = next(a for id, a, *_ in identities.FORMULAS
                      if id == identity_id)
        changed = MUTATIONS[mutation](anchor, kind)
        assert changed != anchor
        _with_anchor(monkeypatch, identity_id, changed)
        record = next(r for r in registry() if r.id == identity_id)
        report = verify_record(record, PROFILE_BOUNDS[Profile.QUICK])
        assert report.cases == 550
        expected = []
        for m, j, n in record.shape.grid(PROFILE_BOUNDS[Profile.QUICK]):
            left = sum((term(m * i + j) for i in range(1, n)), term(j))
            right = _mutated(term, mutation, m, j, n)
            if left != right:
                expected.append(Failure((m, j, n), left, right))
        assert report.failures == tuple(expected)
        assert len(expected) == failed
        # an integral quotient is an int, any other a Fraction
        for failure in report.failures:
            assert all(type(x) is (int if x == int(x) else Fraction)
                       for x in _entries(failure.right)), failure

    def test_quotient_is_exact(self):
        quotient = identities._quotient
        assert type(quotient(-12, 4)) is int and quotient(-12, 4) == -3
        assert type(quotient(7, -2)) is Fraction
        assert quotient(7, -2) == Fraction(-7, 2)
        assert quotient(Mat3((2, 4, 6, 8, 10, 12, 14, 16, 18)), 2) == \
            Mat3((1, 2, 3, 4, 5, 6, 7, 8, 9))
        mixed = quotient(Mat3((2, 3, 0, 0, 0, 0, 0, 0, 4)), 2)
        assert [type(x) for x in mixed.entries] == \
            [int, Fraction] + [int] * 7
        assert mixed.entries[:2] == (1, Fraction(3, 2))

    def test_sum_sides_never_floats(self):
        for record in registry():
            if record.shape.indices != "m, j, n":
                continue
            for point in record.shape.grid(PROFILE_BOUNDS[Profile.QUICK]):
                left, right = record.evaluate(*point)
                assert left == right
                assert all(type(x) is int
                           for x in _entries(left) + _entries(right))

    def test_sum_sides_unmemoised(self):
        sums = [(id, anchor) for id, anchor, shape, *_ in identities.FORMULAS
                if shape.indices == "m, j, n"]
        assert [id for id, _ in sums] == \
            ["SUMTHMa", "SUMTHMb", "SUMCORa", "SUMCORb"]
        for id, anchor in sums:
            left, right = anchor.split(" = ")
            assert left.startswith("S_"), id
            for side in (left, right):
                assert identities._one_form(side, ["m", "j", "n"]) is None

    def test_fraction_failure_reported_as_ratio(self):
        half = Fraction(7, 2)
        report = VerifyReport("X", "x = y / 2", "n in [0, 0]", 2,
                              (Failure((0,), 3, half),
                               Failure((1,), IDENTITY,
                                       Mat3((half,) + (0,) * 8))), 0.0)
        payload = report_to_dict(report)
        assert payload["failures"][0]["right"] == "7/2"
        assert payload["failures"][1]["right"] == \
            [["7/2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        json.dumps(payload)


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

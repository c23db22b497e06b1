import dataclasses
import functools
import json
import random
import re
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
from tribkit.cli import main
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
        # order, and its sweep yields points of that length
        quick = PROFILE_BOUNDS[Profile.QUICK]
        records = registry()
        assert len(records) == 32
        for record in records:
            code = record.evaluate.__code__
            params = code.co_varnames[:code.co_argcount]
            assert record.shape.indices == ", ".join(params), record.id
            points = list(record.shape.sweep(quick)[1])
            assert points, record.id
            assert all(len(p) == len(params) for p in points), record.id

    def test_duplicate_statement_noted_once(self):
        by_id = {r.id: r for r in registry()}
        assert "THM15d" not in by_id
        assert by_id["THM15c"].note is not None
        assert "(d)" in by_id["THM15c"].note

    def test_evaluators_return_matching_kinds(self):
        for record in registry():
            indices = next(record.shape.sweep(
                GridBounds(signed=5, pair=5))[1])
            left, right = record.evaluate(*indices)
            assert type(left) is type(right)

    def test_signed_grids_cover_negative_indices(self):
        by_id = {r.id: r for r in registry()}
        bounds = GridBounds(signed=5, pair=5)
        signed_ids = ["EQ3", "EQ4", "EQ5", "EQ6", "THM15a", "THM15e",
                      "COR17a", "COR17b"]
        for identity_id in signed_ids:
            points = list(by_id[identity_id].shape.sweep(bounds)[1])
            assert (-5,) in points and (5,) in points
        # stated for non-negative indices only: swept non-negatively
        for identity_id in ("LEM16a", "LEM16b", "TNEG"):
            points = list(by_id[identity_id].shape.sweep(bounds)[1])
            assert min(p[0] for p in points) == 0
        for identity_id in ("THM18a", "THM20a", "COR19a"):
            points = list(by_id[identity_id].shape.sweep(bounds)[1])
            assert all(m >= 0 and n >= 0 for m, n in points)


# every record, in registry order
ALL_IDS = [row[0] for row in identities.FORMULAS]

# each shape's bounds text at Quick, Standard and Deep
PROFILE_BOUNDS_TEXT = {
    identities.N_ALL: ("n in [-10, 10]", "n in [-40, 40]",
                       "n in [-100, 100]"),
    identities.N_NONNEG: ("n in [0, 10]", "n in [0, 40]", "n in [0, 100]"),
    identities.MN: ("(m, n) in [0, 10]^2", "(m, n) in [0, 30]^2",
                    "(m, n) in [0, 60]^2"),
    identities.NR: ("(n, r) with 0 <= r <= n <= 10",
                    "(n, r) with 0 <= r <= n <= 30",
                    "(n, r) with 0 <= r <= n <= 60"),
    identities.SUM: tuple(
        f"(m, j, n) with 1 <= m <= 10, 0 <= j < m, 1 <= n <= {n}"
        for n in (10, 30, 60)),
}

# shape -> the numbers its bounds text should state, read off the points
# (the 2 of "^2" left out)
EXTREMES = {
    identities.N_ALL: lambda ps: [min(ps)[0], max(ps)[0]],
    identities.N_NONNEG: lambda ps: [min(ps)[0], max(ps)[0]],
    identities.MN: lambda ps: [min(map(min, ps)), max(map(max, ps))],
    identities.NR: lambda ps: [min(r for _, r in ps), max(n for n, _ in ps)],
    identities.SUM: lambda ps: [
        min(m for m, _, _ in ps), max(m for m, _, _ in ps),
        min(j for _, j, _ in ps), min(n for _, _, n in ps),
        max(n for _, _, n in ps)],
}


class TestSweeps:
    """A shape's sweep states its bounds once, as text and as points."""

    @pytest.mark.parametrize("shape", list(PROFILE_BOUNDS_TEXT),
                             ids=lambda shape: shape.domain)
    def test_profile_bounds_text(self, shape):
        texts = tuple(shape.sweep(PROFILE_BOUNDS[profile])[0]
                      for profile in Profile)
        assert texts == PROFILE_BOUNDS_TEXT[shape]

    @pytest.mark.parametrize("bounds", [
        GridBounds(signed=1, pair=1), GridBounds(signed=3, pair=7),
        GridBounds(signed=25, pair=13), GridBounds(signed=0, pair=2),
    ])
    @pytest.mark.parametrize("shape", list(EXTREMES),
                             ids=lambda shape: shape.domain)
    def test_text_states_extremes_of_points(self, shape, bounds):
        described, points = shape.sweep(bounds)
        points = list(points)
        stated = [int(x) for x in re.findall(r"-?\d+",
                                             described.replace("^2", ""))]
        assert stated == EXTREMES[shape](points), described


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


# each side outside the formula language, set as EQ3's right side, and
# what its refusal names
REFUSED = {
    # names other than the indices and the readers
    "abs(T(n))": "Name: abs", "T(m)": "Name: m",
    "__import__('os')": "Name: __import__", "_mid": "Name: _mid",
    "_mid = T(n)": "Name: _mid", "_pow(T(n), 2)": "Name: _pow",
    "_memo('EQ3.1', n, lambda: T(n))": "Name: _memo",
    "_div(T(n), 1)": "Name: _div", "_s0": "Name: _s0", "_v": "Name: _v",
    "TM(n).entries": "Attribute: TM(n).entries",
    "_s0.get(n)": "Attribute: _s0.get",
    "(x := T(n))": "NamedExpr: x := T(n)",
    "(_v := T(n))": "NamedExpr: _v := T(n)",
    "[T(k) for k in (n,)]": "ListComp",
    # only known names, yet no formula
    "(lambda: T(n))()": "Lambda: lambda: T(n)",
    "T(n) if n else T(n)": "IfExp: T(n) if n else T(n)",
    "T(n) + (n > 99)": "Compare: n > 99",
    "0.5*T(n)*2": "float: 0.5",
    "T(n=n)": "keyword: n=n",
    "T(*[n])": "Starred in a reader's argument: *[n]",
    "T(n) + 0.0": "float: 0.0",
    "T(n) + True - 1": "bool: True",
    "+T(n)": "UAdd: +T(n)",
    "T(n) // 1": "FloorDiv: T(n) // 1",
    "T(n": "T(n: '(' was never closed",
    "T(n) % 7": "Mod: T(n) % 7",
    "T(n) + 0*T(n, n)": "Call of 2 arguments: T(n, n)",
    "T(n) + (n and T(n))": "And: n and T(n)",
    "T(n) + T(n)[0]": "Subscript: T(n)[0]",
    "T(n/2)": "Div in a reader's argument: n/2",
    "T(n^2)": "Pow in a reader's argument: n**2",
    "T(T(n))": "Call in a reader's argument: T(n)",
    "T(n) + 'x'": "str: 'x'",
    "S_T(n)": "Call of 1 arguments: S_T(n)",
    "T(n), T(n)": "Tuple: T(n), T(n)",
    # calls without one positional argument, once grouping cases
    "TM(n+1) - 2*TM()": "Call of 0 arguments: TM()",
    "TM(n+1) - 2*TM(n+1, n)": "Call of 2 arguments: TM(n+1, n)",
    "TM(n+1) - 2*TM(n=n+1)": "keyword: n=n+1",
}


class TestAnchors:
    """A formula record checks its anchor's own text."""

    @pytest.mark.parametrize("identity_id", ALL_IDS)
    def test_changed_anchor_fails(self, identity_id, monkeypatch):
        anchor = next(r.anchor for r in registry() if r.id == identity_id)
        changed = _changed(anchor)
        assert changed != anchor
        _with_anchor(monkeypatch, identity_id, changed)
        record = next(r for r in registry() if r.id == identity_id)
        assert record.anchor == changed
        assert not verify_record(record, PROFILE_BOUNDS[Profile.QUICK]).passed

    @pytest.mark.parametrize("side", REFUSED)
    def test_anchor_naming_anything_else_refused(self, side, monkeypatch):
        # anything outside the formula language, each refusal naming the
        # id and its construct
        _with_anchor(monkeypatch, "EQ3", f"T(n) = {side}")
        with pytest.raises(ValueError) as refused:
            registry()
        assert str(refused.value).startswith("EQ3: ")
        assert REFUSED[side] in str(refused.value)

    def test_zero_divisor_fails_its_points(self, capsys, monkeypatch):
        # SUMCORa's divisor flipped to K(m) + K(-m), which is 0 at m = 1:
        # the sweep completes, and m = 1 fails as x/0
        anchor = next(r.anchor for r in registry() if r.id == "SUMCORa")
        changed = _changed(anchor)
        assert changed.endswith("/ (K(m) + K(-m))")
        _with_anchor(monkeypatch, "SUMCORa", changed)
        assert main(["verify", "SUMCORa", "--format", "json"]) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail" and report["cases"] == 1650
        by_zero = [f for f in report["failures"] if f["indices"][0] == 1]
        assert len(by_zero) == 30  # (1, 0, n), 1 <= n <= 30
        assert all(f["right"].endswith("/0") for f in by_zero)

    def test_quotient_by_zero_equals_nothing(self):
        quotient = identities._quotient
        assert quotient(5, 0) != 5 and not quotient(5, 0) == 5
        assert quotient(5, 0) != quotient(5, 0)
        assert matrices.decimal_form(quotient(-7, 0)) == "-7/0"
        ones = Mat3((1,) * 9)
        assert quotient(ones, 0) != ones
        assert matrices.decimal_form(quotient(ones, 0)) == [["1/0"] * 3] * 3
        big = 7 ** 6000  # past the int-to-str limit
        assert matrices.decimal_form(quotient(big, 0)).endswith("1/0")

    @pytest.mark.parametrize("anchor,right", [
        ("2*T(n) = T(n) + T(n)*(n/n)", "0/0"),
        ("T(n) = T(n) + 0*(1/n)", "1/0"),
        ("T(n) = T(n) + 0*n^(-1)", "1/0"),
        ("TM(n) = TM(n) + 0*(TM(n)/n)",
         [["1/0", "0/0", "0/0"], ["0/0", "1/0", "0/0"],
          ["0/0", "0/0", "1/0"]]),
    ])
    def test_quotient_by_zero_inside_a_term_fails_its_point(
            self, anchor, right, capsys, monkeypatch):
        # a quotient by zero is the value of every operation on it, a
        # power and a quotient too, so only n = 0 fails, with no traceback
        _with_anchor(monkeypatch, "EQ3", anchor)
        assert main(["verify", "EQ3", "--profile", "quick",
                     "--format", "json"]) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert report["cases"] == 21
        assert [(f["indices"], f["right"]) for f in report["failures"]] == \
            [([0], right)]

    def test_quotient_by_zero_is_absorbing(self):
        undefined = identities._quotient(1, 0)
        ones = Mat3((1,) * 9)
        for value in (undefined + 2, 2 + undefined, undefined - 2,
                      2 - undefined, 2 * undefined, undefined * ones,
                      -undefined, undefined ** 2, 2 ** undefined,
                      identities._quotient(undefined, 3),
                      identities._quotient(3, undefined),
                      identities._power_reader()(undefined, -2),
                      identities._power_reader()(2, undefined),
                      identities._power_reader()(ones, undefined)):
            assert value is undefined
        assert ones * undefined is undefined
        undefined_entries = identities._quotient(ones, 0)
        assert (ones + undefined_entries) != ones + ones
        # a matrix holding one is still a power's base, keyed by its value
        assert identities._power_reader()(undefined_entries, 2) != ones

    def test_negative_int_power_is_exact(self):
        power = identities._power_reader()
        half = power(2, -1)
        assert half == Fraction(1, 2) and type(half) is Fraction
        assert power(-3, -3) == Fraction(-1, 27)
        assert power(3, 0) == 1 and type(power(3, 2)) is int
        assert matrices.decimal_form(power(0, -1)) == "1/0"

    @pytest.mark.parametrize("anchor", [
        "T(n) = T(n)*3^n*3^(-n)",
        "T(n)*3^n = T(n+3)*3^n - T(n+2)*3^n - T(n+1)*3^n",
    ])
    def test_true_identity_with_negative_powers_passes(self, anchor, capsys,
                                                       monkeypatch):
        # 3^n at n < 0 is the exact 1/3^-n: a float would fail from
        # n = -35 or so on Standard
        _with_anchor(monkeypatch, "EQ3", anchor)
        assert main(["verify", "EQ3", "--format", "json"]) == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["cases"] == 81 and report["failures"] == []

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


# each record's groups: (side, the terms grouped, its memo key)
GROUPS = {
    "THM18c": [(2, "9*TM(m+n+2) - 12*TM(m+n+1) - 2*TM(m+n) + 4*TM(m+n-1) "
                   "+ TM(m+n-2)", "m+n+2")],
    "THM18d": [(1, "TM(m+n) + 4*TM(m+n-1) + 10*TM(m+n-2) + 12*TM(m+n-3) "
                   "+ 9*TM(m+n-4)", "m+n")],
    "THM18e": [(1, "TM(m+n) - 8*TM(m+n+1) + 18*TM(m+n+2) - 8*TM(m+n+3) "
                   "+ TM(m+n+4)", "m+n")],
    "COR19a": [(1, "T(m-1) + T(m-2)", "m")],
    "COR19b": [(1, "T(m-1) + T(m-2)", "m")],
    "COR19c": [(0, "K(m-1) + K(m-2)", "m"),
               (1, "9*T(m+n+2) - 12*T(m+n+1) - 2*T(m+n) + 4*T(m+n-1) "
                   "+ T(m+n-2)", "m+n+2")],
    "COR19d": [(0, "K(m-1) + K(m-2)", "m"),
               (1, "T(m+n) + 4*T(m+n-1) + 10*T(m+n-2) + 12*T(m+n-3) "
                   "+ 9*T(m+n-4)", "m+n")],
    "COR19e": [(0, "K(m-1) + K(m-2)", "m"),
               (1, "T(m+n) - 8*T(m+n+1) + 18*T(m+n+2) - 8*T(m+n+3) "
                   "+ T(m+n+4)", "m+n")],
} | {
    id: [(1, f"- {x}(j+m) - {x}(j-m) - (1-K(m))*{x}(j)", "(m, j)"),
         (1, "K(m) - K(-m)", "m")]
    for id, x in (("SUMTHMa", "TM"), ("SUMTHMb", "KM"), ("SUMCORa", "T"),
                  ("SUMCORb", "K"))
}


def _groups(side, indices):
    """(text, key) of each group `_compile` memoises in `side`."""
    groups = identities._Groups("X", indices)
    groups.side(side)
    return groups.found


def _side_groups(anchor, indices):
    """(side, text, key) of each group `_compile` memoises in `anchor`."""
    sides = anchor.replace("^", "**").split(" = ")
    return [(i, text, key) for i, side in enumerate(sides)
            for text, key in _groups(side, indices.split(", "))]


def _keyed_by_first_index(patch):
    """Every group keyed by its record's first index alone, recompiled."""
    patch.setattr(identities, "_key", lambda reads, indices: indices[0])
    patch.setattr(identities, "_compile",
                  functools.cache(identities._compile.__wrapped__))


class TestFormMemo:
    """The terms of a +/- chain that read fewer independent combinations
    of the indices than the record has are evaluated once per value of
    those combinations."""

    def test_memoised_sides(self):
        # the whole right sides of THM18c-e and COR19c-e, all of m + n,
        # keyed by their first reader argument; the m-only sum of COR19's
        # middle factor; and each sum record's (m, j) terms and divisor.
        # No left side is grouped whole: each is evaluated at every point
        found = {}
        for id, anchor, shape, *_ in identities.FORMULAS:
            groups = _side_groups(anchor, shape.indices)
            if groups:
                found[id] = groups
        assert found == GROUPS
        for id, anchor, *_ in identities.FORMULAS:
            left = anchor.replace("^", "**").split(" = ")[0]
            assert all(text != left for _, text, _ in found.get(id, ())), id

    @pytest.mark.parametrize("side,indices,form", [
        ("TM(m+n)", "m, n", None),                      # a bare read
        ("2*TM(m*n) - TM(m*n)", "m, n", None),          # not affine
        ("3*TM(n+1) - 2*TM(n) - TM(n-1)", "n", None),   # THM15a: one index
        ("TM(m+n)**2", "m, n", None),                   # a `^` side
        ("TM(m+n) + TM(m-n)", "m, n", None),            # two forms
        ("2*TM(m+n) + KM(0)", "m, n", None),            # a constant read
        ("m*TM(m+n)", "m, n", None),                    # an index outside
        ("TM(2*m+n) - TM(2*m+n+1)", "m, n", "2*m+n"),
        ("T(n-r+1) - 2*T(n-r)", "n, r", "n-r+1"),
        ("T(3-m-2*n) + T(-m-2*n)", "m, n", "3-m-2*n"),
        ("2*T(m+n-1) + T(m + n)", "m, n", "m+n-1"),  # first in the text
        # a sum record's closed form: its (m, j) terms and its divisor
        ("(TM(m*n+j+m) + TM(m*n+j-m) + (1-K(m))*TM(m*n+j) - TM(j+m) "
         "- TM(j-m) - (1-K(m))*TM(j)) / (K(m) - K(-m))", "m, j, n",
         ("(m, j)", "m")),
        ("(T(m*n+j+m) - T(j+m) - T(j-m)) / (K(m) - K(-m))", "m, j, n",
         ("(m, j)", "m")),
        ("T(m*n+j) - T(j) - T(j+1)", "m, j, n", "j"),
        ("T(m*n+j) - T(j+n) - T(j-n)", "m, j, n", "(j, n)"),
        ("T(m*n+j) - T(m+j) - T(m+j+1)", "m, j, n", "m+j"),
        ("T(m*n+j) - T(m+j) - T(m+j+n) - T(n)", "m, j, n",
         "(m+j, m+j+n)"),
        ("T(m*n) - T(j) - T(m+j) - T(m*j)", "m, j, n", None),  # all three
        ("T(m*n+j) - T(n) - T(m*j+n)", "m, j, n", None),  # a lone term
        ("T(m*n+j+m) - T(j+m) - T(j-m) + T(m+n)", "m, j, n", None),
        ("T(j) - (T(j+1) - T(j+2))", "m, j, n", "j"),  # a term in brackets
    ])
    def test_form_finder(self, side, indices, form):
        keys = tuple(key for _, key in
                     _groups(side, indices.split(", ")))
        assert keys == (() if form is None else (form,)
                        if isinstance(form, str) else form)

    def test_group_text_is_the_anchors(self):
        # each group is the anchor's own terms with their own signs; a
        # term that is itself a chain keeps its brackets
        assert _groups("T(j) - (T(j+1) - T(j+2)) + T(m*n+j)",
                                  ["m", "j", "n"]) == \
            [("T(j) - (T(j+1) - T(j+2))", "j")]
        for id, anchor, shape, *_ in identities.FORMULAS:
            for side, text, _ in _side_groups(anchor, shape.indices):
                assert text.lstrip("- ") in anchor, id

    @pytest.mark.parametrize("side", [
        "T(j) - T(j+1) - T(m*n+j)",            # the chain's first terms
        "- T(j) + T(m*n+j) - T(j+1)",          # a unary minus grouped
        "T(m*n+j) - T(j) - T(j+1)",
        "T(m*n+j) - (T(j) - T(j+1)) - T(m+j) - T(m+j+1)",  # in brackets
        "T(n)*(T(m-1) - T(m+1)) - 2*(T(m)**2 - K(m)) + T(m*j+n)",
        "(T(m*n+j) - T(j+m) - T(j-m) - (1-K(m))*T(j)) / (K(m) - K(-m))",
    ])
    def test_grouped_side_evaluates_as_written(self, side):
        # the compiled side, grouped and memoised, against the side's own
        # text evaluated directly over Fractions, at every point of a
        # grid, twice
        assert _groups(side, ["m", "j", "n"])
        code = identities._compile("X", f"T(n) = {side}", "m, j, n")
        readers = {"T": trib, "K": lucas_trib, "_div": identities._quotient,
                   "_pow": lambda base, e: base ** e}
        evaluate = eval(code, {"__builtins__": {}} | readers)
        points = [(m, j, n) for m in range(1, 5) for j in range(m)
                  for n in range(1, 5)]
        for m, j, n in points + points:
            expected = eval(side, {
                "__builtins__": {}, "T": lambda i: Fraction(trib(i)),
                "K": lambda i: Fraction(lucas_trib(i)), "m": m, "j": j,
                "n": n})
            assert evaluate(m, j, n)[1] == expected, (m, j, n)

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

    @pytest.mark.parametrize("identity_id", ["SUMTHMa", "SUMTHMb"])
    def test_sum_group_evaluated_once_per_m_j(self, identity_id, monkeypatch):
        # (1-K(m))*X(m*n+j) is scaled at every case, the group's
        # (1-K(m))*X(j) once per (m, j): 55 on Deep, against a scaling
        # of each at all 3300 cases; the direct sum S_X(m, j, n), the
        # whole left side, is still read at every case
        reads = Counter()
        real_oracle = identities.running_bruteforce

        def counting_oracle(kind, term):
            direct = real_oracle(kind, term)

            def counted(m, j, n):
                reads[kind] += 1
                return direct(m, j, n)
            return counted

        monkeypatch.setattr(identities, "running_bruteforce", counting_oracle)
        record = next(r for r in registry() if r.id == identity_id)
        scalings = _scalings(monkeypatch)
        report = verify_record(record, PROFILE_BOUNDS[Profile.DEEP])
        assert report.passed and report.cases == 3300
        assert scalings["rmul"] == 3300 + 55
        assert sum(reads.values()) == 3300

    def test_negative_control_wrong_form(self, monkeypatch):
        # keyed by m alone, a side returns its value at (m, 0) for every n
        _keyed_by_first_index(monkeypatch)
        report = _standard_sweep(registry(), "THM18c")
        assert report.cases == 961
        assert [f.indices for f in report.failures] == \
            [(m, n) for m in range(31) for n in range(1, 31)]

    @pytest.mark.parametrize("identity_id", ["SUMTHMa", "SUMTHMb"])
    def test_negative_control_sum_group_keyed_by_m(self, identity_id,
                                                   monkeypatch):
        # keyed by m alone, the (m, j) terms return their value at
        # (m, 0) for every j: exactly the points with j >= 1 fail, 1350
        # of 1650; the divisor, which reads m only, stays right
        _keyed_by_first_index(monkeypatch)
        report = _standard_sweep(registry(), identity_id)
        assert report.cases == 1650
        assert [f.indices for f in report.failures] == \
            [(m, j, n) for m in range(1, 11) for j in range(1, m)
             for n in range(1, 31)]
        assert len(report.failures) == 1350

    def test_registries_share_no_memo(self, monkeypatch):
        # the first registry holds THM18c's right side wrong at every
        # m + n <= 30, and SUMTHMa's (m, j) terms wrong at every (m, j);
        # the second, built alongside it, sweeps as a fresh registry does
        first, second = registry(), registry()
        with monkeypatch.context() as patch:
            patch.setattr(matrices.Mat3, "__rmul__", lambda self, k: self)
            thm18c = next(r for r in first if r.id == "THM18c")
            for n in range(31):
                thm18c.evaluate(0, n)
            sumthma = next(r for r in first if r.id == "SUMTHMa")
            for m in range(1, 11):
                for j in range(m):
                    sumthma.evaluate(m, j, 1)
        with monkeypatch.context() as patch:
            scalings = _scalings(patch)
            assert _standard_sweep(second, "THM18c").passed
            assert scalings["rmul"] == 61 * 4
        with monkeypatch.context() as patch:
            scalings = _scalings(patch)
            assert _standard_sweep(second, "SUMTHMa").passed
            # one scaling a case, and 55 group evaluations
            assert scalings["rmul"] == 1650 + 55
        # the first registry still reads its own wrong values
        report = _standard_sweep(first, "THM18c")
        assert [f.indices for f in report.failures] == \
            [(m, n) for m in range(31) for n in range(31) if m + n <= 30]
        report = _standard_sweep(first, "SUMTHMa")
        assert report.cases == len(report.failures) == 1650


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
            f"{identity_id}: no case in {record.shape.sweep(bounds)[0]}"

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
        points = list(_sum_record(identity_id).shape.sweep(quick)[1])
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
        for m, j, n in record.shape.sweep(PROFILE_BOUNDS[Profile.QUICK])[1]:
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
            for point in record.shape.sweep(PROFILE_BOUNDS[Profile.QUICK])[1]:
                left, right = record.evaluate(*point)
                assert left == right
                assert all(type(x) is int
                           for x in _entries(left) + _entries(right))

    def test_sum_sides_grouped(self):
        # a sum record's right side: X(m*n+j+m), X(m*n+j-m) and
        # (1-K(m))*X(m*n+j) at every case, its other three terms once per
        # (m, j) and its divisor once per m; its left side S_X(m, j, n)
        # is one read of the direct sum, never grouped
        sums = [(id, anchor) for id, anchor, shape, *_ in identities.FORMULAS
                if shape.indices == "m, j, n"]
        assert [id for id, _ in sums] == \
            ["SUMTHMa", "SUMTHMb", "SUMCORa", "SUMCORb"]
        for id, anchor in sums:
            left, right = anchor.split(" = ")
            assert left.startswith("S_"), id
            x = left[2:left.index("(")]
            assert _groups(left, ["m", "j", "n"]) == [], id
            assert _groups(right, ["m", "j", "n"]) == [
                (f"- {x}(j+m) - {x}(j-m) - (1-K(m))*{x}(j)", "(m, j)"),
                ("K(m) - K(-m)", "m")], id

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

    def test_big_fraction_printed(self):
        # past the int-to-str limit, a Fraction prints term by term
        big = Fraction(10 ** 5000 + 1, 2)
        text = "1" + "0" * 4999 + "1/2"
        assert matrices.decimal_form(big) == text
        assert matrices.decimal_form(Mat3((big,) + (0,) * 8))[0] == \
            [text, "0", "0"]


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

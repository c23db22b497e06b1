import decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tribkit.matrices as matrices
from tribkit import (GridBounds, SequenceKind, TermCache, lucas_trib,
                     registry, term_reader, to_decimal, trib, trib_alt,
                     trib_fast, verify_record)

# published leading terms: value at n for n = 0..12, and at -n for n = 0..12
T_TABLE = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504]
T_NEG_TABLE = [0, 0, 1, -1, 0, 2, -3, 1, 4, -8, 5, 7, -20]
K_TABLE = [3, 1, 3, 7, 11, 21, 39, 71, 131, 241, 443, 815, 1499]
K_NEG_TABLE = [3, -1, -1, 5, -5, -1, 11, -15, 3, 23, -41, 21, 43]


def test_golden_tables():
    assert [trib(n) for n in range(13)] == T_TABLE
    assert [trib(-n) for n in range(13)] == T_NEG_TABLE
    assert [lucas_trib(n) for n in range(13)] == K_TABLE
    assert [lucas_trib(-n) for n in range(13)] == K_NEG_TABLE


@pytest.mark.parametrize("n,expected", [(0, 0), (7, 24), (-9, -8), (-12, -20)])
def test_trib_examples(n, expected):
    assert trib(n) == expected


@pytest.mark.parametrize("n,expected", [(5, 21), (12, 1499), (-7, -15)])
def test_lucas_trib_examples(n, expected):
    assert lucas_trib(n) == expected


def test_recurrence_over_signed_range():
    for n in range(-200, 201):
        assert trib(n) == trib(n - 1) + trib(n - 2) + trib(n - 3)
        assert lucas_trib(n) == (lucas_trib(n - 1) + lucas_trib(n - 2)
                                 + lucas_trib(n - 3))


@given(st.integers(min_value=-400, max_value=400))
def test_recurrence_property(n):
    assert trib(n) == trib(n - 1) + trib(n - 2) + trib(n - 3)
    assert lucas_trib(n) == (lucas_trib(n - 1) + lucas_trib(n - 2)
                             + lucas_trib(n - 3))


@pytest.mark.parametrize("n,expected", [(4, 4), (11, 274), (-5, 2)])
def test_trib_alt_examples(n, expected):
    assert trib_alt(n) == expected


def test_trib_alt_matches_trib():
    for n in range(-200, 201):
        assert trib_alt(n) == trib(n)


def test_negative_index_closed_identity():
    # T(-n) = T(n-1)^2 - T(n-2)*T(n); the implementation iterates instead,
    # so this really is a cross-check.
    for n in range(1, 201):
        assert trib(-n) == trib(n - 1) ** 2 - trib(n - 2) * trib(n)


# The K <-> T conversions are stated once, as registry records: EQ4, EQ5
# and EQ6 assemble K(n) from T terms, and COR17a recovers 22*T(n) from K
# terms, which holds only if 22 divides that sum exactly.
def conversion_record(id):
    return next(record for record in registry() if record.id == id)


@pytest.mark.parametrize("id,n,expected", [
    ("EQ4", 3, 7),
    ("EQ5", 0, 3),
    ("EQ6", 6, 39),
    ("COR17a", 2, 22 * 1),
    ("COR17a", 0, 22 * 0),
    ("COR17a", 9, 22 * 81),
])
def test_conversion_record_examples(id, n, expected):
    assert conversion_record(id).evaluate(n) == (expected, expected)


@pytest.mark.parametrize("id", ["EQ4", "EQ5", "EQ6", "COR17a"])
def test_conversion_records_on_signed_grid(id):
    report = verify_record(conversion_record(id),
                           GridBounds(signed=300, pair=0))
    assert report.cases == 601
    assert report.passed, report.failures[:3]


class TestTermCache:
    def test_cached_equals_stateless(self):
        cache = TermCache(SequenceKind.TRIBONACCI)
        for n in (0, 17, -9, 250, -110):
            assert cache.get(n) == trib(n)

    def test_extension_is_idempotent(self):
        eager = TermCache(SequenceKind.TRIBONACCI)
        eager.get(500)
        fresh = TermCache(SequenceKind.TRIBONACCI)
        assert eager.get(100) == fresh.get(100)

    def test_extension_never_rewrites(self):
        cache = TermCache(SequenceKind.TRIBONACCI_LUCAS)
        cache.get(40)
        cache.get(-17)
        before = cache.values()
        lo = cache.lo
        cache.get(80)
        cache.get(-30)
        after = cache.values()
        offset = lo - cache.lo
        assert after[offset:offset + len(before)] == before

    def test_window_satisfies_recurrence(self):
        cache = TermCache(SequenceKind.TRIBONACCI_LUCAS)
        cache.get(40)
        cache.get(-17)
        assert (cache.lo, cache.hi) == (-17, 40)
        vals = cache.values()
        for pos in range(3, len(vals)):
            assert vals[pos] == vals[pos - 1] + vals[pos - 2] + vals[pos - 3]

    def test_wrong_kind_cache_rejected(self):
        cache = TermCache(SequenceKind.TRIBONACCI)
        with pytest.raises(ValueError):
            term_reader(SequenceKind.TRIBONACCI_LUCAS, cache)


class TestToDecimal:
    @pytest.mark.parametrize("value", [
        0, 7, -7, 10 ** 4299, -(10 ** 4299), 10 ** 4300, -(10 ** 4300),
        2 ** 20000 - 1, 3 ** 50000, -(5 ** 70000),
    ], ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}bits")
    def test_matches_str(self, value, unlimited_str):
        assert to_decimal(value) == unlimited_str(value)

    def test_large_term(self, unlimited_str):
        value = trib_fast(300000)
        assert to_decimal(value) == unlimited_str(value)

    @pytest.mark.parametrize("text,expected", [
        ("12345678901234567890", "12345678901234567890"),
        ("-987", "-987"),
        ("-0", "0"),  # libmpdec keeps the sign of a zero, an int never does
    ])
    def test_integral_decimal(self, text, expected):
        assert to_decimal(decimal.Decimal(text)) == expected

    def test_ignores_the_ambient_context(self, unlimited_str, monkeypatch):
        # past the int-to-str limit the text is built under the one exact
        # context of core; neither a narrow current context nor a narrowed
        # decimal route may round it
        narrow = matrices.EXACT.copy()
        narrow.prec = 50
        monkeypatch.setattr(matrices, "EXACT", narrow)
        value = -(7 ** 20000)
        with decimal.localcontext(decimal.Context(prec=5)):
            assert to_decimal(value) == unlimited_str(value)

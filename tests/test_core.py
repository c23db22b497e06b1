import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (Conversion, SequenceKind, TermCache, lucas_from_trib,
                     lucas_trib, term_reader, to_decimal, trib, trib_alt,
                     trib_fast, trib_from_lucas)

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


@pytest.mark.parametrize("n,variant,expected", [
    (3, Conversion.A, 7),
    (0, Conversion.B, 3),
    (6, Conversion.C, 39),
])
def test_lucas_from_trib_examples(n, variant, expected):
    assert lucas_from_trib(n, variant) == expected


def test_lucas_from_trib_all_variants_agree():
    for n in range(-200, 201):
        expected = lucas_trib(n)
        for variant in Conversion:
            assert lucas_from_trib(n, variant) == expected


@pytest.mark.parametrize("n,expected", [(2, 1), (0, 0), (9, 81)])
def test_trib_from_lucas_examples(n, expected):
    assert trib_from_lucas(n) == expected


def test_trib_from_lucas_full_range():
    for n in range(-200, 201):
        assert trib_from_lucas(n) == trib(n)


@given(st.integers(min_value=-300, max_value=300))
def test_conversions_roundtrip_property(n):
    assert lucas_from_trib(n, Conversion.B) == lucas_trib(n)
    assert trib_from_lucas(n) == trib(n)


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

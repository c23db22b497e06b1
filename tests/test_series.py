import decimal
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (PROFILE_BOUNDS, DegenerateDenominator,
                     DivisibilityViolation, K_MAT_SEEDS, Mat3, MatrixKind,
                     Profile, SequenceKind, SumSpec, T_MAT_SEEDS, gf_coeffs,
                     gf_matrix_coeffs, gf_numerators, gf_stream, k_matrix,
                     lucas_fast, lucas_trib, partial_sum,
                     partial_sum_bruteforce, registry, t_matrix, term_reader,
                     trib, verify_record)
from tribkit.matrices import KIND_SEEDS, decimal_form, kernel_term

T = SequenceKind.TRIBONACCI
K = SequenceKind.TRIBONACCI_LUCAS
TM = MatrixKind.TRIB_MATRIX
KM = MatrixKind.LUCAS_MATRIX

# numerator matrices of the two matrix series, frozen from their printed
# polynomial entries (constant, x, x^2)
TM_NUMERATORS = (
    Mat3((1, 0, 0, 0, 1, 0, 0, 0, 1)),
    Mat3((0, 1, 1, 1, -1, 0, 0, 1, -1)),
    Mat3((0, 1, 0, 0, 0, 1, 1, -1, -1)),
)
KM_NUMERATORS = (
    Mat3((1, 2, 3, 3, -2, -1, -1, 4, -1)),
    Mat3((2, 2, -2, -2, 4, 4, 4, -6, 0)),
    Mat3((3, -2, -1, -1, 4, -1, -1, 0, 5)),
)


class TestGeneratingFunctions:
    def test_scalar_examples(self):
        assert gf_coeffs(T, 5) == [0, 1, 1, 2, 4]
        assert gf_coeffs(K, 1) == [3]
        assert gf_coeffs(T, 13) == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149,
                                    274, 504]

    def test_scalar_coefficients_match_terms(self):
        assert gf_coeffs(T, 64) == [trib(i) for i in range(64)]
        assert gf_coeffs(K, 64) == [lucas_trib(i) for i in range(64)]

    def test_matrix_examples(self):
        assert gf_matrix_coeffs(TM, 1) == [T_MAT_SEEDS[0]]
        assert gf_matrix_coeffs(KM, 3) == list(K_MAT_SEEDS)

    def test_matrix_coefficients_match_terms(self, t_cache, k_cache):
        assert gf_matrix_coeffs(TM, 10) == [term_reader(TM, t_cache)(i)
                                            for i in range(10)]
        assert gf_matrix_coeffs(TM, 64) == [term_reader(TM, t_cache)(i)
                                            for i in range(64)]
        assert gf_matrix_coeffs(KM, 64) == [term_reader(KM, k_cache)(i)
                                            for i in range(64)]

    def test_numerators_reconcile_with_printed_polynomials(self):
        assert gf_numerators(TM) == TM_NUMERATORS
        assert gf_numerators(KM) == KM_NUMERATORS

    def test_scalar_numerators(self):
        assert gf_numerators(T) == (0, 1, 0)      # x
        assert gf_numerators(K) == (3, -2, -1)    # 3 - 2x - x^2

    def test_count_floor(self):
        with pytest.raises(ValueError):
            gf_coeffs(T, 0)
        with pytest.raises(ValueError):
            gf_matrix_coeffs(TM, 0)
        # raised by the call itself, before a coefficient is drawn
        with pytest.raises(ValueError):
            gf_stream(K, 0)
        with pytest.raises(ValueError):
            gf_stream(KM, -1)

    def test_rational_carries_fixed_denominator(self):
        # past its numerator (degree 2) every series obeys the common
        # denominator 1 - x - x^2 - x^3
        for kind in (T, K, TM, KM):
            c = list(gf_stream(kind, 64))
            for i in range(3, 64):
                assert c[i] == c[i - 1] + c[i - 2] + c[i - 3], (kind, i)
        assert gf_coeffs(K, 4) == [3, 1, 3, 7]

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 64])
    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_stream_matches_lists_and_terms(self, kind, count):
        stream = gf_stream(kind, count)
        assert iter(stream) is stream  # drawn lazily, not a list
        term = {T: trib, K: lucas_trib, TM: t_matrix, KM: k_matrix}[kind]
        expected = [term(i) for i in range(count)]
        listed = (gf_coeffs if kind in (T, K) else gf_matrix_coeffs)(
            kind, count)
        assert list(stream) == listed == expected


def _entry_types(coefficients) -> set:
    return {type(x) for c in coefficients
            for x in (c.entries if isinstance(c, Mat3) else (c,))}


class TestDecimalStream:
    """`gf_stream` with a Decimal unit, the stream of a long `gf` listing.
    Decimal == int, so the tests that compare values would pass on
    either unit; these pin the types and the contexts."""

    # several blocks of either shape: 144 scalars, 16 matrices a block
    COUNT = 400

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_default_unit_is_int(self, kind):
        listed = (gf_coeffs if kind in (T, K) else gf_matrix_coeffs)(
            kind, self.COUNT)
        streamed = list(gf_stream(kind, self.COUNT))
        shape = int if kind in (T, K) else Mat3
        for coefficients in (listed, streamed):
            assert {type(c) for c in coefficients} == {shape}
            assert _entry_types(coefficients) == {int}

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_decimal_unit_matches_int_unit(self, kind):
        values = list(gf_stream(kind, self.COUNT, decimal.Decimal(1)))
        assert _entry_types(values) == {decimal.Decimal}
        assert ([decimal_form(c) for c in values]
                == [decimal_form(c) for c in gf_stream(kind, self.COUNT)])

    @pytest.mark.parametrize("kind", [T, TM], ids=lambda k: k.value)
    def test_caller_context_between_coefficients(self, kind):
        # the stream computes under matrices.EXACT, a block at a time,
        # and never yields inside it
        with decimal.localcontext() as caller:
            caller.prec = 9
            for _ in gf_stream(kind, self.COUNT, decimal.Decimal(1)):
                assert decimal.getcontext() is caller
                assert caller.prec == 9

    def test_exact_under_the_default_context(self):
        # 28 digits by default; T(399) has 106
        with decimal.localcontext(decimal.DefaultContext):
            assert decimal.getcontext().prec == 28
            values = list(gf_stream(T, self.COUNT, decimal.Decimal(1)))
        assert len(str(values[-1])) > 100
        assert [str(c) for c in values] == [str(trib(i))
                                            for i in range(self.COUNT)]


class TestSumSpec:
    def test_rejects_m_not_above_j(self):
        with pytest.raises(ValueError, match="m > j >= 0"):
            SumSpec(T, 0, 0, 5)
        with pytest.raises(ValueError, match="m > j >= 0"):
            SumSpec(T, 2, 2, 5)
        with pytest.raises(ValueError, match="m > j >= 0"):
            SumSpec(T, 2, -1, 5)

    def test_rejects_empty_sum(self):
        with pytest.raises(ValueError, match="n >= 1"):
            SumSpec(T, 1, 0, 0)


class TestPartialSums:
    @pytest.mark.parametrize("kind,m,j,n,expected", [
        (T, 1, 0, 5, 8),     # (T(7) - T(5) - 1) / 2
        (K, 1, 0, 5, 25),    # (K(7) - K(5)) / 2
        (T, 3, 1, 4, 178),   # T(1) + T(4) + T(7) + T(10)
    ])
    def test_closed_form_examples(self, kind, m, j, n, expected):
        assert partial_sum(SumSpec(kind, m, j, n)) == expected

    @pytest.mark.parametrize("kind,m,j,n,expected", [
        (T, 1, 0, 1, 0),
        (K, 2, 1, 3, 29),   # K(1) + K(3) + K(5)
    ])
    def test_bruteforce_examples(self, kind, m, j, n, expected):
        assert partial_sum_bruteforce(SumSpec(kind, m, j, n)) == expected

    def test_bruteforce_matrix_example(self):
        spec = SumSpec(TM, 1, 0, 3)
        assert partial_sum_bruteforce(spec) == (
            T_MAT_SEEDS[0] + T_MAT_SEEDS[1] + T_MAT_SEEDS[2])

    def test_closed_form_matches_bruteforce_small_grid(self):
        for kind in (T, K, TM, KM):
            for m in range(1, 7):
                for j in range(m):
                    for n in range(1, 13):
                        spec = SumSpec(kind, m, j, n)
                        assert partial_sum(spec) == \
                            partial_sum_bruteforce(spec), spec

    @given(m=st.integers(1, 10), j=st.integers(0, 9), n=st.integers(1, 40),
           kind=st.sampled_from([T, K, TM, KM]))
    def test_closed_form_matches_bruteforce_property(self, m, j, n, kind):
        j = j % m
        spec = SumSpec(kind, m, j, n)
        assert partial_sum(spec) == partial_sum_bruteforce(spec)

    def test_first_terms_specializations(self, t_cache, k_cache):
        for n in range(1, 101):
            t_num = t_cache.get(n + 2) - t_cache.get(n) - 1
            assert t_num % 2 == 0
            assert partial_sum(SumSpec(T, 1, 0, n)) == t_num // 2
            k_num = k_cache.get(n + 2) - k_cache.get(n)
            assert k_num % 2 == 0
            assert partial_sum(SumSpec(K, 1, 0, n)) == k_num // 2

    def test_wrong_cache_kind_rejected(self, t_cache, k_cache):
        # a cache turns into terms in term_reader alone, which checks it
        with pytest.raises(ValueError):
            term_reader(T, k_cache)
        with pytest.raises(ValueError):
            term_reader(KM, t_cache)

    @pytest.mark.parametrize("summer,spec", [
        (partial_sum, SumSpec(TM, 7, 3, 10**5)),
        (partial_sum, SumSpec(T, 1, 0, 10**5)),
        (partial_sum_bruteforce, SumSpec(TM, 3, 1, 10**4)),
    ], ids=["TM-7-3-1e5", "T-1-0-1e5", "bruteforce-TM-3-1-1e4"])
    def test_memory_follows_answer_not_index(self, summer, spec):
        # a window of every term up to m*n + j would take tens to hundreds
        # of MB
        tracemalloc.start()
        try:
            summer(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestOneChain:
    """`partial_sum` reads its numerator u(top) - u(j) off one kernel
    chain over u's own seeds."""

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_matches_bruteforce(self, kind):
        for m in range(1, 7):
            for j in range(m):
                for n in range(1, 41):
                    spec = SumSpec(kind, m, j, n)
                    assert partial_sum(spec) == \
                        partial_sum_bruteforce(spec), spec

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_matches_six_readers_at_powers_of_two(self, kind):
        # the top index m*n + j at 2^k - 1 and 2^k + 1, both parities of
        # the read-out and a last chain step either way; the reference
        # reads u's six boundary terms off the sequence's own seeds
        seeds = KIND_SEEDS[kind][0]

        def s(i):
            return kernel_term(seeds, i)

        for k in range(2, 18):
            for top in (2**k - 1, 2**k + 1):
                m = 1 + k % 5
                j = top % m
                w = 1 - lucas_fast(m)
                numerator = (s(top + m) + s(top - m) + w * s(top)
                             - s(j + m) - s(j - m) - w * s(j))
                divisor = lucas_fast(m) - lucas_fast(-m)
                expected = (numerator.div_exact(divisor)
                            if isinstance(numerator, Mat3)
                            else numerator // divisor)
                assert partial_sum(SumSpec(kind, m, j, top // m)) == \
                    expected, (m, top)

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_one_chain_reaches_the_top(self, kind, monkeypatch):
        import tribkit.matrices as matrices
        lengths = []
        real = matrices._x_power

        def counting(n, counter=None, one=1):
            lengths.append(abs(n))
            return real(n, counter, one)

        monkeypatch.setattr(matrices, "_x_power", counting)
        m, j, n = 7, 3, 1500
        partial_sum(SumSpec(kind, m, j, n))
        # one chain to x^top, or to x^(top/2) for a scalar read-out; the
        # others (u's seeds s(i +- m), the divisor, u(j)) go no further
        # than m + 2
        assert sorted(lengths)[-2] <= m + 2
        assert lengths.count(max(lengths)) == 1
        assert max(lengths) >= (m * n + j) // 2

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_seed_off_by_one_fails(self, kind, monkeypatch):
        import tribkit.series as series
        real = series._u_seeds
        spec = SumSpec(kind, 3, 1, 20)
        expected = partial_sum_bruteforce(spec)
        one = Mat3((0, 0, 0, 1, 0, 0, 0, 0, 0)) if kind in (TM, KM) else 1
        for i in range(3):
            def off_by_one(seeds, m, w, i=i):
                u = list(real(seeds, m, w))
                u[i] = u[i] + one
                return tuple(u)

            monkeypatch.setattr(series, "_u_seeds", off_by_one)
            try:
                value = partial_sum(spec)
            except DivisibilityViolation:
                continue
            assert value != expected, i


class TestGuards:
    def test_degenerate_denominator(self, monkeypatch):
        import tribkit.series as series
        monkeypatch.setattr(series, "lucas_fast",
                            lambda n, counter=None: 7)
        with pytest.raises(DegenerateDenominator):
            series.partial_sum(SumSpec(T, 1, 0, 3))

    def test_divisibility_violation(self, monkeypatch):
        # force divisor 4 while the numerator stays a genuine T-combination
        import tribkit.series as series
        monkeypatch.setattr(series, "lucas_fast",
                            lambda n, counter=None: 5 if n >= 0 else 1)
        with pytest.raises(DivisibilityViolation):
            series.partial_sum(SumSpec(T, 1, 0, 2))


class TestDivisorReader:
    """`partial_sum` reads K(m) and K(-m) by `lucas_fast`; the registry's
    sum records never call it."""

    @pytest.mark.parametrize("kind", [T, K, TM, KM], ids=lambda k: k.value)
    def test_reader_off_by_one_at_minus_m_raises(self, kind, monkeypatch):
        # K(-m) one too small makes the divisor K(m) - K(-m) one too large
        import tribkit.series as series
        monkeypatch.setattr(series, "lucas_fast",
                            lambda n, counter=None: lucas_fast(n) - (n == -3))
        with pytest.raises(DivisibilityViolation):
            series.partial_sum(SumSpec(kind, 3, 1, 4))

    def test_registry_sums_never_call_lucas_fast(self, monkeypatch):
        import tribkit.matrices as matrices
        import tribkit.series as series
        real_sum = series.partial_sum
        calls = Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for module, name in ((series, "partial_sum"), (series, "lucas_fast"),
                             (matrices, "lucas_fast")):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        sums = [r for r in registry() if r.id.startswith("SUM")]
        reports = [verify_record(r, PROFILE_BOUNDS[Profile.STANDARD])
                   for r in sums]
        assert len(reports) == 4
        assert all(report.passed for report in reports)
        assert sum(report.cases for report in reports) == 4 * 55 * 30
        assert calls == {}
        # the same patch does see the calls of `partial_sum`
        real_sum(SumSpec(T, 1, 0, 1))
        assert calls == {"lucas_fast": 2}

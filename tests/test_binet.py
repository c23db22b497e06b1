import re
from functools import partial

import pytest
from mpmath import mp

import tribkit.binet as binet
from tribkit import (MatrixKind, OpCounter, PrecisionExhausted,
                     SequenceKind, binet_constants, binet_lucas,
                     binet_matrix, binet_trib, check_constant_algebra,
                     compute_roots, k_matrix, lucas_trib, radical_roots,
                     t_matrix, term_reader, trib)

ALPHA_64 = 1.839286755214161  # real root, double precision reference


class TestRoundToInt:
    """The 0.25 window: a value further from an integer is refused."""

    @pytest.mark.parametrize("z", [(7.4, 0), (-7.4, 0), (7, 0.3), (7, -0.3)],
                             ids=str)
    def test_outside_the_window_raises(self, z):
        z = mp.mpc(*z)
        with mp.workprec(256), pytest.raises(
                PrecisionExhausted, match="probe: .* is not within 0.25 of "
                                          "an integer"):
            binet._round_to_int(z, (z,), "probe", 256)

    @pytest.mark.parametrize("z,expected", [
        ((7.2, 0), 7), ((-7.2, 0), -7), ((6.8, 0.2), 7), ((0.2, -0.2), 0)],
        ids=str)
    def test_inside_the_window_rounds(self, z, expected):
        z = mp.mpc(*z)
        with mp.workprec(256):
            value = binet._round_to_int(z, (z,), "probe", 256)
        assert value == expected and type(value) is int


def _residual(x):
    return abs(x**3 - x**2 - x - 1)


class TestRoots:
    def test_alpha_value(self, roots256):
        assert abs(float(roots256.alpha.real) - ALPHA_64) < 1e-12
        assert roots256.alpha.imag == 0
        assert roots256.alpha.real > 1.8

    def test_residuals(self, roots256):
        with mp.workprec(300):
            bound = mp.mpf(2) ** (16 - 256)
            for root in (roots256.alpha, roots256.beta, roots256.gamma):
                assert _residual(root) < bound

    def test_symmetric_functions(self, roots256):
        a, b, g = roots256.alpha, roots256.beta, roots256.gamma
        with mp.workprec(300):
            eps = mp.mpf(2) ** (8 - 256)
            assert abs(a + b + g - 1) < eps
            assert abs(a * b + a * g + b * g + 1) < eps
            assert abs(a * b * g - 1) < eps

    def test_conjugate_pair(self, roots256):
        b, g = roots256.beta, roots256.gamma
        assert b.real == g.real
        assert b.imag + g.imag == 0
        assert b.imag > 0

    def test_radical_construction_agrees(self, roots256):
        rad = radical_roots(256)
        with mp.workprec(300):
            bound = mp.mpf(2) ** (16 - 256)
            assert abs(rad.alpha - roots256.alpha) < bound
            assert abs(rad.beta - roots256.beta) < bound
            assert abs(rad.gamma - roots256.gamma) < bound

    @pytest.mark.parametrize("bits", [64, 100, 129, 1024, 8192])
    def test_doubling_precision_newton(self, bits):
        # every height of the precision ladder, and none, ends at a root
        # as good as the radical construction's
        roots = compute_roots(bits)
        rad = radical_roots(bits)
        with mp.workprec(bits + 64):
            bound = mp.mpf(2) ** (16 - bits)
            for root, other in ((roots.alpha, rad.alpha),
                                (roots.beta, rad.beta),
                                (roots.gamma, rad.gamma)):
                assert _residual(root) < bound
                assert abs(root - other) < bound

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            compute_roots(32)
        with pytest.raises(ValueError):
            radical_roots(16)


class TestScalarBinet:
    @pytest.mark.parametrize("n,expected", [(7, 24), (0, 0), (-8, 4)])
    def test_trib_examples(self, n, expected, roots256):
        assert binet_trib(n, 256, roots256) == expected

    @pytest.mark.parametrize("n,expected", [(4, 11), (0, 3), (-9, 23)])
    def test_lucas_examples(self, n, expected, roots256):
        assert binet_lucas(n, 256, roots256) == expected

    def test_full_signed_range(self, roots256, t_cache, k_cache):
        for n in range(-60, 61):
            assert binet_trib(n, 256, roots256) == t_cache.get(n)
            assert binet_lucas(n, 256, roots256) == k_cache.get(n)

    def test_precision_exhausted_on_large_index(self):
        with pytest.raises(PrecisionExhausted):
            binet_trib(5000, 64)
        with pytest.raises(PrecisionExhausted):
            binet_lucas(5000, 64)
        with pytest.raises(PrecisionExhausted):
            binet_trib(-700, 256)

    @pytest.mark.parametrize("n", [1000, -2000])
    @pytest.mark.parametrize("binet,exact", [(binet_trib, trib),
                                             (binet_lucas, lucas_trib)],
                             ids=["trib", "lucas"])
    def test_exhausted_precision_names_the_bits_to_pass(self, binet, exact,
                                                        n):
        with pytest.raises(PrecisionExhausted) as excinfo:
            binet(n, 256)
        bits = int(re.search(r"--precision (\d+)\)", str(excinfo.value))[1])
        assert bits > 256
        assert binet(n, bits) == exact(n)

    def test_more_bits_extend_the_range(self):
        assert binet_trib(2000, 2048) == trib(2000)
        assert binet_lucas(-1000, 1024) == lucas_trib(-1000)

    @pytest.mark.parametrize("n", [200, 250, -300])
    @pytest.mark.parametrize("binet", [binet_trib, binet_lucas],
                             ids=["trib", "lucas"])
    def test_roots_below_the_precision_raise(self, binet, n):
        # 64-bit roots at 1024 bits round to wrong integers unless refused
        with pytest.raises(ValueError, match="at 64 bits.*1024 bits"):
            binet(n, 1024, compute_roots(64))

    def test_roots_above_the_precision_pass(self):
        assert binet_trib(100, 256, compute_roots(512)) == trib(100)
        assert binet_lucas(100, 256, compute_roots(512)) == lucas_trib(100)


# The first index at which Binet gives up, and the bits its error names,
# as measured with mpmath's own powers before the roots were powered by
# squaring: (bits, sign) -> (T, K, bits named).
FIRST_EXHAUSTED = {
    (256, 1): (291, 289, 257),
    (256, -1): (-581, -576, 257),
    (1024, 1): (1165, 1163, 1025),
    (1024, -1): (-2329, -2324, 1025),
    (4096, 1): (4659, 4657, 4097),
    (4096, -1): (-9316, -9313, 4097),
    (8192, 1): (9318, 9316, 8193),
    (8192, -1): (-18636, -18631, 8193),
}
BINET = {"T": (binet_trib, trib), "K": (binet_lucas, lucas_trib)}


class TestPowerChain:
    @pytest.mark.parametrize("bits", [1024, 4096, 8192])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("kind", ["T", "K"])
    def test_top_of_the_safe_range(self, kind, sign, bits):
        binet, exact = BINET[kind]
        first = FIRST_EXHAUSTED[bits, sign][kind == "K"]
        roots = compute_roots(bits)
        for n in (first - sign, first - 2 * sign):
            assert binet(n, bits, roots) == exact(n), n

    @pytest.mark.parametrize("bits", [256, 1024])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("kind", ["T", "K"])
    def test_first_exhausted_index_is_pinned(self, kind, sign, bits):
        binet, _ = BINET[kind]
        *firsts, named = FIRST_EXHAUSTED[bits, sign]
        first = firsts[kind == "K"]
        roots = compute_roots(bits)
        for n in range(0, first, sign):
            binet(n, bits, roots)  # raises if it gives up early
        with pytest.raises(PrecisionExhausted,
                           match=rf"\(--precision {named}\)$"):
            binet(first, bits, roots)

    @pytest.mark.parametrize("n", [0, 1, 2, 100, -1, -2, -100, 255, -256])
    def test_counter_credits_the_chain(self, n, roots256):
        def chain(e):  # squarings, steps by the root, one reciprocal
            e_bits = bin(abs(e))[3:]
            return (len(e_bits) + e_bits.count("1") + (e < 0)) if e else 0

        for binet, e, adds, extra_muls in ((binet_trib, n + 1, 6, 4),
                                           (binet_lucas, n, 2, 0)):
            counter = OpCounter()
            binet(n, 256, roots256, counter)
            assert counter.mat_muls == 2 * chain(e)  # alpha and beta
            assert counter.big_muls == 2 * chain(e) + extra_muls
            assert counter.big_adds == adds


class TestMatrixBinet:
    def test_examples(self, roots256, constants256):
        tm1 = binet_matrix(MatrixKind.TRIB_MATRIX, 1, 256, roots256,
                           constants256)
        assert tm1 == t_matrix(1)
        km0 = binet_matrix(MatrixKind.LUCAS_MATRIX, 0, 256, roots256,
                           constants256)
        assert km0 == k_matrix(0)
        tm15 = binet_matrix(MatrixKind.TRIB_MATRIX, 15, 256, roots256,
                            constants256)
        assert tm15 == t_matrix(15)

    def test_signed_range(self, roots256, constants256, t_cache, k_cache):
        tm = term_reader(MatrixKind.TRIB_MATRIX, t_cache)
        km = term_reader(MatrixKind.LUCAS_MATRIX, k_cache)
        for n in range(-30, 31):
            assert binet_matrix(MatrixKind.TRIB_MATRIX, n, 256, roots256,
                                constants256) == tm(n)
            assert binet_matrix(MatrixKind.LUCAS_MATRIX, n, 256, roots256,
                                constants256) == km(n)

    @pytest.mark.parametrize("binet,exact", [
        (binet_trib, trib), (binet_lucas, lucas_trib),
        (partial(binet_matrix, MatrixKind.TRIB_MATRIX), t_matrix),
        (partial(binet_matrix, MatrixKind.LUCAS_MATRIX), k_matrix),
    ], ids=["T", "K", "TM", "KM"])
    def test_one_retry_at_the_named_precision_succeeds(self, binet, exact):
        # cancelling terms once made a matrix entry look smaller than the
        # bits its terms need, so the named precision failed again
        retried = 0
        for n in range(-2000, 2001, 97):
            try:
                value = binet(n, 256)
            except PrecisionExhausted as excinfo:
                bits = int(re.search(r"--precision (\d+)\)",
                                     str(excinfo))[1])
                value = binet(n, bits)
                retried += 1
            assert value == exact(n), n
        assert retried >= 30  # most of the grid is beyond 256 bits

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_scalar_kind_refused(self, kind):
        # a kind other than TM once fell through to KM's weights
        with pytest.raises(ValueError, match=re.escape(str(kind))):
            binet_matrix(kind, 3)

    def test_roots_or_constants_below_the_precision_raise(self):
        roots64 = compute_roots(64)
        with pytest.raises(ValueError, match="roots computed at 64 bits"):
            binet_constants(1024, roots64)
        with pytest.raises(ValueError, match="roots computed at 64 bits"):
            binet_matrix(MatrixKind.TRIB_MATRIX, 60, 1024, roots64)
        with pytest.raises(ValueError,
                           match="constants computed at 64 bits"):
            binet_matrix(MatrixKind.LUCAS_MATRIX, 60, 1024,
                         constants=binet_constants(64, roots64))


class TestConstants:
    def test_partition_of_identity(self, roots256, constants256):
        c = constants256
        with mp.workprec(300):
            eps = mp.mpf(2) ** (8 - 256)
            ident = mp.matrix(t_matrix(0).rows())
            assert mp.norm(c.a1 + c.b1 + c.c1 - ident, mp.inf) < eps
            km0 = mp.matrix(k_matrix(0).rows())
            assert mp.norm(c.a2 + c.b2 + c.c2 - km0, mp.inf) < eps

    def test_weighted_powers_hit_seed_matrices(self, roots256, constants256):
        a, b, g = roots256.alpha, roots256.beta, roots256.gamma
        c = constants256
        with mp.workprec(300):
            eps = mp.mpf(2) ** (8 - 256)
            tm2 = a**2 * c.a1 + b**2 * c.b1 + g**2 * c.c1
            assert mp.norm(tm2 - mp.matrix(t_matrix(2).rows()), mp.inf) < eps
            km1 = a * c.a2 + b * c.b2 + g * c.c2
            assert mp.norm(km1 - mp.matrix(k_matrix(1).rows()), mp.inf) < eps

    def test_constant_algebra_report(self, constants256):
        report = check_constant_algebra(256, 1e-50, constants256)
        assert report.passed
        assert len(report.checks) == 15
        labels = {c.label for c in report.checks}
        assert {"A1^2 - A1", "B1^2 - B1", "C1^2 - C1"} <= labels
        assert {"A1*B1", "B1*A1", "C1*B1", "A2*B2", "B2*C2", "C2*A2"} <= labels
        assert report.worst().deviation < 1e-50

    def test_constant_algebra_refuses_constants_below_the_precision(self):
        # 64-bit constants at 1024 bits would fail the algebra on their
        # own rounding, not on the algebra
        with pytest.raises(ValueError,
                           match="constants computed at 64 bits"):
            check_constant_algebra(1024, 1e-250, binet_constants(64))

    def test_constant_algebra_fails_at_absurd_epsilon(self, constants256):
        report = check_constant_algebra(256, 1e-120, constants256)
        assert not report.passed  # deviations are tiny but not that tiny

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (DivisibilityViolation, IDENTITY, K_MAT_SEEDS, Mat3,
                     MatrixKind, MatrixStrategy, NegativeExponent, OpCounter,
                     SequenceKind, T_MAT_SEEDS, k_matrix, lucas_fast,
                     lucas_trib, mat_mul, mat_pow, t_matrix, trib, trib_fast)
from tribkit.core import walk
from tribkit.matrices import KIND_SEEDS, kernel_term, term_reader

T_STRATEGIES = (MatrixStrategy.ITERATE, MatrixStrategy.CLOSED_FORM,
                MatrixStrategy.MAT_POW)
K_STRATEGIES = (MatrixStrategy.ITERATE, MatrixStrategy.CLOSED_FORM,
                MatrixStrategy.FROM_T)

# TM(10), assembled from the published terms T(7)..T(11)
TM_10 = Mat3((274, 230, 149, 149, 125, 81, 81, 68, 44))
# TM(-3), assembled from the backward-recurrence terms T(-6)..T(-2)
TM_NEG3 = Mat3((1, -1, -1, -1, 2, 0, 0, -1, 2))
# TM(-1); det TM(1) = 1, so the inverse has integer entries
TM_INV = Mat3((0, 1, 0, 0, 0, 1, 1, -1, -1))


def tm_pow(n):
    """TM(1)**n by 3x3 matrix products, for any signed n."""
    return mat_pow(T_MAT_SEEDS[1], n) if n >= 0 else mat_pow(TM_INV, -n)


def test_seed_matrices_all_strategies():
    for strategy in T_STRATEGIES:
        assert t_matrix(0, strategy) == IDENTITY
        assert t_matrix(1, strategy) == T_MAT_SEEDS[1]
        assert t_matrix(2, strategy) == T_MAT_SEEDS[2]
    for strategy in K_STRATEGIES:
        assert k_matrix(0, strategy) == K_MAT_SEEDS[0]
        assert k_matrix(1, strategy) == K_MAT_SEEDS[1]
        assert k_matrix(2, strategy) == K_MAT_SEEDS[2]


def test_mat_mul_examples():
    assert mat_mul(IDENTITY, T_MAT_SEEDS[1]) == T_MAT_SEEDS[1]
    assert mat_mul(T_MAT_SEEDS[1], T_MAT_SEEDS[1]) == T_MAT_SEEDS[2]
    assert mat_mul(K_MAT_SEEDS[0], T_MAT_SEEDS[1]) == K_MAT_SEEDS[1]


def test_mat_mul_counter_credits():
    counter = OpCounter()
    mat_mul(T_MAT_SEEDS[1], T_MAT_SEEDS[2], counter)
    assert (counter.mat_muls, counter.big_muls, counter.big_adds) == (1, 27, 18)


def test_mat_pow_examples():
    assert mat_pow(T_MAT_SEEDS[1], 0) == IDENTITY
    assert mat_pow(T_MAT_SEEDS[1], 1) == T_MAT_SEEDS[1]
    assert mat_pow(T_MAT_SEEDS[1], 2) == T_MAT_SEEDS[2]
    assert mat_pow(T_MAT_SEEDS[2], 5) == TM_10
    assert TM_10 == t_matrix(10, MatrixStrategy.ITERATE)


def test_mat_pow_rejects_negative_exponent():
    with pytest.raises(NegativeExponent):
        mat_pow(T_MAT_SEEDS[1], -1)


def test_operators_are_mat_mul_and_mat_pow():
    a, b = t_matrix(5), k_matrix(-3)
    assert a * b == mat_mul(a, b)
    assert b * a == mat_mul(b, a)
    for e in (0, 1, 2, 7):
        assert a ** e == mat_pow(a, e)
    with pytest.raises(TypeError):
        a * 2
    assert 2 * a == a + a
    with pytest.raises(NegativeExponent):
        a ** -1


small_mat3 = st.builds(
    Mat3, st.tuples(*[st.integers(min_value=-50, max_value=50)] * 9))


@given(a=small_mat3, b=small_mat3, c=small_mat3)
def test_mat_mul_associative_identity(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
    assert mat_mul(IDENTITY, a) == a
    assert mat_mul(a, IDENTITY) == a


@given(a=small_mat3, e=st.integers(min_value=0, max_value=9))
def test_mat_pow_matches_repeated_product(a, e):
    expected = IDENTITY
    for _ in range(e):
        expected = mat_mul(expected, a)
    assert mat_pow(a, e) == expected


def test_strategies_agree_on_signed_range(t_cache, k_cache):
    for n in range(-60, 61):
        reference = t_matrix(n, MatrixStrategy.ITERATE)
        assert t_matrix(n, MatrixStrategy.CLOSED_FORM, t_cache) == reference
        assert t_matrix(n, MatrixStrategy.MAT_POW) == reference
        reference = k_matrix(n, MatrixStrategy.ITERATE)
        assert k_matrix(n, MatrixStrategy.CLOSED_FORM, k_cache) == reference
        assert k_matrix(n, MatrixStrategy.FROM_T, t_cache) == reference


def test_matrix_recurrence_entrywise(t_cache, k_cache):
    for n in range(-60, 61):
        assert t_matrix(n, cache=t_cache) == (
            t_matrix(n - 1, cache=t_cache) + t_matrix(n - 2, cache=t_cache)
            + t_matrix(n - 3, cache=t_cache))
        assert k_matrix(n, cache=k_cache) == (
            k_matrix(n - 1, cache=k_cache) + k_matrix(n - 2, cache=k_cache)
            + k_matrix(n - 3, cache=k_cache))


def test_negative_index_iterate_example():
    assert t_matrix(-3, MatrixStrategy.ITERATE) == TM_NEG3


def test_cacheless_strategies_match_iterate(t_cache, k_cache):
    # one recurrence from four seed triples: for every kind the walk, the
    # kernel read-out and the cache's closed form agree
    caches = {SequenceKind.TRIBONACCI: t_cache,
              SequenceKind.TRIBONACCI_LUCAS: k_cache,
              MatrixKind.TRIB_MATRIX: t_cache,
              MatrixKind.LUCAS_MATRIX: k_cache}
    ns = [*range(-300, 301), 10**4, -10**4]
    for kind, cache in caches.items():
        seeds = KIND_SEEDS[kind][0]
        read = term_reader(kind, cache)
        for n in ns:
            assert walk(seeds, n) == kernel_term(seeds, n) == read(n), (kind, n)
    for n in ns:
        assert t_matrix(n) == t_matrix(n, MatrixStrategy.ITERATE)
        assert k_matrix(n) == k_matrix(n, MatrixStrategy.FROM_T) == k_matrix(
            n, MatrixStrategy.ITERATE)
    for n in range(-200, 0):
        assert t_matrix(n, MatrixStrategy.MAT_POW) == t_matrix(
            n, MatrixStrategy.ITERATE)


def test_product_laws(t_cache, k_cache):
    tm = lambda i: t_matrix(i, cache=t_cache)
    km = lambda i: k_matrix(i, cache=k_cache)
    for m in range(0, 41):
        for n in range(0, 41):
            prod = mat_mul(tm(m), tm(n))
            assert prod == tm(m + n)
            assert prod == mat_mul(tm(n), tm(m))
            assert mat_mul(tm(m), km(n)) == km(m + n) == mat_mul(km(n), tm(m))


def test_lucas_product_expansion(t_cache, k_cache):
    tm = lambda i: t_matrix(i, cache=t_cache)
    km = lambda i: k_matrix(i, cache=k_cache)
    for m in range(0, 31):
        for n in range(0, 31):
            s = m + n
            assert mat_mul(km(m), km(n)) == (
                9 * tm(s + 2) - 12 * tm(s + 1) - 2 * tm(s)
                + 4 * tm(s - 1) + tm(s - 2))


def test_power_laws(t_cache):
    tm = lambda i: t_matrix(i, cache=t_cache)
    for n in range(0, 13):
        for m in range(0, 6):
            assert mat_pow(tm(n), m) == tm(m * n)
            assert mat_pow(tm(n + 1), m) == mat_mul(
                mat_pow(T_MAT_SEEDS[1], m), tm(m * n))


def test_shifted_square_laws(t_cache, k_cache):
    tm = lambda i: t_matrix(i, cache=t_cache)
    km = lambda i: k_matrix(i, cache=k_cache)
    for n in range(0, 31):
        tm_sq = mat_mul(tm(n), tm(n))
        km_sq = mat_mul(km(n), km(n))
        assert tm_sq == mat_pow(T_MAT_SEEDS[2], n)
        for r in range(0, n + 1):
            assert mat_mul(tm(n - r), tm(n + r)) == tm_sq
            assert mat_mul(km(n - r), km(n + r)) == km_sq


def test_lucas_power_via_base_matrix(t_cache, k_cache):
    tm = lambda i: t_matrix(i, cache=t_cache)
    km = lambda i: k_matrix(i, cache=k_cache)
    for n in range(0, 13):
        for m in range(0, 5):
            assert mat_pow(km(n), m) == mat_mul(
                mat_pow(K_MAT_SEEDS[0], m), tm(m * n))


def test_interrelations(t_cache, k_cache):
    tm = lambda i: t_matrix(i, cache=t_cache)
    km = lambda i: k_matrix(i, cache=k_cache)
    for n in range(-40, 41):
        assert km(n) == 3 * tm(n + 1) - 2 * tm(n) - tm(n - 1)
        assert km(n) == tm(n) + 2 * tm(n - 1) + 3 * tm(n - 2)
        assert km(n) == 4 * tm(n + 1) - tm(n) - tm(n + 2)
        assert 22 * tm(n) == 5 * km(n + 2) - 3 * km(n + 1) - 4 * km(n)
        assert 22 * tm(n) == km(n) + 5 * km(n - 1) + 2 * km(n + 1)


def test_from_t_strategy_scalar_cell():
    assert k_matrix(5, MatrixStrategy.FROM_T).entry(1, 0) == 21


def test_from_t_rejects_lucas_cache(k_cache):
    with pytest.raises(ValueError):
        k_matrix(5, MatrixStrategy.FROM_T, k_cache)


@pytest.mark.parametrize("n,expected", [(10, 149), (0, 0)])
def test_trib_fast_examples(n, expected):
    assert trib_fast(n) == expected


def test_trib_fast_matches_iteration(t_cache):
    assert trib_fast(100) == trib(100)
    for n in range(-2000, 2001):
        assert trib_fast(n) == trib(n, t_cache) == tm_pow(n).entry(1, 0)
    for n in (10**5, -10**5):
        assert trib_fast(n) == trib(n) == tm_pow(n).entry(1, 0)


def test_trib_fast_multiplication_bound():
    for n in (5, 10, 149, 1000, 65536, 10**6, -5, -1000, -10**5):
        counter = OpCounter()
        trib_fast(n, counter)
        assert counter.mat_muls <= 2 * math.ceil(math.log2(abs(n))) + 2
        assert counter.big_adds < 1000  # no O(|n|) walk at either sign


def test_lucas_fast_matches_iteration(k_cache):
    def km_pow(n):
        return mat_mul(K_MAT_SEEDS[0], tm_pow(n)).entry(1, 0)

    for n in range(-2000, 2001):
        assert lucas_fast(n) == lucas_trib(n, k_cache) == km_pow(n)
    for n in (10**5, -10**5):
        assert lucas_fast(n) == lucas_trib(n) == km_pow(n)


def test_div_exact():
    m = Mat3((22, 44, 0, -22, 66, 110, 22, 22, 22))
    assert m.div_exact(22) == Mat3((1, 2, 0, -1, 3, 5, 1, 1, 1))
    with pytest.raises(DivisibilityViolation):
        Mat3((22, 44, 1, 0, 0, 0, 0, 0, 0)).div_exact(22)


def test_mat3_shape_guard():
    with pytest.raises(ValueError):
        Mat3((1, 2, 3))

import copy
import dataclasses
import decimal
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (DivisibilityViolation, IDENTITY, K_MAT_SEEDS, Mat3,
                     MatrixKind, NegativeExponent, OpCounter,
                     SequenceKind, T_MAT_SEEDS, k_matrix, lucas_fast,
                     lucas_trib, mat_mul, mat_pow, matrices, t_matrix,
                     to_decimal, trib, trib_fast)
from tribkit.core import SEEDS, walk
from tribkit.bench import STRATEGIES
from tribkit.matrices import (DECIMAL_CROSSOVER, KIND_SEEDS, decimal_form,
                              decimal_term, kernel_term, term_reader)

TM = MatrixKind.TRIB_MATRIX
KM = MatrixKind.LUCAS_MATRIX

# TM(10), assembled from the published terms T(7)..T(11)
TM_10 = Mat3((274, 230, 149, 149, 125, 81, 81, 68, 44))
# TM(-3), assembled from the backward-recurrence terms T(-6)..T(-2)
TM_NEG3 = Mat3((1, -1, -1, -1, 2, 0, 0, -1, 2))
# TM(-1); det TM(1) = 1, so the inverse has integer entries
TM_INV = Mat3((0, 1, 0, 0, 0, 1, 1, -1, -1))


def tm_pow(n):
    """TM(1)**n by 3x3 matrix products, for any signed n."""
    return mat_pow(T_MAT_SEEDS[1], n) if n >= 0 else mat_pow(TM_INV, -n)


def km_from_t(n):
    """KM(n) as KM(0) @ TM(n) (LEM16a)."""
    return mat_mul(K_MAT_SEEDS[0], t_matrix(n))


# the kernel and its independent oracles, called by name
T_ROUTES = (lambda n: walk(T_MAT_SEEDS, n), t_matrix, tm_pow)
K_ROUTES = (lambda n: walk(K_MAT_SEEDS, n), k_matrix, km_from_t)


def test_seed_matrices_all_strategies():
    for route in T_ROUTES:
        assert route(0) == IDENTITY
        assert route(1) == T_MAT_SEEDS[1]
        assert route(2) == T_MAT_SEEDS[2]
    for route in K_ROUTES:
        assert route(0) == K_MAT_SEEDS[0]
        assert route(1) == K_MAT_SEEDS[1]
        assert route(2) == K_MAT_SEEDS[2]


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
    assert TM_10 == walk(T_MAT_SEEDS, 10)


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


def test_sum_with_a_non_matrix_is_type_error():
    a = t_matrix(3)
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a - 1
    with pytest.raises(TypeError):
        2.5 * a


big_entry = st.integers(min_value=-2**4000, max_value=2**4000)
big_mat3 = st.builds(Mat3, st.tuples(*[big_entry] * 9))


@given(a=big_mat3, b=big_mat3,
       k=st.one_of(st.integers(-3, 3), big_entry,
                   st.sampled_from([0, -1, 2**4000, -2**4000])))
def test_entrywise_operators_match_reference(a, b, k):
    pairs = list(zip(a.entries, b.entries))
    assert (a + b).entries == tuple(x + y for x, y in pairs)
    assert (a - b).entries == tuple(x - y for x, y in pairs)
    assert (k * a).entries == tuple(k * x for x in a.entries)
    assert (-a).entries == tuple(-x for x in a.entries)


@given(q=big_mat3, d=st.one_of(st.integers(1, 50), st.integers(-50, -1),
                               big_entry.filter(bool)))
def test_div_exact_matches_reference(q, d):
    product = Mat3(tuple(d * x for x in q.entries))
    assert product.div_exact(d) == q
    assert product.div_exact(d).entries == tuple(
        x // d for x in product.entries)


@pytest.mark.parametrize("position", range(9))
def test_div_exact_names_the_entry_with_a_remainder(position):
    entries = [22 * (i + 2) for i in range(9)]
    entries[position] += 5
    bad = entries[position]
    row, col = divmod(position, 3)
    with pytest.raises(DivisibilityViolation,
                       match=rf"entry {bad} at row {row + 1}, "
                             rf"column {col + 1}$"):
        Mat3(tuple(entries)).div_exact(22)


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
        reference = walk(T_MAT_SEEDS, n)
        assert term_reader(TM, t_cache)(n) == reference
        assert tm_pow(n) == reference
        reference = walk(K_MAT_SEEDS, n)
        assert term_reader(KM, k_cache)(n) == reference
        assert km_from_t(n) == reference


def test_matrix_recurrence_entrywise(t_cache, k_cache):
    tm = term_reader(TM, t_cache)
    km = term_reader(KM, k_cache)
    for n in range(-60, 61):
        assert tm(n) == tm(n - 1) + tm(n - 2) + tm(n - 3)
        assert km(n) == km(n - 1) + km(n - 2) + km(n - 3)


def test_negative_index_iterate_example():
    assert walk(T_MAT_SEEDS, -3) == TM_NEG3


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
        assert t_matrix(n) == walk(T_MAT_SEEDS, n)
        assert k_matrix(n) == km_from_t(n) == walk(K_MAT_SEEDS, n)
    for n in range(-200, 0):
        assert tm_pow(n) == walk(T_MAT_SEEDS, n)


def test_product_laws(t_cache, k_cache):
    tm = term_reader(TM, t_cache)
    km = term_reader(KM, k_cache)
    for m in range(0, 41):
        for n in range(0, 41):
            prod = mat_mul(tm(m), tm(n))
            assert prod == tm(m + n)
            assert prod == mat_mul(tm(n), tm(m))
            assert mat_mul(tm(m), km(n)) == km(m + n) == mat_mul(km(n), tm(m))


def test_lucas_product_expansion(t_cache, k_cache):
    tm = term_reader(TM, t_cache)
    km = term_reader(KM, k_cache)
    for m in range(0, 31):
        for n in range(0, 31):
            s = m + n
            assert mat_mul(km(m), km(n)) == (
                9 * tm(s + 2) - 12 * tm(s + 1) - 2 * tm(s)
                + 4 * tm(s - 1) + tm(s - 2))


def test_power_laws(t_cache):
    tm = term_reader(TM, t_cache)
    for n in range(0, 13):
        for m in range(0, 6):
            assert mat_pow(tm(n), m) == tm(m * n)
            assert mat_pow(tm(n + 1), m) == mat_mul(
                mat_pow(T_MAT_SEEDS[1], m), tm(m * n))


def test_shifted_square_laws(t_cache, k_cache):
    tm = term_reader(TM, t_cache)
    km = term_reader(KM, k_cache)
    for n in range(0, 31):
        tm_sq = mat_mul(tm(n), tm(n))
        km_sq = mat_mul(km(n), km(n))
        assert tm_sq == mat_pow(T_MAT_SEEDS[2], n)
        for r in range(0, n + 1):
            assert mat_mul(tm(n - r), tm(n + r)) == tm_sq
            assert mat_mul(km(n - r), km(n + r)) == km_sq


def test_lucas_power_via_base_matrix(t_cache, k_cache):
    tm = term_reader(TM, t_cache)
    km = term_reader(KM, k_cache)
    for n in range(0, 13):
        for m in range(0, 5):
            assert mat_pow(km(n), m) == mat_mul(
                mat_pow(K_MAT_SEEDS[0], m), tm(m * n))


def test_interrelations(t_cache, k_cache):
    tm = term_reader(TM, t_cache)
    km = term_reader(KM, k_cache)
    for n in range(-40, 41):
        assert km(n) == 3 * tm(n + 1) - 2 * tm(n) - tm(n - 1)
        assert km(n) == tm(n) + 2 * tm(n - 1) + 3 * tm(n - 2)
        assert km(n) == 4 * tm(n + 1) - tm(n) - tm(n + 2)
        assert 22 * tm(n) == 5 * km(n + 2) - 3 * km(n + 1) - 4 * km(n)
        assert 22 * tm(n) == km(n) + 5 * km(n - 1) + 2 * km(n + 1)


def test_from_t_strategy_scalar_cell():
    assert km_from_t(5).entry(1, 0) == 21


def test_from_t_rejects_lucas_cache(k_cache):
    with pytest.raises(ValueError):
        term_reader(TM, k_cache)


@pytest.mark.parametrize("n,expected", [(10, 149), (0, 0)])
def test_trib_fast_examples(n, expected):
    assert trib_fast(n) == expected


def test_trib_fast_matches_iteration(t_cache):
    assert trib_fast(100) == trib(100)
    for n in range(-2000, 2001):
        assert trib_fast(n) == t_cache.get(n) == tm_pow(n).entry(1, 0)
    for n in (10**5, -10**5):
        assert trib_fast(n) == trib(n) == tm_pow(n).entry(1, 0)


def test_trib_fast_multiplication_bound():
    for n in (5, 10, 149, 1000, 65536, 10**6, -5, -1000, -10**5):
        counter = OpCounter()
        trib_fast(n, counter)
        assert counter.mat_muls <= 2 * math.ceil(math.log2(abs(n))) + 2
        assert counter.big_adds < 1000  # no O(|n|) walk at either sign
        # 6 squares a squaring up to x**(n/2), then the 3 of the read-out
        squarings = (abs(n) // 2).bit_length() - 1
        assert counter.big_muls == 6 * squarings + 3


def test_lucas_fast_matches_iteration(k_cache):
    def km_pow(n):
        return mat_mul(K_MAT_SEEDS[0], tm_pow(n)).entry(1, 0)

    for n in range(-2000, 2001):
        assert lucas_fast(n) == k_cache.get(n) == km_pow(n)
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


# every way an operator builds a Mat3
OPERATORS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "rmul": lambda a, b: 7 * a,
    "mul": lambda a, b: a * b,
    "matmul": lambda a, b: a @ b,
    "pow": lambda a, b: a ** 3,
    "mat_mul": mat_mul,
    "div_exact": lambda a, b: (22 * a).div_exact(22),
}


@pytest.mark.parametrize("op", OPERATORS)
def test_operator_results_are_plain_mat3s(op, monkeypatch):
    a, b = t_matrix(5), k_matrix(-3)
    built = []
    monkeypatch.setattr(Mat3, "__post_init__", lambda self: built.append(1))
    result = OPERATORS[op](a, b)
    # the result skipped the dataclass constructor and its check ...
    assert built == []
    monkeypatch.undo()
    # ... and is what the constructor gives for its entries
    assert type(result) is Mat3 and len(result.entries) == 9
    assert result == Mat3(result.entries)
    assert hash(result) == hash(Mat3(result.entries))


def test_mat3_immutable_and_repr():
    a = -t_matrix(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.entries = IDENTITY.entries
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.entries
    # no other attribute either, with the same error
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.extra
    assert not hasattr(a, "__dict__")
    assert a.entries == (-2, -2, -1, -1, -1, -1, -1, 0, 0)
    assert repr(a) == "Mat3(entries=(-2, -2, -1, -1, -1, -1, -1, 0, 0))"


def test_mat3_copies_and_pickles():
    a = -t_matrix(2)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is Mat3 and b == a and hash(b) == hash(a)


# The decimal route is a second arithmetic: its text must be the int
# kernel's, digit for digit, and both share the read-out, so both are
# also held to the walk, which shares no arithmetic with them.
@pytest.mark.parametrize("kind", SequenceKind)
def test_decimal_route_matches_int_route(kind):
    seeds = KIND_SEEDS[kind][0]
    int_term = lambda n: kernel_term(seeds, n)
    for n in range(-300, 301):
        value = decimal_term(kind, n)
        assert type(value) is decimal.Decimal
        expected = str(walk(SEEDS[kind], n))
        assert decimal_form(value) == decimal_form(int_term(n)) == expected, n


@pytest.mark.parametrize("kind", [TM, KM], ids=lambda k: k.value)
def test_matrix_decimal_route_matches_int_route(kind):
    seeds = KIND_SEEDS[kind][0]
    int_term = lambda n: kernel_term(seeds, n)
    for n in [*range(-300, 301), 5 * 10**4, -5 * 10**4]:
        value = decimal_term(kind, n)
        assert {type(x) for x in value.entries} == {decimal.Decimal}
        text = decimal_form(value)
        assert text == decimal_form(int_term(n)), n
        if abs(n) <= 300:
            assert text == decimal_form(walk(seeds, n)), n


def test_decimal_zero_prints_unsigned():
    # libmpdec keeps the sign of a zero product: -1 * 0 is -0
    minus_zero = decimal.Decimal(-1) * 0
    assert str(minus_zero) == "-0"
    assert decimal_form(minus_zero) == "0"
    assert decimal_form(Mat3((minus_zero,) * 9)) == [["0"] * 3] * 3


@pytest.mark.parametrize("n", [10**5 - 1, 10**5 + 1, 2 * 10**5 - 1,
                               2 * 10**5 + 1, 1 - 10**5, -1 - 10**5,
                               1 - 2 * 10**5, -1 - 2 * 10**5])
def test_read_out_matches_mat_pow(n):
    tm = tm_pow(n)
    t, k = tm.entry(1, 0), (3 * tm.entry(0, 0) - 2 * tm.entry(1, 0)
                            - tm.entry(1, 2))  # K(n) = 3T(n+1) - 2T(n) - T(n-1)
    assert trib_fast(n) == t
    assert lucas_fast(n) == k
    assert decimal_form(decimal_term(SequenceKind.TRIBONACCI, n)) == \
        to_decimal(t)
    assert decimal_form(decimal_term(SequenceKind.TRIBONACCI_LUCAS, n)) == \
        to_decimal(k)


@pytest.mark.parametrize("f", [-1, 0, 1])
@pytest.mark.parametrize("kind", SequenceKind)
def test_read_out_weight_off_by_one_fails(kind, f, monkeypatch):
    forms_of = matrices._square_forms
    d, forms = forms_of(SEEDS[kind], f)
    assert len(forms) == 3  # the form has rank 3
    for i in range(len(forms)):
        skewed = list(forms)
        skewed[i] = (forms[i][0] + 1, *forms[i][1:])

        def square_forms(seeds, g, skewed=tuple(skewed)):
            return (d, skewed) if g == f else forms_of(seeds, g)

        monkeypatch.setattr(matrices, "_square_forms", square_forms)
        wrong = 0
        for n in range(-40, 41):
            try:
                wrong += kernel_term(SEEDS[kind], n) != walk(SEEDS[kind], n)
            except DivisibilityViolation:
                wrong += 1
        assert wrong > 0, (kind, f, i)


def test_square_forms_are_derived_from_the_seeds():
    # d*s(2k + f) = sum of w*(l . p)**2 for every p, here on a grid; the
    # form of (1, -1, 1) at f = 0 has a zero diagonal after one square
    for seeds in (SEEDS[SequenceKind.TRIBONACCI],
                  SEEDS[SequenceKind.TRIBONACCI_LUCAS], (0, 0, 0),
                  (0, 0, 1), (5, -3, 2), (1, -1, 1)):
        for f in (-1, 0, 1):
            d, forms = matrices._square_forms(seeds, f)
            assert d > 0
            for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5),
                      (-7, 1, 4)):
                quadratic = sum(p[i] * p[j] * walk(seeds, i + j + f)
                                for i in range(3) for j in range(3))
                squares = sum(w * sum(x * y for x, y in zip(line, p)) ** 2
                              for w, *line in forms)
                assert d * quadratic == squares, (seeds, f, p)
        for n in range(-30, 31):
            assert kernel_term(seeds, n) == walk(seeds, n), (seeds, n)


@pytest.mark.parametrize("n", [7, -7])
def test_bench_strategies_return_int(n):
    for kind in SequenceKind:
        for name, run in STRATEGIES.items():
            assert type(run(kind, n, 256, None)) is int, name


@pytest.mark.parametrize("n", [DECIMAL_CROSSOVER, -DECIMAL_CROSSOVER])
def test_fast_terms_stay_int_past_the_crossover(n):
    assert type(trib_fast(n)) is int
    assert type(lucas_fast(n)) is int

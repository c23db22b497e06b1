import __future__
import copy
import dataclasses
import decimal
import functools
import inspect
import math
import pickle
import re
import textwrap
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribkit import (DivisibilityViolation, IDENTITY, K_MAT_SEEDS, Mat3,
                     MatrixKind, NegativeExponent, OpCounter,
                     SequenceKind, T_MAT_SEEDS, identities, k_matrix,
                     lucas_fast, lucas_trib, mat_mul, mat_pow, matrices,
                     t_matrix, to_decimal, trib, trib_fast)
from tribkit.core import SEEDS, walk
from tribkit.bench import STRATEGIES
from tribkit.matrices import (DECIMAL_CROSSOVER, FIVE_SQUARES_FROM,
                              KIND_SEEDS, ZQ, decimal_form, decimal_term,
                              kernel_term, term_reader)
from tribkit.series import SumSpec, partial_sum

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


@pytest.mark.parametrize("e", [0, 1, 2, 3, 255, 256])
def test_mat_pow_counter_credits_the_chain(e):
    # a squaring for each bit below the most significant one, and a
    # product by the base for each of those that is set: the rule that
    # Binet's root powers are held to as well (test_binet.py)
    bits = bin(e)[3:]
    products = len(bits) + bits.count("1")
    counter = OpCounter()
    assert mat_pow(T_MAT_SEEDS[1], e, counter) == walk(T_MAT_SEEDS, e)
    assert counter.mat_muls == products
    assert counter.big_muls == 27 * products
    assert counter.big_adds == 18 * products


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
    # T's read-out is one product and one square; K's too at even n, and
    # three squares at odd n
    for run, odd_read_out in ((trib_fast, 2), (lucas_fast, 3)):
        for n in (5, 10, 149, 1000, 8191, 8192, 65536, 10**6, -5, -1000,
                  -10**5, -10**5 - 1):
            read_out = odd_read_out if n % 2 else 2
            counter = OpCounter()
            run(n, counter)
            assert counter.mat_muls <= 2 * math.ceil(math.log2(abs(n))) + 2
            assert counter.big_adds < 1000  # no O(|n|) walk at either sign
            # a squaring of x**e up to x**(n/2): 6 squares, or 5 from
            # e = FIVE_SQUARES_FROM on; then the read-out
            k = abs(n) // 2
            squarings = k.bit_length() - 1
            fives = sum(k >> s >= FIVE_SQUARES_FROM
                        for s in range(1, squarings + 1))
            assert counter.big_muls == \
                6 * (squarings - fives) + 5 * fives + read_out, (run, n)


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
def test_operator_results_are_plain_mat3s(op):
    a, b = t_matrix(5), k_matrix(-3)
    result = OPERATORS[op](a, b)
    # what the constructor gives for its entries
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


def test_zq_immutable_and_repr():
    x = ZQ(1, 2, 3)
    with pytest.raises(AttributeError):
        x.coordinates = (4, 5, 6)
    with pytest.raises(AttributeError):
        del x.coordinates
    with pytest.raises(AttributeError):
        x.other = 1
    assert x == ZQ(1, 2, 3) and x.coordinates == (1, 2, 3)
    assert repr(x) == "ZQ(1, 2, 3)"


def test_zq_copies_and_pickles():
    x = ZQ(1, 2, 3)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is ZQ and y.coordinates == x.coordinates
        assert y == x and hash(y) == hash(x)


# every way the ring builds a ZQ
RING_OPERATORS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "neg": lambda x, y: -x,
    "rmul": lambda x, y: 7 * x,
    "mul": lambda x, y: x * y,
    "pow": lambda x, y: x ** 3,
    "pow0": lambda x, y: x ** 0,
    "div_exact": lambda x, y: (22 * x).div_exact(22),
    "of_column": lambda x, y: ZQ.of_column(*k_matrix(-3).entries[::3]),
}


@pytest.mark.parametrize("op", RING_OPERATORS)
def test_ring_results_skip_the_constructor(op, monkeypatch):
    x, y = ZQ(2, -1, 3), ZQ(0, 5, -4)
    built = []
    real_init = ZQ.__init__

    def recorded(self, *abc):
        built.append(abc)
        real_init(self, *abc)

    monkeypatch.setattr(ZQ, "__init__", recorded)
    result = RING_OPERATORS[op](x, y)
    # the result skipped ZQ.__init__ ...
    assert built == []
    monkeypatch.undo()
    # ... and is what the constructor gives for its coordinates
    assert type(result) is ZQ and len(result.coordinates) == 3
    assert result == ZQ(*result.coordinates)
    assert hash(result) == hash(Mat3(result.entries))


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


def form_terms(forms):
    """The read-out's terms as (w, l, m), m = l for a square."""
    return [(w, tuple(l), tuple(l) if m is None else m)
            for w, *l, m in forms]


def form_value(forms, p):
    """Sum of w*(l . p)*(m . p) over the read-out's terms."""
    return sum(w * sum(x * y for x, y in zip(l, p))
               * sum(x * y for x, y in zip(m, p))
               for w, l, m in form_terms(forms))


def form_lines(forms):
    """The distinct linear forms of the read-out's terms."""
    lines = []
    for _, l, m in form_terms(forms):
        lines += [l] if m == l else [l, m]
    return lines


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize("f", [-1, 0, 1])
@pytest.mark.parametrize("kind", SequenceKind)
def test_read_out_weight_off_by_one_fails(kind, f, monkeypatch):
    forms_of = matrices._square_forms
    d, forms = forms_of(SEEDS[kind], f)
    lines = form_lines(forms)
    assert len(lines) == 3 and det3(lines) != 0  # the form has rank 3
    # T's read-out is one product and one square, and K's at even n;
    # K's at odd n three squares
    products = sum(m is not None for *_, m in forms)
    assert (products, len(forms)) == (
        (0, 3) if kind is SequenceKind.TRIBONACCI_LUCAS and f else (1, 2))
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
    # d*s(2k + f) = sum of w*(l . p)*(m . p) for every p, here on a grid;
    # the form of (1, -1, 1) at f = 0 has a zero diagonal after one square
    for seeds in (SEEDS[SequenceKind.TRIBONACCI],
                  SEEDS[SequenceKind.TRIBONACCI_LUCAS], (0, 0, 0),
                  (0, 0, 1), (5, -3, 2), (1, -1, 1)):
        for f in (-1, 0, 1):
            d, forms = matrices._square_forms(seeds, f)
            assert d > 0
            for w, *l, m in forms:
                # a square is one line; a product two different ones
                assert m is None or (m != tuple(l) and any(l) and any(m))
            for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5),
                      (-7, 1, 4)):
                quadratic = sum(p[i] * p[j] * walk(seeds, i + j + f)
                                for i in range(3) for j in range(3))
                assert d * quadratic == form_value(forms, p), (seeds, f, p)
        for n in range(-30, 31):
            assert kernel_term(seeds, n) == walk(seeds, n), (seeds, n)


def test_square_forms_take_the_fewest_multiplications():
    k_seeds = SEEDS[SequenceKind.TRIBONACCI_LUCAS]
    # K at f = 0 reduces to three squares over 6; its form at f - 2, with
    # the lines composed, to one product and one square over 1
    assert len(matrices._reduce(k_seeds, 0)[1]) == 3
    d, forms = matrices._square_forms(k_seeds, 0)
    assert d == 1 and len(forms) == 2
    # at f = 1 it is X^2 - 2Y^2 + 22Z^2 in unimodular lines, with no zero
    # mod 11 but X = Y = 0 (2 is no square mod 11), so no rational zero,
    # which a product of two lines would give: three squares stay
    d, forms = matrices._square_forms(k_seeds, 1)
    assert d == 1 and sorted(w for w, *_ in forms) == [-2, 1, 22]
    assert all(m is None for *_, m in forms)
    assert abs(det3(form_lines(forms))) == 1
    assert [(x, y) for x in range(11) for y in range(11)
            if (x * x - 2 * y * y) % 11 == 0] == [(0, 0)]
    # f = -1 is equivalent to it over Z, and none of its splits is shorter
    for g in (-3, -1, 1, 3):
        assert len(matrices._reduce(k_seeds, g)[1]) == 3
    assert len(matrices._square_forms(k_seeds, -1)[1]) == 3


@pytest.mark.parametrize("n", [7, -7])
def test_bench_strategies_return_int(n):
    for kind in SequenceKind:
        for name, run in STRATEGIES.items():
            assert type(run(kind, n, 256, None)) is int, name


# and past the former crossover, 10^5
@pytest.mark.parametrize("n", [DECIMAL_CROSSOVER, -DECIMAL_CROSSOVER,
                               10**5, -10**5])
def test_fast_terms_stay_int_past_the_crossover(n):
    assert type(trib_fast(n)) is int
    assert type(lucas_fast(n)) is int


@functools.lru_cache(maxsize=None)
def tm_power(n):
    """TM(1)**n by matrix products, shared by the five-square tests."""
    return tm_pow(n)


def tm_of(abc):
    """a*TM(2) + b*TM(1) + c*I: the matrix of x**n = a*x^2 + b*x + c.
    TM(2), TM(1) and I are independent, so it fixes (a, b, c)."""
    a, b, c = (int(x) for x in abc)
    return a * T_MAT_SEEDS[2] + b * T_MAT_SEEDS[1] + c * IDENTITY


def x_power_on(unit, n, counter=None):
    if unit == "int":
        return matrices._x_power(n, counter)
    with decimal.localcontext(matrices.EXACT):
        abc = matrices._x_power(n, counter, decimal.Decimal(1))
    assert {type(x) for x in abc} == {decimal.Decimal}
    return abc


def mutated(monkeypatch, old, new, name="_x_power"):
    """The function `name` of `matrices` compiled from its own source with
    `old` replaced by `new`, patched into the module; returns the copy's
    globals."""
    source = textwrap.dedent(inspect.getsource(getattr(matrices, name)))
    assert source.count(old) == 1, old
    namespace = dict(vars(matrices))
    exec(compile(source.replace(old, new), matrices.__file__, "exec",
                 __future__.annotations.compiler_flag), namespace)
    monkeypatch.setattr(matrices, name, namespace[name])
    return namespace


class TestFiveSquares:
    """A squaring of x**e takes five big squares (Toom-3: values at 0, 1,
    -1, 2 and infinity, two exact divisions) from e = FIVE_SQUARES_FROM
    on, six below; both steps give the same (a, b, c) on both units."""

    SIGNED = range(-1000, 1001)

    @pytest.fixture(params=[1, 10**12], ids=["all-five", "all-six"])
    def switch(self, request, monkeypatch):
        monkeypatch.setattr(matrices, "FIVE_SQUARES_FROM", request.param)
        return request.param

    @pytest.mark.parametrize("unit", ["int", "Decimal"])
    def test_x_power_matches_matrix_powers(self, switch, unit):
        for n in self.SIGNED:
            counter = OpCounter()
            assert tm_of(x_power_on(unit, n, counter)) == tm_power(n), n
            squarings = abs(n).bit_length() - 1 if n else 0
            per_squaring = 5 if switch == 1 else 6
            assert counter.big_muls == per_squaring * squarings, n

    @pytest.mark.parametrize("unit", ["int", "Decimal"])
    def test_kernel_term_matches_oracles(self, switch, unit, t_cache,
                                         k_cache):
        scalars = {SequenceKind.TRIBONACCI: t_cache.get,
                   SequenceKind.TRIBONACCI_LUCAS: k_cache.get}
        matrices_of = {TM: tm_power,
                       KM: lambda n: mat_mul(K_MAT_SEEDS[0], tm_power(n))}
        for kind, oracle in {**scalars, **matrices_of}.items():
            for n in self.SIGNED:
                if unit == "int":
                    value = kernel_term(KIND_SEEDS[kind][0], n)
                    assert value == oracle(n), (kind, n)
                else:
                    value = decimal_term(kind, n)
                    assert decimal_form(value) == \
                        decimal_form(oracle(n)), (kind, n)
        for n in (-30, -1, 0, 1, 30):
            assert t_cache.get(n) == walk(SEEDS[SequenceKind.TRIBONACCI], n)
            assert tm_power(n) == walk(T_MAT_SEEDS, n)

    @pytest.mark.parametrize("unit", ["int", "Decimal"])
    def test_switch_point(self, unit):
        # x**(2e) and x**(2e + 1) square x**e last: six squares at
        # e = C - 1, five at e = C and C + 1
        C = FIVE_SQUARES_FROM
        for e in (C - 1, C, C + 1):
            for n in (2 * e, 2 * e + 1, -2 * e, -2 * e - 1):
                counter = OpCounter()
                abc = x_power_on(unit, n, counter)
                assert tm_of(abc) == tm_power(n), n
                squarings = abs(n).bit_length() - 1
                assert counter.big_muls == 6 * squarings - (e >= C), n
            # and the read-out one level above: s(4e + f) squares x**e
            # last on the way to x**(2e) or x**(2e + 1)
            for n in (4 * e, 4 * e + 3, -4 * e, -4 * e - 3):
                for kind in SequenceKind:
                    seeds = SEEDS[kind]
                    expected = walk(seeds, n)
                    if unit == "int":
                        assert kernel_term(seeds, n) == expected, (kind, n)
                    else:
                        assert decimal_form(decimal_term(kind, n)) == \
                            to_decimal(expected), (kind, n)
                assert tm_power(n).entry(1, 0) == \
                    walk(SEEDS[SequenceKind.TRIBONACCI], n)

    # each mutation of the five-square step must show at exactly the
    # indices whose chain takes one: k = |n| // 2 >= 2C, x**(k >> 1)
    # being the last square
    @pytest.mark.parametrize("old,new,outcome", [
        # the evaluation point 2 moved to 3: P(3) = 9a + 3b + c
        ("t = 2 * (p + a) - c", "t = 3 * (p + 2 * a) - 2 * c", "either"),
        # P(2)**2 perturbed: off by 1 it is no multiple of 6 ...
        ("t = square(t) if square else t * t", "t = t * t + 1", "raises"),
        # ... off by 6, r3 is off by one
        ("t = square(t) if square else t * t", "t = t * t + 6", "wrong"),
    ], ids=["point-3", "square-plus-1", "square-plus-6"])
    @pytest.mark.parametrize("kind", SequenceKind)
    def test_mutation_fails_exactly_where_used(self, kind, old, new, outcome,
                                               monkeypatch):
        C = 64
        mutated(monkeypatch, old, new)["FIVE_SQUARES_FROM"] = C
        seeds = SEEDS[kind]
        raised, wrong = set(), set()
        for n in self.SIGNED:
            try:
                if kernel_term(seeds, n) != walk(seeds, n):
                    wrong.add(n)
            except DivisibilityViolation:
                raised.add(n)
        expected = {n for n in self.SIGNED if abs(n) // 2 >= 2 * C}
        assert raised | wrong == expected
        if outcome == "raises":
            assert raised == expected
        elif outcome == "wrong":
            assert wrong == expected


class TestPaddedBand:
    """A Decimal square whose coefficient has (`_PAD_FROM_DIGITS`,
    `_SCHOOLBOOK_DIGITS`] digits, libmpdec's schoolbook band, is padded
    past it with s zeros, squared and unpadded by exactly 2s zeros
    (`_decimal_square`), each of the five squares of a squaring on its
    own; the int route is the oracle."""

    # Indices whose chain squares x**e with coefficients in the band,
    # about 9 500 <= e <= 18 380 and, for x**-e, 19 000 <= e <= 36 760
    # on a 64-bit build: a scalar s(n) squares x**(|n| // 4) last, a
    # matrix x**(|n| // 2); near both edges, inside, and one level below
    # the top (s(10^5) squares x**12500 and then x**25000)
    SCALARS = [38000, 40001, 50002, 60003, 73500, 10**5,
               -76000, -80001, -100002, -140003, -147000, -2 * 10**5]
    MATRICES = [19000, 20001, 30000, 36700, 5 * 10**4,
                -38000, -40001, -60000, -73500, -10**5]

    @staticmethod
    def padded(monkeypatch):
        """The digits of every square `_decimal_square` pads, as made."""
        digits, square = [], matrices._decimal_square

        def counted(x):
            if matrices._PAD_FROM_DIGITS < x.adjusted() + 1 \
                    <= matrices._SCHOOLBOOK_DIGITS:
                digits.append(x.adjusted() + 1)
            return square(x)

        monkeypatch.setattr(matrices, "_decimal_square", counted)
        return digits

    @classmethod
    def indices(cls, kind):
        return cls.MATRICES if isinstance(kind, MatrixKind) else cls.SCALARS

    @pytest.mark.parametrize("digits", [1, 2000, 2508, 2509, 2510, 3001,
                                        4863, 4864, 4865, 6000])
    def test_square_at_the_edges(self, digits):
        # against the direct square, all nines, a power of ten, a leading
        # digit and zeros, and a mixed one; the padding keeps every digit
        texts = ["9" * digits, "-1" + "0" * (digits - 1),
                 "7" + "0" * (digits - 1),
                 ("123456789" * (digits // 9 + 1))[:digits]]
        with decimal.localcontext(matrices.EXACT):
            for text in texts:
                x = decimal.Decimal(text)
                y = matrices._decimal_square(x)
                assert y.as_tuple().exponent == 0
                assert y == x * x, text[:10]

    @pytest.mark.parametrize("kind", [*SequenceKind, TM, KM],
                             ids=lambda k: k.value)
    def test_decimal_route_matches_int_route(self, kind, monkeypatch):
        digits = self.padded(monkeypatch)
        seeds = KIND_SEEDS[kind][0]
        for n in self.indices(kind):
            digits.clear()
            assert decimal_form(decimal_term(kind, n)) == \
                decimal_form(kernel_term(seeds, n)), n
            # the padded branch ran, once for each of the five squares
            assert len(digits) == 5, (n, digits)

    def test_int_route_never_pads(self, monkeypatch):
        def refuse(x):
            raise AssertionError("an int square went through Decimal")

        monkeypatch.setattr(matrices, "_decimal_square", refuse)
        for n in (40001, -80001):
            assert trib_fast(n) == walk(SEEDS[SequenceKind.TRIBONACCI], n)

    @pytest.mark.parametrize("new,outcome", [
        # 2s + 1 zeros off takes a digit of the square: Inexact
        ("x.scaleb(-1 - 2 * s)", "raises"),
        # 2s - 1 zeros off leaves every padded square ten times too
        # large: exact, so the linear interpolation carries it on to a
        # wrong answer
        ("x.scaleb(1 - 2 * s)", "wrong"),
    ], ids=["2s+1", "2s-1"])
    @pytest.mark.parametrize("kind", [*SequenceKind, TM, KM],
                             ids=lambda k: k.value)
    def test_unpad_off_by_one_fails(self, kind, new, outcome, monkeypatch):
        mutated(monkeypatch, "x.scaleb(-2 * s)", new, "_decimal_square")
        seeds = KIND_SEEDS[kind][0]
        for n in self.indices(kind):
            if outcome == "raises":
                with pytest.raises(decimal.Inexact):
                    decimal_term(kind, n)
            else:
                assert decimal_form(decimal_term(kind, n)) != \
                    decimal_form(kernel_term(seeds, n)), n


def test_matrix_read_out_holds_no_tuples():
    # a tuple grown from a generator and shrunk to nine entries is freed
    # to a free list that no later read-out takes it from: built so in
    # the layout of the entries, `ZQ.entries`, 3000 read-outs left
    # 224 KB held at its lines
    seeds = KIND_SEEDS[TM][0]
    body = set()
    for function in (matrices._kernel_term, ZQ.entries.fget):
        lines, first = inspect.getsourcelines(function)
        body.update(range(first, first + len(lines)))
    tracemalloc.start()
    try:
        for n in range(3000):
            kernel_term(seeds, n)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.statistics("lineno")
               if stat.traceback[0].filename == matrices.__file__
               and stat.traceback[0].lineno in body)
    assert held < 8 * 1024


class TestDecimalUnit:
    """A Decimal unit computes under `EXACT` whatever the caller's
    context, and leaves that context as it was; the int unit is the
    oracle, digit for digit."""

    T, K = SequenceKind
    CALLS = {
        "T(500)": lambda one: kernel_term(SEEDS[TestDecimalUnit.T], 500,
                                          one=one),
        "K(-777)": lambda one: kernel_term(SEEDS[TestDecimalUnit.K], -777,
                                           one=one),
        "TM(300)": lambda one: kernel_term(T_MAT_SEEDS, 300, one=one),
        "KM(-301)": lambda one: kernel_term(K_MAT_SEEDS, -301, one=one),
        "sum T 1 0 120": lambda one: partial_sum(
            SumSpec(TestDecimalUnit.T, 1, 0, 120), one=one),
        "sum KM 3 1 200": lambda one: partial_sum(SumSpec(KM, 3, 1, 200),
                                                  one=one),
    }

    @pytest.mark.parametrize("context", [decimal.DefaultContext,
                                         decimal.Context(prec=5)],
                             ids=["default", "prec-5"])
    @pytest.mark.parametrize("call", CALLS)
    def test_equals_the_int_unit(self, call, context):
        compute = self.CALLS[call]
        expected = decimal_form(compute(1))
        with decimal.localcontext(context) as caller:
            state = (caller.prec, caller.Emax, caller.Emin, caller.rounding,
                     dict(caller.flags), dict(caller.traps))
            value = compute(decimal.Decimal(1))
            assert decimal.getcontext() is caller
            assert (caller.prec, caller.Emax, caller.Emin, caller.rounding,
                    dict(caller.flags), dict(caller.traps)) == state
        assert decimal_form(value) == expected


def counting_unit():
    """An int subclass and its tally: a product of two of its values
    counts in "muls"; a sum, difference, small multiple or division by
    a small int in "adds", a multiple by a plain int in "scalings" too.
    A negation is not counted."""
    tally = {"muls": 0, "adds": 0, "scalings": 0}

    class Unit(int):
        def _made(self, value, kind="adds"):
            tally[kind] += 1
            return Unit(value)

        def __add__(self, other):
            return self._made(int.__add__(self, other))

        __radd__ = __add__

        def __sub__(self, other):
            return self._made(int.__sub__(self, other))

        def __rsub__(self, other):
            return self._made(int.__rsub__(self, other))

        def __mul__(self, other):
            kind = "muls" if isinstance(other, Unit) else "adds"
            if kind == "adds":
                tally["scalings"] += 1
            return self._made(int.__mul__(self, other), kind)

        __rmul__ = __mul__

        def __divmod__(self, other):
            q, r = int.__divmod__(self, other)
            return self._made(q), r

        def __neg__(self):
            return Unit(int.__neg__(self))

    return Unit, tally


# both sides of FIVE_SQUARES_FROM: s(n) squares up to x**(|n| // 2)
@pytest.mark.parametrize("n", [5, -5, 4095, -4095, 4097, -4097, 10**4,
                               -10**4, 2 * 10**5 + 3, -2 * 10**5 - 3])
@pytest.mark.parametrize("kind", SequenceKind, ids=lambda k: k.value)
def test_counter_counts_the_operations_made(kind, n):
    unit, tally = counting_unit()
    counter = OpCounter()
    value = kernel_term(SEEDS[kind], n, counter, one=unit(1))
    assert value == (trib_fast if kind is SequenceKind.TRIBONACCI
                     else lucas_fast)(n)
    assert tally["muls"] == counter.big_muls
    # the two `one - one` that make the chain's and the read-out's zeros
    assert tally["adds"] - 2 == counter.big_adds


@pytest.mark.parametrize("n", [0, 5, -5, 4097, -4097])
@pytest.mark.parametrize("kind", [TM, KM], ids=lambda k: k.value)
def test_matrix_read_out_takes_nine_multiplications(kind, n):
    # the first column of a*s(2) + b*s(1) + c*s(0) alone, each
    # coefficient times an int seed entry, then laid out by additions;
    # the whole matrix took 27
    unit, tally = counting_unit()
    matrices._x_power(n, one=unit(1))
    chain = dict(tally)
    tally.update(dict.fromkeys(tally, 0))
    seeds = KIND_SEEDS[kind][0]
    assert kernel_term(seeds, n, one=unit(1)) == walk(seeds, n)
    assert tally["scalings"] - chain["scalings"] == 9
    assert tally["muls"] == chain["muls"]


@given(s0=st.builds(ZQ, *[st.integers(-10**6, 10**6)] * 3))
def test_matrix_read_out_takes_any_seeds_of_the_ring(s0):
    # s(n) = s0 * Q^n: the read-out holds for seeds off TM and KM, as
    # ZQs or as the Mat3s of their entries, and gives a ZQ
    q = ZQ(0, 1, 0)
    seeds = (s0, s0 * q, s0 * q * q)
    as_mat3 = tuple(Mat3(x.entries) for x in seeds)
    for n in range(-40, 41):
        expected = walk(as_mat3, n)
        for given_seeds in (seeds, as_mat3):
            value = kernel_term(given_seeds, n)
            assert type(value) is ZQ and value == expected, n


@pytest.mark.parametrize("position", range(3))
def test_matrix_seeds_outside_the_ring_raise(position):
    # M does not commute with Q, so it lies outside Z[Q]: laid out from
    # its first column alone, it would read as another matrix of Z[Q]
    # and give a wrong term
    m = Mat3((1, 2, 0, 0, 1, 0, 0, 0, 1))
    seeds = list(T_MAT_SEEDS)
    seeds[position] = m
    with pytest.raises(ValueError, match=re.escape(repr(m))):
        kernel_term(tuple(seeds), 5)
    with pytest.raises(ValueError, match=re.escape(repr(m))):
        ZQ.of_matrix(m)
    # every seed of the package lies in it, as the ZQ of its first column
    for mat3_seeds, kind in ((T_MAT_SEEDS, TM), (K_MAT_SEEDS, KM)):
        assert tuple(map(ZQ.of_matrix, mat3_seeds)) == KIND_SEEDS[kind][0]


@pytest.mark.parametrize("prec", [28, 9])
def test_decimal_entries_are_laid_out_exactly(prec):
    # a Decimal answer's entries add its coordinates under EXACT, not in
    # the caller's context, which would round KM(20000)'s 5 000 digits
    value = decimal_term(KM, 20000)
    expected = [to_decimal(x)
                for x in kernel_term(K_MAT_SEEDS, 20000).entries]
    with decimal.localcontext() as caller:
        caller.prec = prec
        state = (caller.prec, caller.Emax, caller.Emin, caller.rounding,
                 dict(caller.flags), dict(caller.traps))
        entries = value.entries
        assert decimal.getcontext() is caller
        assert (caller.prec, caller.Emax, caller.Emin, caller.rounding,
                dict(caller.flags), dict(caller.traps)) == state
    assert {type(x) for x in entries} == {decimal.Decimal}
    assert [to_decimal(x) for x in entries] == expected


def test_zq_is_the_matrices_class():
    # one class, which the identities module reads from here
    assert identities.ZQ is ZQ and ZQ.__module__ == "tribkit.matrices"


def test_reduction_stops_after_three_pivots(monkeypatch):
    # a pivot that does not lower the form's rank: this mutant once
    # looped without end, growing past 300 MB
    mutated(monkeypatch, "pivot * x - li * lj", "pivot * x + li * lj",
            name="_reduce")
    matrices._square_forms.cache_clear()
    try:
        for run, n in ((trib_fast, 10), (lucas_fast, 11)):
            start = time.perf_counter()
            with pytest.raises(ArithmeticError, match="three pivots"):
                run(n)
            assert time.perf_counter() - start < 1
    finally:
        matrices._square_forms.cache_clear()

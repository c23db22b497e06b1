"""Exact 3x3 matrix companions of the scalar sequences.

T(n), K(n), TM(n) and KM(n) are one third-order recurrence started from
four seed triples (`KIND_SEEDS`; TM(0) = I), so every route to a term
depends on the seeds alone: `walk` slides a window from them, and
`kernel_term` powers x modulo x^3 - x^2 - x - 1 (Fiduccia, SIAM J.
Comput. 14(1), 1985) in O(log |n|) squarings at any signed n, each of
six big squares, or of five (Toom-3; Bodrato and Zanoni, ISSAC 2007)
once the coefficients are large.  A scalar term stops the chain at
x**(n/2) and reads s(n) off one quadratic form in its coefficients, as
weighted squares and products of linear forms; a matrix term reads
s(n) = a*s(2) + b*s(1) + c*s(0) off x**n = a*x^2 + b*x + c.  The
entries of TM(n) and KM(n) are shifted T and K terms, laid out in
`_closed_form`; row 2, column 1 (1-based) of TM(n) holds T(n).  `walk`, `mat_pow` (TM(1)**n by matrix
products) and KM(0) @ TM(n) are independent oracles, called by name.
`decimal_term` runs the same kernel on decimal.Decimal, for answers
that are only printed, from the index `decimal_route` gives.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd
from typing import Callable

from .core import EXACT, SEEDS, SequenceKind, TermCache, to_decimal, walk
from .counters import OpCounter
from .errors import DivisibilityViolation, NegativeExponent


@dataclass(frozen=True)
class Mat3:
    """Immutable 3x3 integer matrix, entries row-major.

    The entries are ints, or integral Decimals on the decimal route
    (`decimal_term`), where only `+`, `-` and `div_exact` meet them.

    Code indexes rows and columns from 0; prose and reports use the
    1-based convention, under which the scalar-bearing cell "row 2,
    column 1" is ``entry(1, 0)``.

    `Mat3(entries)` checks that there are nine entries; the operators
    and `mat_mul`, whose tuples have nine by construction, build their
    results by `_mat3` instead.
    """

    # Declared here, not by `slots=True`: that rebuilds the class and
    # leaves the frozen `__setattr__` naming the old one, so setting any
    # other attribute would raise TypeError, not FrozenInstanceError.
    __slots__ = ("entries",)

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != 9:
            raise ValueError("Mat3 takes exactly 9 entries")

    def __reduce__(self):
        # copy and pickle would restore the slot through the frozen
        # __setattr__; rebuild through the constructor instead
        return Mat3, (self.entries,)

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        e = self.entries
        return ((e[0], e[1], e[2]), (e[3], e[4], e[5]), (e[6], e[7], e[8]))

    def entry(self, row: int, col: int) -> int:
        """Entry at 0-based (row, col)."""
        return self.entries[3 * row + col]

    # The entrywise operators are unrolled over the nine entries: the
    # verifier calls them at every case, and on its small entries a
    # generator through tuple() costs more than the arithmetic.
    def __add__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.entries
        return _mat3((a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6,
                      a7 + b7, a8 + b8, a9 + b9))

    def __sub__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.entries
        return _mat3((a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5, a6 - b6,
                      a7 - b7, a8 - b8, a9 - b9))

    def __neg__(self) -> "Mat3":
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        return _mat3((-a1, -a2, -a3, -a4, -a5, -a6, -a7, -a8, -a9))

    def __rmul__(self, k: int) -> "Mat3":
        if not isinstance(k, int):
            return NotImplemented
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        return _mat3((k * a1, k * a2, k * a3, k * a4, k * a5, k * a6,
                      k * a7, k * a8, k * a9))

    def __mul__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return mat_mul(self, other)

    __matmul__ = __mul__

    def __pow__(self, e: int) -> "Mat3":
        return mat_pow(self, e)

    def div_exact(self, d: int) -> "Mat3":
        """Entrywise exact division; a remainder raises, naming the first
        entry that leaves one."""
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        q1, r1 = divmod(a1, d)
        q2, r2 = divmod(a2, d)
        q3, r3 = divmod(a3, d)
        q4, r4 = divmod(a4, d)
        q5, r5 = divmod(a5, d)
        q6, r6 = divmod(a6, d)
        q7, r7 = divmod(a7, d)
        q8, r8 = divmod(a8, d)
        q9, r9 = divmod(a9, d)
        if r1 or r2 or r3 or r4 or r5 or r6 or r7 or r8 or r9:
            i, x = next((i, x) for i, x in enumerate(self.entries) if x % d)
            raise DivisibilityViolation(
                f"{d} does not divide entry {x} at row {i // 3 + 1}, "
                f"column {i % 3 + 1}")
        return _mat3((q1, q2, q3, q4, q5, q6, q7, q8, q9))


_new = object.__new__
_set_entries = Mat3.entries.__set__  # the slot's setter, past __setattr__


def _mat3(entries: tuple) -> Mat3:
    """A Mat3 of `entries`, nine by construction, set straight into its
    slot: the dataclass constructor is about half the cost of an
    operator on small entries."""
    m = _new(Mat3)
    _set_entries(m, entries)
    return m


def decimal_form(value):
    """An int or integral Decimal as its decimal string (`to_decimal`), a
    Mat3 as rows of those and a tuple as a list of its items' forms;
    every output format writes these."""
    if isinstance(value, Mat3):
        return [[to_decimal(x) for x in row] for row in value.rows()]
    if isinstance(value, tuple):
        return [decimal_form(item) for item in value]
    return to_decimal(value)


IDENTITY = Mat3((1, 0, 0, 0, 1, 0, 0, 0, 1))
ZERO = Mat3((0,) * 9)

T_MAT_SEEDS: tuple[Mat3, Mat3, Mat3] = (
    IDENTITY,
    Mat3((1, 1, 1, 1, 0, 0, 0, 1, 0)),
    Mat3((2, 2, 1, 1, 1, 1, 1, 0, 0)),
)
K_MAT_SEEDS: tuple[Mat3, Mat3, Mat3] = (
    Mat3((1, 2, 3, 3, -2, -1, -1, 4, -1)),
    Mat3((3, 4, 1, 1, 2, 3, 3, -2, -1)),
    Mat3((7, 4, 3, 3, 4, 1, 1, 2, 3)),
)


class MatrixKind(Enum):
    """The two matrix sequences."""

    TRIB_MATRIX = "TM"
    LUCAS_MATRIX = "KM"


# kind -> (its seed triple, the scalar sequence its terms are read from)
KIND_SEEDS = {kind: (SEEDS[kind], kind) for kind in SequenceKind} | {
    MatrixKind.TRIB_MATRIX: (T_MAT_SEEDS, SequenceKind.TRIBONACCI),
    MatrixKind.LUCAS_MATRIX: (K_MAT_SEEDS, SequenceKind.TRIBONACCI_LUCAS)}


def mat_mul(a: Mat3, b: Mat3, counter: OpCounter | None = None) -> Mat3:
    """Exact product: 27 big-int multiplications, 18 additions."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a.entries
    b11, b12, b13, b21, b22, b23, b31, b32, b33 = b.entries
    if counter is not None:
        counter.mat_muls += 1
        counter.big_muls += 27
        counter.big_adds += 18
    return _mat3((
        a11 * b11 + a12 * b21 + a13 * b31,
        a11 * b12 + a12 * b22 + a13 * b32,
        a11 * b13 + a12 * b23 + a13 * b33,
        a21 * b11 + a22 * b21 + a23 * b31,
        a21 * b12 + a22 * b22 + a23 * b32,
        a21 * b13 + a22 * b23 + a23 * b33,
        a31 * b11 + a32 * b21 + a33 * b31,
        a31 * b12 + a32 * b22 + a33 * b32,
        a31 * b13 + a32 * b23 + a33 * b33,
    ))


def mat_pow(a: Mat3, e: int, counter: OpCounter | None = None) -> Mat3:
    """a**e by left-to-right binary exponentiation; a**0 is the identity.

    At most 2*ceil(log2(e)) multiplications for e >= 1.  The squaring
    chain never assumes its operands commute.
    """
    if e < 0:
        raise NegativeExponent(f"exponent must be non-negative, got {e}")
    if e == 0:
        return IDENTITY
    acc = a
    for bit in bin(e)[3:]:  # bits below the most significant one
        acc = mat_mul(acc, acc, counter)
        if bit == "1":
            acc = mat_mul(acc, a, counter)
    return acc


# Exponent from which a squaring of `_x_power` takes five big squares
# instead of six: a squaring of x**e, e >= FIVE_SQUARES_FROM, evaluates
# a*x^2 + b*x + c at five points and interpolates, which costs two exact
# divisions and 13 more additions, so it wins only once squares
# dominate.  Five squares against six at the squaring of x**e: the chain
# to x**(2e) with the constant at e, less the same chain with none
# (medians of 5, each best over 0.15 s, 0.6 s from e = 65536; 2 vCPUs,
# CPython 3.11; BENCH_five_squares.json):
#   e          int (us)    Decimal (us)
#   512          +0.6         +1.0
#   1024         +0.8         +0.7
#   1536         +1.0         -0.5
#   2048         +0.9         -2.1
#   3072         +0.6         -7.4
#   4096         -0.3        -16
#   8192         -8.5        -76
#   65536      -391         -243
#   262144    -4095        -1737
# A scalar on the decimal route (from n = 10^5) squares some x**e with e
# in [2048, 4096), so the switch sits where Decimal starts to win.
FIVE_SQUARES_FROM = 2048


def _x_power(n: int, counter: OpCounter | None = None,
             one=1) -> tuple[int, int, int]:
    """(a, b, c) with x**n = a*x^2 + b*x + c modulo x^3 - x^2 - x - 1.

    Any signed n.  Left-to-right binary powering of x, or of
    x**-1 = x^2 - x - 1 when n < 0; a step by x or x**-1 costs only
    additions.  A squaring of x**e costs 6 big multiplications (a 3x3
    matrix product costs 27), or 5 from e = FIVE_SQUARES_FROM on: the
    square of a*x^2 + b*x + c has five coefficients, interpolated from
    its values at 0, 1, -1, 2 and infinity (Toom-3) with two exact
    divisions, by 2 and by 6, whose remainders raise
    DivisibilityViolation.  `kernel_term` reads a term off them.

    Only `*`, `+`, `-` and `divmod` touch the coefficients, so they are
    of the type of `one`, the unit: ints by default, or
    `decimal.Decimal` under `EXACT` for `decimal_term`.

    The counter gets one mat_muls per squaring or step of the chain,
    the 6 or 5 multiplications of each squaring, and every addition,
    subtraction, small multiple or exact division.
    """
    zero = one - one
    if n == 0:
        return zero, zero, one
    a, b, c = (zero, one, zero) if n > 0 else (one, -one, -one)
    bits = bin(abs(n))[3:]  # bits below the most significant one
    five_from = FIVE_SQUARES_FROM
    e = 1  # x**e is squared next
    for bit in bits:
        if e < five_from:
            # (a x^2 + b x + c)^2 reduced by x^3 = x^2 + x + 1 and
            # x^4 = 2x^2 + 2x + 1, each cross term 2uv taken as
            # (u + v)^2 - u^2 - v^2: CPython squares faster than it
            # multiplies.  Each square is folded in as soon as it is
            # made, so few big temporaries are alive at once
            p = a + b
            p *= p
            q = a + c
            q *= q
            r = b + c
            r *= r
            c *= c
            q += p
            q -= c  # x^2: (a+b)^2 + (a+c)^2 - c^2
            r += p
            r -= c
            p += c
            a *= a
            r += a
            b *= b
            p -= b  # 1: (a+b)^2 - b^2 + c^2
            r -= b
            r -= b  # x: a^2 + (a+b)^2 + (b+c)^2 - 2b^2 - c^2
            a, b, c = q, r, p
        else:
            # The square r4 x^4 + r3 x^3 + r2 x^2 + r1 x + r0 from its
            # values at 0, 1, -1, 2 and infinity, P(t) = a t^2 + b t + c:
            # r0 = c^2, r4 = a^2, (P(1)^2 - P(-1)^2)/2 = r1 + r3 and
            # P(2)^2 = r0 + 2 r1 + 4 r2 + 8 r3 + 16 r4, folded into
            # a' = r2 + r3 + 2 r4, b' = r1 + r3 + 2 r4, c' = r0 + r3 + r4
            p = a + c
            q = p - b  # P(-1)
            p += b  # P(1)
            t = 2 * (p + a) - c  # P(2) = 4a + 2b + c
            p *= p
            q *= q
            q = p - q
            q, rem2 = divmod(q, 2)  # r1 + r3
            p -= q  # r0 + r2 + r4
            a *= a
            c *= c
            p -= c
            p -= a  # r2
            t *= t
            t -= c
            t -= 16 * a
            t -= 4 * p
            t -= 2 * q
            t, rem6 = divmod(t, 6)  # r3
            if rem2 or rem6:
                raise DivisibilityViolation(
                    f"a squaring on the way to x**{n} does not "
                    f"interpolate exactly")
            p += t
            t += a
            a += a
            p += a  # x^2
            b = q + a  # x
            c += t  # 1
            a = p
        e += e
        if bit == "1":
            e += 1
            if n > 0:
                a, b, c = a + b, a + c, a
            else:
                a, b, c = c, a - c, b - c
    if counter is not None:
        fives = max((abs(n) // five_from).bit_length() - 1, 0)
        squarings, steps = len(bits), bits.count("1")
        counter.mat_muls += squarings + steps
        counter.big_muls += 6 * squarings - fives
        counter.big_adds += (12 * squarings + 13 * fives
                             + (2 if n > 0 else 3) * steps)
    return a, b, c


# A sum adds the forms of its u seeds (`series.partial_sum`), one key per
# (kind, m, f): a sweep of both scalar kinds over m in 1..10 and every
# j < m holds 45 keys, T's and K's own included; a key takes about 60 us
# to build
@lru_cache(maxsize=64)
def _square_forms(seeds: tuple[int, int, int], f: int):
    """(d, forms): d*s(2k + f) is the sum of w*(l . p)*(m . p) over
    (w, *l, m) in forms, p = (c, b, a) the coefficients of x**k, any k;
    m is None for a square (m = l).

    s(2k + f) = s(k + k + f) = sum of p_i*p_j*s(i + j + f) over i, j in
    {0, 1, 2}: a quadratic form whose matrix H holds the terms
    s(f - 0) .. s(f + 4), read by `walk`.  Lagrange's reduction splits
    it into squares: for an integer vector u with h = u.H.u != 0 (a unit
    vector, or the sum of two when the diagonal of H is zero),
    h*(p.H.p) = (u.H.p)**2 + p.H'.p with H' = h*H - (H u)(H u)^T of rank
    one less.  Two squares of opposite weights are then one product,
    w*(l . p)**2 - w*(m . p)**2 = w*((l - m) . p)*((l + m) . p), one big
    multiplication instead of two.  Every weight and coefficient is an
    integer, and d is the product of the pivots h, reduced with the
    weights by their gcd.
    """
    h = [[walk(seeds, i + j + f) for j in range(3)] for i in range(3)]
    d, forms = 1, []
    while any(map(any, h)):
        t = next((t for t in range(3) if h[t][t]), None)
        if t is None:  # a zero diagonal: pivot on two unit vectors' sum
            s, t = next((s, t) for s in range(3) for t in range(3) if h[s][t])
            u = [int(i in (s, t)) for i in range(3)]
        else:
            u = [int(i == t) for i in range(3)]
        line = [sum(x * y for x, y in zip(row, u)) for row in h]
        pivot = sum(x * y for x, y in zip(u, line))
        h = [[pivot * x - li * lj for x, lj in zip(row, line)]
             for row, li in zip(h, line)]
        # so far p.H.p = (sum of w*(l . p)**2) / d; the new square
        # enters over d*pivot
        forms = [(w * pivot, l) for w, l in forms]
        g = gcd(*line)
        forms.append((g * g, [x // g for x in line]))
        d *= pivot
    terms = []
    while forms:
        w, l = forms.pop(0)
        j = next((j for j, (v, _) in enumerate(forms) if v == -w), None)
        if j is None:
            terms.append((w, l, None))
            continue
        m = forms.pop(j)[1]
        # the lines are independent, so neither factor is zero
        lo = [x - y for x, y in zip(l, m)]
        hi = [x + y for x, y in zip(l, m)]
        g_lo, g_hi = gcd(*lo), gcd(*hi)
        terms.append((w * g_lo * g_hi, [x // g_lo for x in lo],
                      tuple(x // g_hi for x in hi)))
    g = gcd(d, *(w for w, _, _ in terms))
    if d < 0:
        g = -g
    return d // g, tuple((w // g, *l, m) for w, l, m in terms)


def kernel_term(seeds, n: int, counter: OpCounter | None = None, one=1):
    """s(n) at any signed n from the seeds (s(0), s(1), s(2)), ints or
    matrices, by O(log |n|) squarings of `_x_power`.

    Matrix seeds read s(n) = a*s(2) + b*s(1) + c*s(0) off the whole
    x**n = a*x^2 + b*x + c.  Int seeds stop the chain a level below the
    top: with n = 2k + f, or -2k + f when n < 0, and f in {-1, 0, 1},
    x**(+-k) has coefficients p = (c, b, a), and s(n) is the quadratic
    form sum of p_i*p_j*s(i + j + f), which `_square_forms` writes as
    weighted squares and products of linear forms over one exact
    division.  So the top level costs 3 big multiplications instead of
    6, and 2 for T, whose forms pair two opposite squares into one
    product at every f; each is folded into the total as soon as it is
    made, and the total is of the size of the answer.  For T with
    f = 0, T(2k) = (a + b)*(3a + b + 2c) + a**2.

    `counter` and `one` go to `_x_power`; the read-out counts as one
    more mat_muls, and its squares and products as big_muls.
    """
    if isinstance(seeds[0], Mat3):
        # laid out entry by entry, so the coefficients may be Decimals
        a, b, c = _x_power(n, counter, one)
        return Mat3(tuple(a * x2 + b * x1 + c * x0 for x0, x1, x2 in zip(
            seeds[0].entries, seeds[1].entries, seeds[2].entries)))
    # n = 2k + f by shifts, cheaper than divmod(abs(n), 2) at the small
    # indices most calls have
    if n >= 0:
        k, f = n >> 1, n & 1
    else:
        k, f = -(-n >> 1), -(-n & 1)
    a, b, c = _x_power(k, counter, one)
    d, forms = _square_forms(seeds, f)
    total = one - one
    for w, l0, l1, l2, m in forms:
        v = l0 * c + l1 * b + l2 * a
        if m is None:
            v *= v
        else:
            m0, m1, m2 = m
            v *= m0 * c + m1 * b + m2 * a
        v *= w
        total += v
    if d == 1:  # T's forms, and K's at f = 1: nothing to divide or check
        value = total
    else:
        value, remainder = divmod(total, d)
        if remainder:
            raise DivisibilityViolation(
                f"{d} does not divide the read-out of s({n}) from seeds "
                f"{seeds}")
    if counter is not None:
        counter.mat_muls += 1
        counter.big_muls += len(forms)
        # per linear form: 3 small multiples and 2 additions; per square
        # or product: the weight and the fold; then any division
        lines = sum(1 + (m is not None) for *_, m in forms)
        counter.big_adds += 5 * lines + 2 * len(forms) + (d != 1)
    return value


# The decimal route: the kernel run on decimal.Decimal under `EXACT`,
# whose answer is already decimal text (`str()` is linear), where
# turning a big int answer into text costs about as much as computing
# it.  libmpdec multiplies large numbers with a number-theoretic
# transform.
# Index from which an answer takes the decimal route, where the two
# routes cost about the same; on the negative side it is taken from
# -2 * the crossover, since backwards the terms grow only like
# sqrt(1.839...)**|n|, and T(-2m) has as many digits as T(m).  A scalar
# answer prints one term, a matrix answer nine, so text overtakes the
# arithmetic at a smaller index there.  Medians of 3 rounds in one
# interpreter, each best of 5 (20 below 10^5, 150 for TM and KM at 1500
# and 2*10^3), both routes with five squares a squaring and the
# read-out of `kernel_term` (2 vCPUs, CPython 3.11;
# BENCH_five_squares.json):
#   n         int kernel + to_decimal   Decimal kernel + str
#   T 10^4           0.12 ms                  0.15 ms
#   T 3*10^4         0.98                     1.14
#   T 7*10^4         3.8                      3.7
#   T 10^5           5.7                      3.8
#   T 3*10^5        28                       13
#   T 10^6         133                       35
#   T -10^5          2.3                      2.2
#   T -2*10^5        6.0                      4.0
#   T -10^6         51                       16
#   TM 1500          0.029                    0.030
#   TM, KM 2*10^3    0.041                    0.036
# From 4*10^4 to 7*10^4 the two routes are within 10% of each other (T a
# little cheaper on Decimal, K on int; medians of 7), so any crossover
# in [7*10^4, 10^5] fits, and it stays at 10^5.
DECIMAL_CROSSOVER = 10**5
MATRIX_DECIMAL_CROSSOVER = 2 * 10**3
# Count from which a `gf` listing takes the decimal route
# (`series.gf_stream` with a Decimal unit).  A listing prints every term
# below its count, and both its arithmetic (additions) and its text are
# paid per entry, so a matrix listing, nine scalar ones entry for entry,
# crosses over at the same count as a scalar one.  One listing of each
# kind drawn in-process into a list, median of 5 rounds, each best of
# up to 100 (2 vCPUs, CPython 3.11; BENCH_gf_listings.json), plain text:
#   count    int + to_decimal   Decimal + str
#   T 512         0.207 ms          0.227 ms
#   T 768         0.375             0.375
#   T 832         0.425             0.425
#   T 1024        0.608             0.556
#   T 2000        2.57              1.47
#   TM 512        2.00              2.16
#   TM 768        3.61              3.62
#   TM 832        4.12              4.06
#   TM 1024       5.93              5.44
#   TM 2000      24.3              14.4
# K, KM, JSON and CSV give the same picture: from 768 to 832 the two
# routes are within 2% of each other.
LISTING_DECIMAL_CROSSOVER = 800


def decimal_route(kind, n: int, listing: bool = False) -> bool:
    """Whether an answer of `kind` at index n (a term's, or a sum's top
    index) is cheaper printed from the decimal route (`decimal_term`,
    `series.decimal_sum`) than from the int kernel and `to_decimal`;
    with `listing`, whether a `gf` listing of the first n coefficients
    is (`series.gf_stream` with a Decimal unit), of either shape."""
    if listing:
        return n >= LISTING_DECIMAL_CROSSOVER
    start = (MATRIX_DECIMAL_CROSSOVER if isinstance(kind, MatrixKind)
             else DECIMAL_CROSSOVER)
    return n >= start or n <= -2 * start


def decimal_term(kind, n: int):
    """The term of any kind at any signed n, an integral Decimal or a Mat3
    of them, computed under `EXACT`, for printing only: `int()` of a big
    Decimal is quadratic in its digits."""
    with decimal.localcontext(EXACT):
        return kernel_term(KIND_SEEDS[kind][0], n, one=decimal.Decimal(1))


def _closed_form(term: Callable[[int], int], n: int) -> Mat3:
    t1, t0 = term(n + 1), term(n)
    tm1, tm2, tm3 = term(n - 1), term(n - 2), term(n - 3)
    return Mat3((t1, t0 + tm1, t0,
                 t0, tm1 + tm2, tm1,
                 tm1, tm2 + tm3, tm2))


def term_reader(kind, cache: TermCache):
    """n -> the term of `kind` at any signed n, read from `cache`; the one
    place a cache turns into terms.

    The cache's scalar terms, laid out by `_closed_form` for a matrix
    kind.  A cache of the other sequence raises ValueError.
    """
    scalar = KIND_SEEDS[kind][1]
    if cache.kind is not scalar:
        raise ValueError(f"{scalar.value} terms wanted; the cache holds "
                         f"{cache.kind.value} terms")
    get = cache.get
    if isinstance(kind, MatrixKind):
        return lambda n: _closed_form(get, n)
    return get


def t_matrix(n: int) -> Mat3:
    """Tribonacci matrix TM(n) at any signed n, by `kernel_term`.

    Oracles: `walk(T_MAT_SEEDS, n)`, and `mat_pow(T_MAT_SEEDS[1], n)` or
    the integer TM(-1) to the power -n.  Its entries are laid out by
    `term_reader(MatrixKind.TRIB_MATRIX, cache)`.
    """
    return kernel_term(T_MAT_SEEDS, n)


def k_matrix(n: int) -> Mat3:
    """Tribonacci-Lucas matrix KM(n) at any signed n, by `kernel_term`.

    Oracles: `walk(K_MAT_SEEDS, n)`, and `K_MAT_SEEDS[0] * t_matrix(n)`
    (LEM16a).  Its entries are laid out by
    `term_reader(MatrixKind.LUCAS_MATRIX, cache)`.
    """
    return kernel_term(K_MAT_SEEDS, n)


def trib_fast(n: int, counter: OpCounter | None = None) -> int:
    """T(n) by `kernel_term` on the T seeds, any signed n.

    O(log |n|) squarings of 6 big multiplications each, 5 from x**2048
    on (`FIVE_SQUARES_FROM`), and at the top one product and one square.
    """
    return kernel_term(SEEDS[SequenceKind.TRIBONACCI], n, counter)


def lucas_fast(n: int, counter: OpCounter | None = None) -> int:
    """K(n) by `kernel_term` on the K seeds, any signed n: the squarings
    of `trib_fast`, and three squares at the top."""
    return kernel_term(SEEDS[SequenceKind.TRIBONACCI_LUCAS], n, counter)

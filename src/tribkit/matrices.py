"""Exact 3x3 matrix companions of the scalar sequences.

T(n), K(n), TM(n) and KM(n) are one third-order recurrence started from
four seed triples (`KIND_SEEDS`; TM(0) = I), so every route to a term
depends on the seeds alone: `walk` slides a window from them, and
`kernel_term` powers x modulo x^3 - x^2 - x - 1 (Fiduccia, SIAM J.
Comput. 14(1), 1985) in O(log |n|) squarings at any signed n, each of
six big squares, or of five (Toom-3; Bodrato and Zanoni, ISSAC 2007)
once the coefficients are large.  A scalar term stops the chain at
x**(n/2) and reads s(n) off one quadratic form in its coefficients, as
weighted squares and products of linear forms; a matrix term is
a*s(2) + b*s(1) + c*s(0) for x**n = a*x^2 + b*x + c.  Every matrix the
package computes lies in Z[Q], Q = TM(1) (TM(n) = Q^n, KM(n) = KM(0)
Q^n), and is a `ZQ`, held as its coordinates (a, b, c); row 2, column 1
(1-based) of TM(n) holds T(n).  `Mat3` is left to the independent
oracles, called by name: `walk` over `T_MAT_SEEDS` or `K_MAT_SEEDS`,
`mat_pow` (TM(1)**n by matrix products), `mat_mul` and
`binet.binet_matrix`.  `decimal_term` runs the same kernel on
decimal.Decimal, for answers that are only printed: every matrix answer,
and a scalar one from the index `decimal_route` gives.
"""

from __future__ import annotations

import decimal
import operator
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
    """Immutable 3x3 integer matrix, entries row-major: the independent
    oracles' matrix (`mat_mul`, `mat_pow`, `walk` over `T_MAT_SEEDS` or
    `K_MAT_SEEDS`, `binet.binet_matrix`), and what `t_matrix` and
    `k_matrix` return.  Everything else computes in `ZQ`.

    Code indexes rows and columns from 0; prose and reports use the
    1-based convention, under which the scalar-bearing cell "row 2,
    column 1" is ``entry(1, 0)``.

    `Mat3(entries)` checks that there are nine entries.
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

    def __add__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(tuple([a + b for a, b in zip(self.entries,
                                                 other.entries)]))

    def __sub__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(tuple([a - b for a, b in zip(self.entries,
                                                 other.entries)]))

    def __neg__(self) -> "Mat3":
        return Mat3(tuple([-a for a in self.entries]))

    def __rmul__(self, k: int) -> "Mat3":
        if not isinstance(k, int):
            return NotImplemented
        return Mat3(tuple([k * a for a in self.entries]))

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
        quotients = [divmod(x, d) for x in self.entries]
        if any(r for _, r in quotients):
            raise _indivisible(self.entries, d)
        return Mat3(tuple([q for q, _ in quotients]))


def _indivisible(entries: tuple, d) -> DivisibilityViolation:
    """The error of an exact division by d of a matrix of `entries`,
    naming the first entry that d leaves a remainder in."""
    i, x = next((i, x) for i, x in enumerate(entries) if x % d)
    return DivisibilityViolation(f"{d} does not divide entry {x} at row "
                                 f"{i // 3 + 1}, column {i % 3 + 1}")


def decimal_form(value):
    """An int or integral Decimal as its decimal string (`to_decimal`), a
    ZQ or Mat3 as rows of those and a tuple as a list of its items'
    forms, as `verify` failure reports and the command line's numbers
    write them (`cli` lays a matrix answer out of its entry texts)."""
    if isinstance(value, _MATRICES):
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


def mat_mul(a: Mat3, b: Mat3, counter: OpCounter | None = None) -> Mat3:
    """Exact product: 27 big-int multiplications, 18 additions."""
    a11, a12, a13, a21, a22, a23, a31, a32, a33 = a.entries
    b11, b12, b13, b21, b22, b23, b31, b32, b33 = b.entries
    if counter is not None:
        counter.mat_muls += 1
        counter.big_muls += 27
        counter.big_adds += 18
    return Mat3((
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


def binary_power(x, e: int, mul, one):
    """x**e by left-to-right binary powering with `mul`; `one` at e = 0.

    Each bit of e below the most significant one squares the power so
    far and, where the bit is set, multiplies it by x on the right, so
    the chain never assumes its operands commute: len(bits) +
    bits.count("1") products, bits = bin(e)[3:], at most 2*log2(e).
    `mat_pow`, `ZQ` and Binet's roots power through it.
    """
    if e < 0:
        raise NegativeExponent(f"exponent must be non-negative, got {e}")
    if e == 0:
        return one
    acc = x
    for bit in bin(e)[3:]:  # bits below the most significant one
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def mat_pow(a: Mat3, e: int, counter: OpCounter | None = None) -> Mat3:
    """a**e by `binary_power` over `mat_mul`; a**0 is the identity."""
    # mat_mul is read from the module at each product, so a wrapper bound
    # there in its place sees every one
    return binary_power(a, e, lambda x, y: mat_mul(x, y, counter), IDENTITY)


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
# A scalar on the decimal route (from n = 4*10^4) squares some x**e with e
# in [2048, 4096), so the switch sits where Decimal starts to win.
FIVE_SQUARES_FROM = 2048

# libmpdec squares by the schoolbook method while an operand has at most
# 256 words (of 19 digits on a 64-bit build, 9 on a 32-bit one; `_mpd_qmul`
# in mpdecimal), by a number-theoretic transform past that, and a square
# of 257 words costs what one of about 132 costs by schoolbook.  So a
# Decimal square in between is cheaper padded with zeros past 256 words
# (medians of 7 rounds of 50 calls; 2 vCPUs, CPython 3.11;
# BENCH_decimal_band.json):
#   digits     direct    padded (ms)
#   2 300      0.097     0.116
#   2 508      0.114     0.116
#   2 509      0.116     0.116
#   3 200      0.188     0.117
#   4 000      0.300     0.117
#   4 864      0.436     0.117
#   4 865      0.116       -
_WORD_DIGITS = 19 if decimal.MAX_PREC > 425_000_000 else 9
_SCHOOLBOOK_DIGITS = 256 * _WORD_DIGITS
_PAD_FROM_DIGITS = 132 * _WORD_DIGITS


def _decimal_square(x):
    """x * x for an integral Decimal under `EXACT`.  A coefficient in the
    band (`_PAD_FROM_DIGITS`, `_SCHOOLBOOK_DIGITS`] gets s zeros past 256
    words, is squared by transform, and loses exactly 2s zeros again, so
    an unpad that is not exact raises Inexact."""
    digits = x.adjusted() + 1
    if not _PAD_FROM_DIGITS < digits <= _SCHOOLBOOK_DIGITS:
        return x * x
    s = _SCHOOLBOOK_DIGITS + 1 - digits
    x = x.scaleb(s).quantize(1)
    x *= x
    return x.scaleb(-2 * s).quantize(1)


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
    `decimal.Decimal` under `EXACT` for `decimal_term`, whose five
    squares go through `_decimal_square` each, one by one, so the
    divisions by 2 and 6 and their check see unscaled values.

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
    square = _decimal_square if isinstance(one, decimal.Decimal) else None
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
            p = square(p) if square else p * p
            q = square(q) if square else q * q
            q = p - q
            q, rem2 = divmod(q, 2)  # r1 + r3
            p -= q  # r0 + r2 + r4
            a = square(a) if square else a * a
            c = square(c) if square else c * c
            p -= c
            p -= a  # r2
            t = square(t) if square else t * t
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
        counter.big_adds += 12 * squarings + 13 * fives + 2 * steps
    return a, b, c


# A sum adds the forms of its u seeds (`series.partial_sum`), one key per
# (kind, m, f): a sweep of both scalar kinds over m in 1..10 and every
# j < m holds 45 keys, T's and K's own included; a reduction takes about
# 60 us, and a key one to three of them
@lru_cache(maxsize=64)
def _square_forms(seeds: tuple[int, int, int], f: int):
    """(d, forms): d*s(2k + f) is the sum of w*(l . p)*(m . p) over
    (w, *l, m) in forms, p = (c, b, a) the coefficients of x**k, any k;
    m is None for a square (m = l).

    The reduction of the form at f (`_reduce`) or of the one at f - 2 or
    f + 2, whichever has the fewest squares and products, f's own on a
    tie: s(2k + f) is also s(2(k + 1) + f - 2) and s(2(k - 1) + f + 2),
    read off x**(k + 1) = (a + b)*x^2 + (a + c)*x + a or
    x**(k - 1) = c*x^2 + (a - c)*x + b - c, whose coefficients are
    integer lines in p, so a line of those forms composes to one in p.
    For K at even n that is f - 2, one product and one square over d = 1
    against three squares over 6.  At odd n no split of K's form takes
    fewer than three: K(2k + f) is Tr(x**f * y**2), y = x**k, the trace
    of Q(x), and y -> x*y makes the forms at f and f + 2 equivalent over
    Z.  At f = 1 the form is X^2 - 2Y^2 + 22Z^2 in unimodular lines,
    which has no rational zero: modulo 11 a zero makes X^2 = 2Y^2, and 2
    is no square mod 11, so 11 divides X and Y, hence Z, and no primitive
    zero exists.  One product and one square would vanish where a factor
    of the product and the square's line do, and two squares have rank
    2, not 3.
    """
    best = _reduce(seeds, f)
    # the lines of the forms at f - 2 and f + 2 composed into p's
    for shift, step in ((-2, lambda l0, l1, l2: (l1, l2, l0 + l1 + l2)),
                        (2, lambda l0, l1, l2: (l2 - l0 - l1, l0, l1))):
        if len(best[1]) <= 2:
            break
        d, forms = _reduce(seeds, f + shift)
        if len(forms) < len(best[1]):
            best = d, tuple((w, *step(*l), None if m is None else step(*m))
                            for w, *l, m in forms)
    return best


def _reduce(seeds: tuple[int, int, int], f: int):
    """`_square_forms` of the form at f itself.

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
    pivots = 0
    while any(map(any, h)):
        if pivots == 3:  # H has rank at most 3, and a pivot lowers it
            raise ArithmeticError(
                f"the form of seeds {seeds} at f = {f} is not reduced "
                f"after three pivots")
        pivots += 1
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

    Matrix seeds must lie in Z[Q], Q = TM(1), as TM's, KM's and every
    integer combination of their terms do: `ZQ`s, or Mat3s turned into
    them by `ZQ.of_matrix`, which raises ValueError outside Z[Q].  s(n)
    is the ZQ a*s(2) + b*s(1) + c*s(0) for x**n = a*x^2 + b*x + c, 9
    multiplications; over the TM seeds it is x**n itself.  Int seeds
    stop the chain a level below the top: with n = 2k + f, or -2k + f
    when n < 0, and f in {-1, 0, 1}, x**(+-k) has coefficients p = (c,
    b, a), and s(n) is the quadratic form sum of p_i*p_j*s(i + j + f),
    which `_square_forms` writes as weighted squares and products of
    linear forms over one exact division.  So the top level costs 3 big
    multiplications instead of 6, and 2 for T at every f and for K at
    even n, whose forms pair two opposite squares into one product; each
    is folded into the total as soon as it is made, and the total is of
    the size of the answer.  For T with f = 0,
    T(2k) = (a + b)*(3a + b + 2c) + a**2.

    `counter` and `one` go to `_x_power`; a scalar read-out counts as one
    more mat_muls, and its squares and products as big_muls.  A Decimal
    unit computes under `EXACT`, whatever the caller's context, which
    is left as it was; an int unit enters no context.
    """
    if isinstance(one, decimal.Decimal):
        with decimal.localcontext(EXACT):
            return _kernel_term(seeds, n, counter, one)
    return _kernel_term(seeds, n, counter, one)


def _kernel_term(seeds, n: int, counter: OpCounter | None, one):
    """`kernel_term` in the current context."""
    if isinstance(seeds[0], (ZQ, Mat3)):
        s0, s1, s2 = [(s if type(s) is ZQ else ZQ.of_matrix(s)).coordinates
                      for s in seeds]
        a, b, c = _x_power(n, counter, one)
        return _zq((a * s2[0] + b * s1[0] + c * s0[0],
                    a * s2[1] + b * s1[1] + c * s0[1],
                    a * s2[2] + b * s1[2] + c * s0[2]))
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
    if d == 1:  # T's forms, and K's at f = 0 and 1: nothing to divide
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
# it.  libmpdec multiplies by the schoolbook method up to 256 words and
# by a number-theoretic transform past that, and `_decimal_square` pads
# a square in between past the base case.
# Index from which a scalar answer takes the decimal route, where the
# two routes cost about the same; on the negative side it is taken from
# -2 * the crossover, since backwards the terms grow only like
# sqrt(1.839...)**|n|, and T(-2m) has as many digits as T(m).  Medians of
# 9, each best of 3, in one interpreter (2 vCPUs, CPython 3.11;
# BENCH_decimal_band.json):
#   n         int kernel + to_decimal   Decimal kernel + str
#   T 3*10^4         0.98 ms                  1.12 ms
#   T 3.6*10^4       1.38                     1.60
#   T 3.8*10^4       1.19                     1.08
#   T 4*10^4         1.26                     1.12
#   T 5*10^4         1.91                     1.40
#   T 7*10^4         3.75                     2.06
#   T 10^5           4.98                     2.98
#   T 10^6         110                       28
#   T -8*10^4        1.27                     1.12
#   T -10^6         44                       13
#   K 4*10^4         1.26                     1.12
#   K 10^5           5.25                     2.98
# The Decimal chain wins from where it squares a coefficient of the
# padded band, x**9500 on the way to T(3.8*10^4), and K gives the same
# picture.  A matrix answer, nine entries of text, takes the decimal
# route at every index: an int route below 2*10^3 saved at most 5 us a
# term and 12 us a sum in process, and under 0.4% of any end-to-end
# metric (BENCH_route_forks.json).
DECIMAL_CROSSOVER = 4 * 10**4
# Count from which a `gf` listing takes the decimal route
# (`series.gf_stream` with a Decimal unit).  A listing prints every term
# below its count, and pays for its additions and its text per number.
# A matrix listing draws its scalar sequence and converts about two
# numbers a matrix (`cli._matrix_lines`), and it lays out nine entries
# a line on either route, so it crosses over a little later than a
# scalar one.  One listing of each kind drawn in-process into a sink
# that keeps nothing, median of 5 rounds, each best of 30 (T: of 60, in
# a second run), the routes alternating (2 vCPUs, CPython 3.11;
# BENCH_matrix_text.json), plain text:
#   count    int + to_decimal   Decimal + str
#   T 512         0.289 ms          0.311 ms
#   T 768         0.515             0.514
#   T 800         0.549             0.542
#   T 896         0.668             0.656
#   T 1024        0.870             0.791
#   T 2000        3.68              2.11
#   TM 512        0.713             0.811
#   TM 768        1.24              1.29
#   TM 800        1.31              1.38
#   TM 896        1.57              1.57
#   TM 1024       2.02              1.93
#   TM 2000       7.93              4.99
# K, KM, JSON and CSV give the same picture: scalar listings cross over
# near 800, matrix ones near 900.  Between the two the int route is 2-5%
# faster for a matrix listing, 0.03-0.07 ms a listing: too little for a
# second constant, so both shapes keep this one.
LISTING_DECIMAL_CROSSOVER = 800


def decimal_route(kind, n: int, listing: bool = False) -> bool:
    """Whether an answer of `kind` at index n (a term's, or a sum's top
    index) is cheaper printed from the decimal route (`decimal_term`,
    `series.decimal_sum`) than from the int kernel and `to_decimal`;
    with `listing`, whether a `gf` listing of the first n coefficients
    is (`series.gf_stream` with a Decimal unit; a matrix listing draws
    its scalar sequence so), of either shape.  A matrix answer always
    is."""
    if listing:
        return n >= LISTING_DECIMAL_CROSSOVER
    return (isinstance(kind, MatrixKind) or n >= DECIMAL_CROSSOVER
            or n <= -2 * DECIMAL_CROSSOVER)


def decimal_term(kind, n: int):
    """The term of any kind at any signed n, an integral Decimal or a ZQ
    of them, computed under `EXACT`, for printing only: `int()` of a big
    Decimal is quadratic in its digits."""
    return kernel_term(KIND_SEEDS[kind][0], n, one=decimal.Decimal(1))


def _closed_form(term: Callable[[int], int], n: int) -> tuple[int, int, int]:
    """(s(n+1), s(n), s(n-1)), s(i) = term(i): the first column of TM(n)
    or KM(n), which fixes the matrix.

    The paper lays the matrix out of s(n-3) .. s(n+1), rows (s(n+1),
    s(n) + s(n-1), s(n)), (s(n), s(n-1) + s(n-2), s(n-1)) and (s(n-1),
    s(n-2) + s(n-3), s(n-2)), for s = T or K.  That matrix lies in Z[Q],
    Q = TM(1) (`identities`), and a*Q^2 + b*Q + c*I has the first column
    (2a + b + c, a + b, a), so the column gives a, b and c back (`ZQ`).
    """
    return term(n + 1), term(n), term(n - 1)


class ZQ:
    """a*Q^2 + b*Q + c*I, Q = TM(1): an element of Z[Q], which is
    Z[x]/(x^3 - x^2 - x - 1), held as its coordinates (a, b, c).

    A product of two, `*` or `@`, costs the 9 products of the
    coordinates, reduced by x^3 = x^2 + x + 1 and x^4 = 2x^2 + 2x + 1 (a
    Mat3 product costs 27), a sum or difference 3 additions, a scaling by
    an int 3 multiplications and equality one comparison of the
    coordinates; any other operand, a Mat3 too, raises TypeError.  The
    coordinates are ints, integral Decimals on the decimal route, or
    Fractions and quotients by zero from `identities._quotient`.  The
    read-only `entries` lay the matrix out when read; a ZQ equals, and
    hashes as, the Mat3 of its entries, as the oracles compare it.

    `ZQ(a, b, c)` is for callers; every result above is built by `_zq`,
    which sets the coordinates past the constructor.  `==` and `!=`
    between two ZQs compare the coordinates alone.  A ZQ is immutable,
    as a Mat3 is: assigning or deleting any attribute raises
    AttributeError, so one held in a dict cannot change under its hash.
    """

    __slots__ = ("coordinates",)  # (a, b, c)

    def __init__(self, a, b, c):
        _set_coordinates(self, (a, b, c))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable ZQ")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable ZQ")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return ZQ, self.coordinates

    @staticmethod
    def of_column(u, v, w) -> "ZQ":
        """The element whose matrix has first column (u, v, w): that
        column is (2a + b + c, a + b, a), a unimodular map, so d divides
        every entry exactly when it divides every coordinate."""
        return _zq((w, v - w, u - v - w))

    @staticmethod
    def of_matrix(m: Mat3) -> "ZQ":
        """The element whose matrix is m; ValueError, naming m, when m
        is not the layout of its first column, so outside Z[Q]."""
        x = ZQ.of_column(*m.entries[::3])
        if x.entries != m.entries:
            raise ValueError(f"{m!r} lies outside Z[Q], Q = TM(1)")
        return x

    @property
    def entries(self) -> tuple:
        """a*Q^2 + b*Q + c*I row by row, four additions from its first
        column (2a + b + c, a + b, a): the rows are (2a + b + c, 2a + b,
        a + b), (a + b, a + c, a) and (a, b, c).  Decimal coordinates add
        under `EXACT`, whatever the caller's context, so no digit rounds
        away."""
        a, b, c = self.coordinates
        add = _exact_add if isinstance(a, decimal.Decimal) else operator.add
        v = add(a, b)
        s = add(v, a)
        return (add(s, c), s, v, v, add(a, c), a, a, b, c)

    rows = Mat3.rows
    entry = Mat3.entry

    def __repr__(self):
        return f"ZQ{self.coordinates!r}"

    # ZQ has no subclass, so `type(other) is ZQ` stands for isinstance
    def __eq__(self, other):
        if type(other) is ZQ:
            return self.coordinates == other.coordinates
        if isinstance(other, Mat3):
            return self.entries == other.entries
        return NotImplemented

    def __ne__(self, other):
        # answered here, not by object.__ne__ calling __eq__
        if type(other) is ZQ:
            return self.coordinates != other.coordinates
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = Mat3.__hash__

    def __add__(self, other):
        if type(other) is not ZQ:
            return NotImplemented
        a1, b1, c1 = self.coordinates
        a2, b2, c2 = other.coordinates
        return _zq((a1 + a2, b1 + b2, c1 + c2))

    def __sub__(self, other):
        if type(other) is not ZQ:
            return NotImplemented
        a1, b1, c1 = self.coordinates
        a2, b2, c2 = other.coordinates
        return _zq((a1 - a2, b1 - b2, c1 - c2))

    def __neg__(self):
        a, b, c = self.coordinates
        return _zq((-a, -b, -c))

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        a, b, c = self.coordinates
        return _zq((k * a, k * b, k * c))

    def __mul__(self, other):
        if type(other) is not ZQ:
            return NotImplemented
        a1, b1, c1 = self.coordinates
        a2, b2, c2 = other.coordinates
        x4 = a1 * a2  # x^4 = x^3 + x^2 + x, and x^3 = x^2 + x + 1
        x3 = a1 * b2 + b1 * a2 + x4  # every x^3, x^4's too
        return _zq((a1 * c2 + b1 * b2 + c1 * a2 + x3 + x4,
                    b1 * c2 + c1 * b2 + x3 + x4,
                    c1 * c2 + x3))

    __matmul__ = __mul__

    def div_exact(self, d) -> "ZQ":
        """Coordinatewise exact division, which divides every entry; a
        remainder in a coordinate leaves one in an entry, and raises as
        `Mat3.div_exact` does, naming that entry."""
        a, b, c = self.coordinates
        (a, ra), (b, rb), (c, rc) = divmod(a, d), divmod(b, d), divmod(c, d)
        if ra or rb or rc:
            raise _indivisible(self.entries, d)
        return _zq((a, b, c))

    def __pow__(self, e: int) -> "ZQ":
        """self**e by `binary_power` over ZQ products, never `mat_mul`."""
        return binary_power(self, e, operator.mul, _zq((0, 0, 1)))


_new = object.__new__
_set_coordinates = ZQ.coordinates.__set__  # the slot's, past __setattr__
_exact_add = EXACT.add


def _zq(coordinates: tuple) -> ZQ:
    """A ZQ of `coordinates`, three by construction, set straight into
    its slot: `ZQ(a, b, c)` costs a call of `__init__` on top."""
    z = _new(ZQ)
    _set_coordinates(z, coordinates)
    return z


# What prints as a matrix: the package's ZQs, and a caller's Mat3
_MATRICES = (ZQ, Mat3)


# kind -> (its seed triple, the scalar sequence its terms are read from)
KIND_SEEDS = {kind: (SEEDS[kind], kind) for kind in SequenceKind} | {
    MatrixKind.TRIB_MATRIX: (tuple(map(ZQ.of_matrix, T_MAT_SEEDS)),
                             SequenceKind.TRIBONACCI),
    MatrixKind.LUCAS_MATRIX: (tuple(map(ZQ.of_matrix, K_MAT_SEEDS)),
                              SequenceKind.TRIBONACCI_LUCAS)}


def term_reader(kind, cache: TermCache):
    """n -> the term of `kind` at any signed n, read from `cache`; the one
    place a cache turns into terms.

    A matrix kind's term is the `ZQ` of its first column, `_closed_form`
    of the cache's scalar terms.  A cache of the other sequence raises
    ValueError.
    """
    scalar = KIND_SEEDS[kind][1]
    if cache.kind is not scalar:
        raise ValueError(f"{scalar.value} terms wanted; the cache holds "
                         f"{cache.kind.value} terms")
    get = cache.get
    if isinstance(kind, MatrixKind):
        of_column = ZQ.of_column
        return lambda n: of_column(*_closed_form(get, n))
    return get


def t_matrix(n: int) -> Mat3:
    """Tribonacci matrix TM(n) at any signed n, `kernel_term` as a Mat3.

    Oracles: `walk(T_MAT_SEEDS, n)`, and `mat_pow(T_MAT_SEEDS[1], n)` or
    the integer TM(-1) to the power -n.
    """
    return Mat3(kernel_term(KIND_SEEDS[MatrixKind.TRIB_MATRIX][0], n).entries)


def k_matrix(n: int) -> Mat3:
    """Tribonacci-Lucas matrix KM(n) at any signed n, `kernel_term` as a
    Mat3.

    Oracles: `walk(K_MAT_SEEDS, n)`, and `K_MAT_SEEDS[0] * t_matrix(n)`
    (LEM16a).
    """
    return Mat3(kernel_term(KIND_SEEDS[MatrixKind.LUCAS_MATRIX][0],
                            n).entries)


def trib_fast(n: int, counter: OpCounter | None = None) -> int:
    """T(n) by `kernel_term` on the T seeds, any signed n.

    O(log |n|) squarings of 6 big multiplications each, 5 from x**2048
    on (`FIVE_SQUARES_FROM`), and at the top one product and one square.
    """
    return kernel_term(SEEDS[SequenceKind.TRIBONACCI], n, counter)


def lucas_fast(n: int, counter: OpCounter | None = None) -> int:
    """K(n) by `kernel_term` on the K seeds, any signed n: the squarings
    of `trib_fast`, and at the top one product and one square at even n,
    three squares at odd n."""
    return kernel_term(SEEDS[SequenceKind.TRIBONACCI_LUCAS], n, counter)

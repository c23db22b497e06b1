"""Exact 3x3 matrix companions of the scalar sequences.

T(n), K(n), TM(n) and KM(n) are one third-order recurrence started from
four seed triples (`KIND_SEEDS`; TM(0) = I), so every route to a term
depends on the seeds alone: `walk` slides a window from them, and
`kernel_term` powers x modulo x^3 - x^2 - x - 1 (Fiduccia, SIAM J.
Comput. 14(1), 1985) in O(log |n|) squarings at any signed n.  A scalar
term stops the chain at x**(n/2) and reads s(n) off one quadratic form
in its coefficients; a matrix term reads s(n) = a*s(2) + b*s(1) +
c*s(0) off x**n = a*x^2 + b*x + c.  The entries of TM(n) and KM(n) are
shifted T and K terms, laid out in `_closed_form`; row 2, column 1
(1-based) of TM(n) holds T(n).  `mat_pow` (TM(1)**n by matrix products)
and FROM_T (KM(0) @ TM(n)) are independent oracles.  `decimal_term` runs
the same kernel on decimal.Decimal, for answers that are only printed.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd
from typing import Callable

from .core import SEEDS, SequenceKind, TermCache, to_decimal, walk
from .counters import OpCounter
from .errors import DivisibilityViolation, NegativeExponent


@dataclass(frozen=True)
class Mat3:
    """Immutable 3x3 integer matrix, entries row-major.

    Code indexes rows and columns from 0; prose and reports use the
    1-based convention, under which the scalar-bearing cell "row 2,
    column 1" is ``entry(1, 0)``.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != 9:
            raise ValueError("Mat3 takes exactly 9 entries")

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
        return Mat3((a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6,
                     a7 + b7, a8 + b8, a9 + b9))

    def __sub__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.entries
        return Mat3((a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5, a6 - b6,
                     a7 - b7, a8 - b8, a9 - b9))

    def __neg__(self) -> "Mat3":
        return Mat3(tuple(-x for x in self.entries))

    def __rmul__(self, k: int) -> "Mat3":
        if not isinstance(k, int):
            return NotImplemented
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.entries
        return Mat3((k * a1, k * a2, k * a3, k * a4, k * a5, k * a6, k * a7,
                     k * a8, k * a9))

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
        return Mat3((q1, q2, q3, q4, q5, q6, q7, q8, q9))


def decimal_form(value):
    """An int or integral Decimal as its decimal string, a Mat3 as rows
    of those and a tuple as a list of its items' forms; every output
    format writes these."""
    if isinstance(value, Mat3):
        return [[to_decimal(x) for x in row] for row in value.rows()]
    if isinstance(value, tuple):
        return [decimal_form(item) for item in value]
    if isinstance(value, decimal.Decimal):
        # `decimal_term` keeps exponent 0, so str() is the digits alone,
        # in linear time; never int(), which is quadratic
        return str(value)
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
# TM(-1); det TM(1) = 1, so the inverse has integer entries
_TM_INVERSE = Mat3((0, 1, 0, 0, 0, 1, 1, -1, -1))


class MatrixKind(Enum):
    """The two matrix sequences."""

    TRIB_MATRIX = "TM"
    LUCAS_MATRIX = "KM"


# kind -> (its seed triple, the scalar sequence its terms are read from)
KIND_SEEDS = {kind: (SEEDS[kind], kind) for kind in SequenceKind} | {
    MatrixKind.TRIB_MATRIX: (T_MAT_SEEDS, SequenceKind.TRIBONACCI),
    MatrixKind.LUCAS_MATRIX: (K_MAT_SEEDS, SequenceKind.TRIBONACCI_LUCAS)}


class MatrixStrategy(Enum):
    """Interchangeable evaluation routes for a matrix term."""

    ITERATE = "iterate"
    CLOSED_FORM = "closed-form"
    MAT_POW = "matpow"
    FROM_T = "from-t"


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


def _x_power(n: int, counter: OpCounter | None = None,
             one=1) -> tuple[int, int, int]:
    """(a, b, c) with x**n = a*x^2 + b*x + c modulo x^3 - x^2 - x - 1.

    Any signed n.  Left-to-right binary powering of x, or of
    x**-1 = x^2 - x - 1 when n < 0.  A squaring costs 6 big
    multiplications (a 3x3 matrix product costs 27); a step by x or
    x**-1 costs only additions.  `kernel_term` reads a term off them.

    Only `*`, `+` and `-` touch the coefficients, so they are of the
    type of `one`, the unit: ints by default, or `decimal.Decimal` under
    `EXACT` for `decimal_term`.

    The counter gets one mat_muls per squaring or step of the chain,
    the 6 multiplications of each squaring, and every addition or
    subtraction.
    """
    zero = one - one
    if n == 0:
        return zero, zero, one
    a, b, c = (zero, one, zero) if n > 0 else (one, -one, -one)
    squarings = steps = 0
    for bit in bin(abs(n))[3:]:  # bits below the most significant one
        # (a x^2 + b x + c)^2 reduced by x^3 = x^2 + x + 1 and
        # x^4 = 2x^2 + 2x + 1, each cross term 2uv taken as
        # (u + v)^2 - u^2 - v^2: CPython squares faster than it
        # multiplies.  Each square is folded in as soon as it is made,
        # so few big temporaries are alive at once
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
        squarings += 1
        if bit == "1":
            steps += 1
            if n > 0:
                a, b, c = a + b, a + c, a
            else:
                a, b, c = c, a - c, b - c
    if counter is not None:
        counter.mat_muls += squarings + steps
        counter.big_muls += 6 * squarings
        counter.big_adds += 12 * squarings + (2 if n > 0 else 3) * steps
    return a, b, c


@lru_cache(maxsize=32)
def _square_forms(seeds: tuple[int, int, int], f: int):
    """(d, forms): d*s(2k + f) is the sum of w*(l . p)**2 over (w, *l)
    in forms, p = (c, b, a) the coefficients of x**k, any k.

    s(2k + f) = s(k + k + f) = sum of p_i*p_j*s(i + j + f) over i, j in
    {0, 1, 2}: a quadratic form whose matrix H holds the terms
    s(f - 0) .. s(f + 4), read by `walk`.  Lagrange's reduction splits
    it into squares: for an integer vector u with h = u.H.u != 0 (a unit
    vector, or the sum of two when the diagonal of H is zero),
    h*(p.H.p) = (u.H.p)**2 + p.H'.p with H' = h*H - (H u)(H u)^T of rank
    one less.  Every weight and coefficient is an integer, and d is the
    product of the pivots h, reduced with the weights by their gcd.
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
    g = gcd(d, *(w for w, _ in forms))
    if d < 0:
        g = -g
    return d // g, tuple((w // g, *line) for w, line in forms)


def kernel_term(seeds, n: int, counter: OpCounter | None = None, one=1):
    """s(n) at any signed n from the seeds (s(0), s(1), s(2)), ints or
    matrices, by O(log |n|) squarings of `_x_power`.

    Matrix seeds read s(n) = a*s(2) + b*s(1) + c*s(0) off the whole
    x**n = a*x^2 + b*x + c.  Int seeds stop the chain a level below the
    top: with n = 2k + f, or -2k + f when n < 0, and f in {-1, 0, 1},
    x**(+-k) has coefficients p = (c, b, a), and s(n) is the quadratic
    form sum of p_i*p_j*s(i + j + f), which `_square_forms` writes as
    three weighted squares over one exact division.  So the top level
    costs 3 big squarings instead of 6; each square is folded into the
    total as soon as it is made, and the total is of the size of the
    answer.  For T with f = 0, T(2k) = (2a + b + c)**2 - (a + c)**2 +
    a**2.

    `counter` and `one` go to `_x_power`; the read-out counts as one
    more mat_muls, and its squares as big_muls.
    """
    if isinstance(seeds[0], Mat3):
        a, b, c = _x_power(n, counter)
        s0, s1, s2 = seeds
        return a * s2 + b * s1 + c * s0
    k, f = divmod(abs(n), 2)
    if n < 0:
        k, f = -k, -f
    a, b, c = _x_power(k, counter, one)
    d, forms = _square_forms(seeds, f)
    total = one - one
    for w, l0, l1, l2 in forms:
        v = l0 * c + l1 * b + l2 * a
        v *= v
        v *= w
        total += v
    value, remainder = divmod(total, d)
    if remainder:
        raise DivisibilityViolation(
            f"{d} does not divide the read-out of s({n}) from seeds {seeds}")
    if counter is not None:
        counter.mat_muls += 1
        counter.big_muls += len(forms)
        # per square: 3 small multiples, 2 additions, the weight and
        # the fold; then the division
        counter.big_adds += 7 * len(forms) + 1
    return value


# The decimal route: the kernel run on decimal.Decimal, whose answer is
# already decimal text (`str()` is linear), where turning a big int
# answer into text costs about as much as computing it.  libmpdec
# multiplies large numbers with a number-theoretic transform.  Its
# context keeps every digit, and a result that would round, overflow or
# be invalid raises instead.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                        Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Overflow,
                               decimal.InvalidOperation])
# n from which `term --strategy matpow` takes the decimal route, where
# the two routes cost about the same; on the negative side it is taken
# from -2 * DECIMAL_CROSSOVER, since backwards the terms grow only like
# sqrt(1.839...)**|n|, and T(-2m) has as many digits as T(m).  Best of
# 5 in each of 3 interpreters, both routes with the read-out of
# `kernel_term` (2 vCPUs, CPython 3.11; BENCH_terms_readout.json has the
# split between kernel and text):
#   n         int kernel + to_decimal   Decimal kernel + str
#   T 10^4           0.17 ms                  0.26 ms
#   T 3*10^4         1.5                      2.2
#   T 7*10^4         5.8                      6.4
#   T 10^5           7.0                      5.4
#   T 3*10^5        39                       20
#   T 10^6         173                       47
#   T -10^5          3.6                      3.8
#   T -2*10^5        7.0                      5.4
#   T -10^6         64                       22
DECIMAL_CROSSOVER = 10**5


def decimal_term(kind: SequenceKind, n: int) -> decimal.Decimal:
    """T(n) or K(n), any signed n, as an integral Decimal under `EXACT`,
    for printing only: `int()` of a big Decimal is quadratic in its
    digits."""
    with decimal.localcontext(EXACT):
        return kernel_term(SEEDS[kind], n, one=decimal.Decimal(1))


def _closed_form(term: Callable[[int], int], n: int) -> Mat3:
    t1, t0 = term(n + 1), term(n)
    tm1, tm2, tm3 = term(n - 1), term(n - 2), term(n - 3)
    return Mat3((t1, t0 + tm1, t0,
                 t0, tm1 + tm2, tm1,
                 tm1, tm2 + tm3, tm2))


def term_reader(kind, cache: TermCache | None = None):
    """n -> the term of `kind` at any signed n; the one place a cache
    turns into terms.

    The cache's scalar terms (laid out by `_closed_form` for a matrix
    kind), else the kernel read-out over the kind's seeds: each term on
    its own in O(log |n|), with no window up to n.  A cache of the other
    sequence raises ValueError.
    """
    seeds, scalar = KIND_SEEDS[kind]
    if cache is None:
        return lambda n: kernel_term(seeds, n)
    if cache.kind is not scalar:
        raise ValueError(f"{scalar.value} terms wanted; the cache holds "
                         f"{cache.kind.value} terms")
    get = cache.get
    if isinstance(kind, MatrixKind):
        return lambda n: _closed_form(get, n)
    return get


def t_matrix(n: int,
             strategy: MatrixStrategy = MatrixStrategy.CLOSED_FORM) -> Mat3:
    """Tribonacci matrix TM(n) for any integer n; all strategies agree.

    ITERATE walks the matrix recurrence from the seeds.  CLOSED_FORM is
    the kernel read-out a*TM(2) + b*TM(1) + c*I.  MAT_POW raises TM(1)
    to the n-th power by matrix products, or the integer inverse TM(-1)
    to the (-n)-th when n < 0.  The entry layout of shifted T terms is
    `term_reader(MatrixKind.TRIB_MATRIX, cache)`.
    """
    if strategy is MatrixStrategy.ITERATE:
        return walk(T_MAT_SEEDS, n)
    if strategy is MatrixStrategy.CLOSED_FORM:
        return kernel_term(T_MAT_SEEDS, n)
    if strategy is MatrixStrategy.MAT_POW:
        if n < 0:
            return mat_pow(_TM_INVERSE, -n)
        return mat_pow(T_MAT_SEEDS[1], n)
    raise ValueError(f"unsupported strategy for t_matrix: {strategy}")


def k_matrix(n: int,
             strategy: MatrixStrategy = MatrixStrategy.CLOSED_FORM) -> Mat3:
    """Tribonacci-Lucas matrix KM(n) for any integer n; strategies agree.

    ITERATE and CLOSED_FORM are those of `t_matrix` on KM's seeds.
    FROM_T multiplies KM(0) by `t_matrix(n)`, which lands exactly on
    KM(n).  The entry layout of shifted K terms is
    `term_reader(MatrixKind.LUCAS_MATRIX, cache)`.
    """
    if strategy is MatrixStrategy.ITERATE:
        return walk(K_MAT_SEEDS, n)
    if strategy is MatrixStrategy.CLOSED_FORM:
        return kernel_term(K_MAT_SEEDS, n)
    if strategy is MatrixStrategy.FROM_T:
        return mat_mul(K_MAT_SEEDS[0], t_matrix(n))
    raise ValueError(f"unsupported strategy for k_matrix: {strategy}")


def trib_fast(n: int, counter: OpCounter | None = None) -> int:
    """T(n) by `kernel_term` on the T seeds, any signed n.

    O(log |n|) squarings of 6 big multiplications each, and 3 at the
    top.
    """
    return kernel_term(SEEDS[SequenceKind.TRIBONACCI], n, counter)


def lucas_fast(n: int, counter: OpCounter | None = None) -> int:
    """K(n) by `kernel_term` on the K seeds, any signed n."""
    return kernel_term(SEEDS[SequenceKind.TRIBONACCI_LUCAS], n, counter)

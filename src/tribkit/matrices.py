"""Exact 3x3 matrix companions of the scalar sequences.

T(n), K(n), TM(n) and KM(n) are one third-order recurrence started from
four seed triples (`KIND_SEEDS`; TM(0) = I), so every route to a term
depends on the seeds alone: `walk` slides a window from them, and the
kernel read-out s(n) = a*s(2) + b*s(1) + c*s(0), with x**n = a*x^2 +
b*x + c modulo x^3 - x^2 - x - 1 (Fiduccia, SIAM J. Comput. 14(1),
1985), takes O(log |n|) squarings at any signed n.  The entries of
TM(n) and KM(n) are shifted T and K terms, laid out in `_closed_form`;
row 2, column 1 (1-based) of TM(n) holds T(n).  `mat_pow` (TM(1)**n by
matrix products) and FROM_T (KM(0) @ TM(n)) are independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import (SEEDS, SequenceKind, TermCache, cache_reader, to_decimal,
                   walk)
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

    def __add__(self, other: "Mat3") -> "Mat3":
        return Mat3(tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat3") -> "Mat3":
        return Mat3(tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat3":
        return Mat3(tuple(-x for x in self.entries))

    def __rmul__(self, k: int) -> "Mat3":
        if not isinstance(k, int):
            return NotImplemented
        return Mat3(tuple(k * x for x in self.entries))

    def __mul__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return mat_mul(self, other)

    __matmul__ = __mul__

    def __pow__(self, e: int) -> "Mat3":
        return mat_pow(self, e)

    def div_exact(self, d: int) -> "Mat3":
        """Entrywise exact division; any remainder raises."""
        out = []
        for x in self.entries:
            q, r = divmod(x, d)
            if r:
                raise DivisibilityViolation(f"{d} does not divide entry {x}")
            out.append(q)
        return Mat3(tuple(out))


def decimal_form(value):
    """An int as its decimal string, a Mat3 as rows of those and a tuple
    as a list of its items' forms; every output format writes these."""
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


def _x_power(n: int, counter: OpCounter | None = None) -> tuple[int, int, int]:
    """(a, b, c) with x**n = a*x^2 + b*x + c modulo x^3 - x^2 - x - 1.

    Any signed n.  Left-to-right binary powering of x, or of
    x**-1 = x^2 - x - 1 when n < 0.  A squaring costs 6 big
    multiplications (a 3x3 matrix product costs 27); a step by x or
    x**-1 costs only additions.  `kernel_term` reads a term off them.

    The counter gets one mat_muls per squaring or step of the chain,
    the 6 multiplications of each squaring, and every addition, with a
    doubling counted as one.
    """
    if n == 0:
        return 0, 0, 1
    a, b, c = (0, 1, 0) if n > 0 else (1, -1, -1)
    squarings = steps = 0
    for bit in bin(abs(n))[3:]:  # bits below the most significant one
        # (a x^2 + b x + c)^2 reduced by x^3 = x^2 + x + 1 and
        # x^4 = 2x^2 + 2x + 1, each cross term 2uv taken as
        # (u + v)^2 - u^2 - v^2: CPython squares faster than it multiplies
        aa, bb, cc = a * a, b * b, c * c
        p, q, r = a + b, a + c, b + c
        p, q, r = p * p, q * q, r * r
        a, b, c = p + q - cc, aa + p + r - 2 * bb - cc, p - bb + cc
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


def kernel_term(seeds, n: int, counter: OpCounter | None = None):
    """s(n) = a*s(2) + b*s(1) + c*s(0), (a, b, c) = `_x_power(n)`, any n.

    The seeds (s(0), s(1), s(2)) may be ints or matrices.  The counter
    also gets the read-out: 5 additions per entry (3 small multiples).
    """
    a, b, c = _x_power(n, counter)
    s0, s1, s2 = seeds
    if counter is not None:
        counter.big_adds += 45 if isinstance(s0, Mat3) else 5
    return a * s2 + b * s1 + c * s0


def _closed_form(term: Callable[[int], int], n: int) -> Mat3:
    t1, t0 = term(n + 1), term(n)
    tm1, tm2, tm3 = term(n - 1), term(n - 2), term(n - 3)
    return Mat3((t1, t0 + tm1, t0,
                 t0, tm1 + tm2, tm1,
                 tm1, tm2 + tm3, tm2))


def term_reader(kind, cache: TermCache | None = None,
                counter: OpCounter | None = None):
    """n -> the CLOSED_FORM term of `kind` at any signed n.

    The cache's scalar terms (laid out by `_closed_form` for a matrix
    kind), else the kernel read-out over the kind's seeds: each term on
    its own in O(log |n|), with no window up to n.
    """
    seeds, scalar = KIND_SEEDS[kind]
    if cache is None:
        return lambda n: kernel_term(seeds, n, counter)
    get = cache_reader(cache, scalar)
    if isinstance(kind, MatrixKind):
        return lambda n: _closed_form(get, n)
    return get


def t_matrix(n: int, strategy: MatrixStrategy = MatrixStrategy.CLOSED_FORM,
             cache: TermCache | None = None,
             counter: OpCounter | None = None) -> Mat3:
    """Tribonacci matrix TM(n) for any integer n; all strategies agree.

    ITERATE walks the matrix recurrence from the seeds.  CLOSED_FORM
    lays out Tribonacci terms when a cache is passed, else it is the
    kernel read-out a*TM(2) + b*TM(1) + c*I.  MAT_POW raises TM(1) to
    the n-th power by matrix products, or the integer inverse TM(-1) to
    the (-n)-th when n < 0.
    """
    if strategy is MatrixStrategy.ITERATE:
        return walk(T_MAT_SEEDS, n)
    if strategy is MatrixStrategy.CLOSED_FORM:
        return term_reader(MatrixKind.TRIB_MATRIX, cache, counter)(n)
    if strategy is MatrixStrategy.MAT_POW:
        if n < 0:
            return mat_pow(_TM_INVERSE, -n, counter)
        return mat_pow(T_MAT_SEEDS[1], n, counter)
    raise ValueError(f"unsupported strategy for t_matrix: {strategy}")


def k_matrix(n: int, strategy: MatrixStrategy = MatrixStrategy.CLOSED_FORM,
             cache: TermCache | None = None) -> Mat3:
    """Tribonacci-Lucas matrix KM(n) for any integer n; strategies agree.

    ITERATE and CLOSED_FORM are those of `t_matrix` on KM's seeds (a
    CLOSED_FORM cache holds Tribonacci-Lucas terms).  FROM_T multiplies
    KM(0) by the CLOSED_FORM TM(n), which lands exactly on KM(n); it
    wants a Tribonacci cache or none.
    """
    if strategy is MatrixStrategy.ITERATE:
        return walk(K_MAT_SEEDS, n)
    if strategy is MatrixStrategy.CLOSED_FORM:
        return term_reader(MatrixKind.LUCAS_MATRIX, cache)(n)
    if strategy is MatrixStrategy.FROM_T:
        return mat_mul(K_MAT_SEEDS[0],
                       t_matrix(n, MatrixStrategy.CLOSED_FORM, cache))
    raise ValueError(f"unsupported strategy for k_matrix: {strategy}")


def trib_fast(n: int, counter: OpCounter | None = None) -> int:
    """T(n) = a + b from TM(1)**n in 3-coefficient form, any signed n.

    O(log |n|) squarings of 6 big multiplications each.
    """
    a, b, _ = _x_power(n, counter)
    if counter is not None:
        counter.big_adds += 1
    return a + b


def lucas_fast(n: int, counter: OpCounter | None = None) -> int:
    """K(n) = 3a + b + 3c from TM(1)**n in 3-coefficient form, any signed n."""
    a, b, c = _x_power(n, counter)
    if counter is not None:
        counter.big_adds += 3
    return 3 * (a + c) + b

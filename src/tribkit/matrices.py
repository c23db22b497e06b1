"""Exact 3x3 matrix companions of the scalar sequences.

TM(n) and KM(n) satisfy the same third-order recurrence as the scalars,
starting from fixed seed matrices with TM(0) = I, and extend to negative
indices the same way.  Their entries are shifted scalar terms: reading
the cell at row 2, column 1 (1-based) of TM(n) gives T(n), which is what
makes TM(n) = TM(1)**n an O(log |n|) route to T(n) at any signed n.

That power is computed in three coefficients: by Cayley-Hamilton
TM(n) = a*TM(2) + b*TM(1) + c*I, where x**n = a*x^2 + b*x + c modulo the
characteristic polynomial x^3 - x^2 - x - 1 (Fiduccia, SIAM J. Comput.
14(1), 1985).  `mat_pow` is kept as an independent matrix-product oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import SequenceKind, TermCache, lucas_trib, to_decimal, trib
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

    @classmethod
    def from_rows(cls, rows) -> "Mat3":
        (a, b, c), (d, e, f), (g, h, i) = rows
        return cls((a, b, c, d, e, f, g, h, i))

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        e = self.entries
        return ((e[0], e[1], e[2]), (e[3], e[4], e[5]), (e[6], e[7], e[8]))

    def decimal_rows(self) -> list[list[str]]:
        """Entries as decimal strings, row by row."""
        return [[to_decimal(x) for x in row] for row in self.rows()]

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

    def __matmul__(self, other: "Mat3") -> "Mat3":
        return mat_mul(self, other)

    def div_exact(self, d: int) -> "Mat3":
        """Entrywise exact division; any remainder raises."""
        out = []
        for x in self.entries:
            q, r = divmod(x, d)
            if r:
                raise DivisibilityViolation(f"{d} does not divide entry {x}")
            out.append(q)
        return Mat3(tuple(out))


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
    x**-1 costs only additions.  The coefficients apply to every
    solution s of the recurrence: s(n) = a*s(2) + b*s(1) + c*s(0), so
    T(n) = a + b, T(n-1) = a, T(n-2) = c and K(n) = 3a + b + 3c.

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


def _tm_from_kernel(n: int, counter: OpCounter | None = None) -> Mat3:
    """TM(n) = a*TM(2) + b*TM(1) + c*I from one kernel call."""
    a, b, c = _x_power(n, counter)
    # a = T(n-1), c = T(n-2), b = T(n-2) + T(n-3)
    t0 = a + b  # T(n)
    s = t0 + a  # T(n) + T(n-1)
    if counter is not None:
        counter.big_adds += 4
    return Mat3((s + c, s, t0,
                 t0, a + c, a,
                 a, b, c))


def _iterate_matrix(seeds: tuple[Mat3, Mat3, Mat3], n: int) -> Mat3:
    # window (M(i), M(i+1), M(i+2)) slid from i = 0
    a, b, c = seeds
    if n >= 0:
        if n == 0:
            return a
        if n == 1:
            return b
        for _ in range(n - 2):
            a, b, c = b, c, a + b + c
        return c
    for _ in range(-n):
        a, b, c = c - b - a, a, b
    return a


def _closed_form(term: Callable[[int], int], n: int) -> Mat3:
    t1, t0 = term(n + 1), term(n)
    tm1, tm2, tm3 = term(n - 1), term(n - 2), term(n - 3)
    return Mat3((t1, t0 + tm1, t0,
                 t0, tm1 + tm2, tm1,
                 tm1, tm2 + tm3, tm2))


def t_matrix(n: int, strategy: MatrixStrategy = MatrixStrategy.CLOSED_FORM,
             cache: TermCache | None = None,
             counter: OpCounter | None = None) -> Mat3:
    """Tribonacci matrix TM(n) for any integer n; all strategies agree.

    ITERATE walks the matrix recurrence from the seeds.  CLOSED_FORM
    fills entries from scalar terms: read from the cache when one is
    passed, else from one call of the O(log |n|) polynomial kernel.
    MAT_POW raises TM(1) to the n-th power by matrix products, or the
    integer inverse TM(-1) to the (-n)-th when n < 0.
    """
    if strategy is MatrixStrategy.ITERATE:
        return _iterate_matrix(T_MAT_SEEDS, n)
    if strategy is MatrixStrategy.CLOSED_FORM:
        if cache is None:
            return _tm_from_kernel(n, counter)
        return _closed_form(lambda i: trib(i, cache), n)
    if strategy is MatrixStrategy.MAT_POW:
        if n < 0:
            return mat_pow(_TM_INVERSE, -n, counter)
        return mat_pow(T_MAT_SEEDS[1], n, counter)
    raise ValueError(f"unsupported strategy for t_matrix: {strategy}")


def k_matrix(n: int, strategy: MatrixStrategy = MatrixStrategy.CLOSED_FORM,
             cache: TermCache | None = None) -> Mat3:
    """Tribonacci-Lucas matrix KM(n) for any integer n; strategies agree.

    FROM_T multiplies KM(0) by TM(n), which lands exactly on KM(n); its
    scalar route runs on Tribonacci terms, so it wants a Tribonacci
    cache (CLOSED_FORM wants a Tribonacci-Lucas one).  CLOSED_FORM with
    no cache is KM(0) times the kernel's TM(n).
    """
    if strategy is MatrixStrategy.ITERATE:
        return _iterate_matrix(K_MAT_SEEDS, n)
    if strategy is MatrixStrategy.CLOSED_FORM:
        if cache is None:
            return mat_mul(K_MAT_SEEDS[0], t_matrix(n))
        return _closed_form(lambda i: lucas_trib(i, cache), n)
    if strategy is MatrixStrategy.FROM_T:
        if cache is not None and cache.kind is not SequenceKind.TRIBONACCI:
            raise ValueError(
                "FROM_T runs on Tribonacci terms; pass a Tribonacci cache "
                "or None")
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

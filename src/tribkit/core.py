"""Exact Tribonacci and Tribonacci-Lucas numbers for all integer indices.

Both sequences obey s(n) = s(n-1) + s(n-2) + s(n-3).  The Tribonacci
seeds are T(0)=0, T(1)=1, T(2)=1 (A000073, shifted) and the
Tribonacci-Lucas seeds are K(0)=3, K(1)=1, K(2)=3 (A001644).  Negative
indices are reached by running the recurrence backwards,
s(n) = s(n+3) - s(n+2) - s(n+1), so every evaluator here accepts any
signed index and all downstream identity checks can sweep signed ranges.

All arithmetic is on Python ints; results are exact at every index.
"""

from __future__ import annotations

import decimal
from enum import Enum

from .counters import OpCounter


class SequenceKind(Enum):
    """The two scalar sequences."""

    TRIBONACCI = "T"
    TRIBONACCI_LUCAS = "K"


SEEDS: dict[SequenceKind, tuple[int, int, int]] = {
    SequenceKind.TRIBONACCI: (0, 1, 1),
    SequenceKind.TRIBONACCI_LUCAS: (3, 1, 3),
}


class TermCache:
    """Growing contiguous window of one sequence's terms.

    The window covers [lo, hi] and only ever extends; a value, once
    stored, is never rewritten.  A cache serves one thread at a time.
    """

    def __init__(self, kind: SequenceKind):
        self.kind = kind
        self._fwd = list(SEEDS[kind])  # values at indices 0, 1, 2, ...
        self._bwd: list[int] = []      # values at indices -1, -2, ...

    @property
    def lo(self) -> int:
        return -len(self._bwd)

    @property
    def hi(self) -> int:
        return len(self._fwd) - 1

    def values(self) -> list[int]:
        """Stored terms for indices lo..hi, in index order."""
        return list(reversed(self._bwd)) + list(self._fwd)

    def get(self, n: int) -> int:
        """Term at index n, extending the window as needed."""
        if n >= 0:
            fwd = self._fwd
            if n < len(fwd):
                return fwd[n]
            while n >= len(fwd):
                fwd.append(fwd[-1] + fwd[-2] + fwd[-3])
            return fwd[n]
        bwd = self._bwd
        if -n <= len(bwd):
            return bwd[-n - 1]
        while -n > len(bwd):
            k = len(bwd) + 1  # next backward index is -k
            bwd.append(self._at(3 - k) - self._at(2 - k) - self._at(1 - k))
        return bwd[-n - 1]

    def _at(self, i: int) -> int:
        return self._fwd[i] if i >= 0 else self._bwd[-i - 1]


# Binet's working precision in bits when none is given; here, not in
# `binet`, so the command line can print it without loading Binet
DEFAULT_PRECISION = 256

# The one context of exact decimal arithmetic: `to_decimal` and the
# decimal route (`matrices.decimal_term`, `series.decimal_sum`) compute
# under it.  It keeps every digit, and a result that would round,
# overflow or be invalid raises instead.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                        Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Overflow,
                               decimal.InvalidOperation])


def to_decimal(value) -> str:
    """Decimal text of an int of any size, of an integral Decimal, or of
    a non-integral Fraction as n/d.

    str() serves ints within the interpreter's int-to-str digit limit,
    and Decimals: the decimal route keeps them at exponent 0, so str()
    is the digits alone, in linear time (never int(), which is
    quadratic).  A zero prints as 0, since a Decimal zero may carry a
    sign, which an int never shows.  Longer ints are rebuilt from binary
    halves as a Decimal under `EXACT`, whose sub-quadratic
    multiplication makes this faster than str() would be, and which
    prints with no limit.  The limit itself is left alone.
    """
    try:
        return str(value) if value else "0"
    except ValueError:
        pass
    if not isinstance(value, int):  # a Fraction: each term past the limit
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    powers: dict[int, decimal.Decimal] = {}

    def build(x: int, bits: int) -> decimal.Decimal:
        if bits <= 4096:  # far below the limit's ~14000 bits
            return decimal.Decimal(x)
        low = bits >> 1
        if low not in powers:
            powers[low] = EXACT.power(2, low)
        high = x >> low
        return EXACT.fma(build(high, bits - low), powers[low],
                         build(x - (high << low), low))

    digits = str(build(abs(value), value.bit_length()))
    return "-" + digits if value < 0 else digits


def walk(seeds, n: int, counter: OpCounter | None = None):
    """s(n), any signed n, from seeds (s(0), s(1), s(2)), ints or matrices.

    Slides the window (s(i), s(i+1), s(i+2)) from i = 0, forwards or
    backwards, at two additions a step, which the counter gets.
    """
    a, b, c = seeds
    if n >= 0:
        steps = max(n - 2, 0)
        for _ in range(steps):
            a, b, c = b, c, a + b + c
        value = (a, b, c)[min(n, 2)]
    else:
        steps = -n
        for _ in range(steps):
            a, b, c = c - b - a, a, b
        value = a
    if counter is not None:
        counter.big_adds += 2 * steps
    return value


def trib(n: int, counter: OpCounter | None = None) -> int:
    """Tribonacci number T(n), exact for any integer n, by `walk`.

    Stateless; `TermCache(TRIBONACCI).get(n)` gives the same term
    memoized across calls.
    """
    return walk(SEEDS[SequenceKind.TRIBONACCI], n, counter)


def lucas_trib(n: int, counter: OpCounter | None = None) -> int:
    """Tribonacci-Lucas number K(n), exact for any integer n."""
    return walk(SEEDS[SequenceKind.TRIBONACCI_LUCAS], n, counter)


_ALT_SEEDS = (0, 1, 1, 2)  # T(0)..T(3)


def trib_alt(n: int) -> int:
    """T(n) via the shift form T(n) = 2*T(n-1) - T(n-4).

    Slides a four-term window from the seeds (backwards via
    T(n) = 2*T(n+3) - T(n+4) for n < 0).  Deliberately independent of
    trib(), so agreement between the two is a meaningful cross-check.
    """
    if 0 <= n <= 3:
        return _ALT_SEEDS[n]
    a, b, c, d = _ALT_SEEDS  # window (T(i), T(i+1), T(i+2), T(i+3)), i = 0
    if n > 3:
        for _ in range(n - 3):
            a, b, c, d = b, c, d, 2 * d - a
        return d
    for _ in range(-n):
        a, b, c, d = 2 * c - d, a, b, c
    return a

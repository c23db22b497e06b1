"""Generating-function coefficient streams and closed-form partial sums.

All four sequences (two scalar, two matrix) are rational series over the
common denominator 1 - x - x**2 - x**3.  Coefficients are extracted by
exact forward substitution, c(i) = num(i) + c(i-1) + c(i-2) + c(i-3),
never by floating division.  Partial sums of strided subsequences have a
closed form whose divisor K(m) - K(-m) always divides exactly; a brute
force summer is kept alongside as the oracle.
"""

from __future__ import annotations

import decimal
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from . import matrices
from .core import SEEDS, SequenceKind, walk
from .errors import DegenerateDenominator, DivisibilityViolation
from .matrices import (KIND_SEEDS, ZERO, Mat3, MatrixKind, _kernel_term,
                       kernel_term, lucas_fast, term_reader)

AnyKind = Union[SequenceKind, MatrixKind]


def gf_numerators(kind: AnyKind):
    """Numerator coefficients (constant, x, x^2) of the rational series.

    Derived from the seeds as (s0, s1 - s0, s2 - s1 - s0); for the
    scalars this lands on (0, 1, 0) a.k.a. x and (3, -2, -1) a.k.a.
    3 - 2x - x^2.
    """
    s0, s1, s2 = KIND_SEEDS[kind][0]
    return (s0, s1 - s0, s2 - s1 - s0)


def gf_stream(kind: AnyKind, count: int, one=1) -> Iterator:
    """First `count` series coefficients of `kind`, one at a time.

    Coefficient i equals term i.  Each comes from the three before it by
    forward substitution, c(i) = num(i) + c(i-1) + c(i-2) + c(i-3) with
    missing terms zero, so the stream holds three coefficients and one
    block of `_BLOCK` entries, never the listing.  The coefficients have
    the type of `one`, the unit: ints, or Mat3s of ints, by default;
    integral Decimals with decimal.Decimal(1), already decimal text, for
    printing (`cli` picks the unit by `matrices.decimal_route`).  Each
    block is added up under `matrices.EXACT`, and the context is left
    before any of it is yielded, so the caller never runs in it.  A
    count below 1 raises here, before anything is drawn.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _expand(gf_numerators(kind), count, one)


# Entries added up per entry into the exact context, and held until the
# last of them is made: 144 scalar coefficients, or 16 matrices.  An
# entry into the context costs about 0.5 us, half a dozen Decimal
# additions; 16 matrices of `gf TM 4000` hold about 0.1 MiB.
_BLOCK = 144


def _expand(numerator: tuple, count: int, one) -> Iterator:
    # c(i-1), c(i-2), c(i-3), starting as zeros of the unit's type; the
    # int numerators then add into that type
    zero = one - one
    if isinstance(numerator[0], Mat3):
        c1, size = Mat3((zero,) * 9), _BLOCK // 9
    else:
        c1, size = zero, _BLOCK
    c2 = c3 = c1
    for start in range(0, count, size):
        block = []
        with decimal.localcontext(matrices.EXACT):
            for i in range(start, min(start + size, count)):
                c = c1 + c2 + c3
                if i < len(numerator):
                    c = numerator[i] + c
                block.append(c)
                c1, c2, c3 = c, c1, c2
        yield from block


def gf_coeffs(kind: SequenceKind, count: int) -> list[int]:
    """First `count` series coefficients; coefficient i equals term i."""
    return list(gf_stream(kind, count))


def gf_matrix_coeffs(kind: MatrixKind, count: int) -> list[Mat3]:
    """First `count` matrix series coefficients, expanded entrywise."""
    return list(gf_stream(kind, count))


@dataclass(frozen=True)
class SumSpec:
    """A strided partial sum: n terms of the subsequence at m*i + j.

    The closed form is stated for m > j >= 0 and n >= 1; anything else
    is rejected rather than extrapolated.
    """

    kind: AnyKind
    m: int
    j: int
    n: int

    def __post_init__(self):
        if not self.m > self.j >= 0:
            raise ValueError(
                f"summation requires m > j >= 0, got m={self.m}, j={self.j}")
        if self.n < 1:
            raise ValueError(f"summation requires n >= 1, got n={self.n}")

    @property
    def top(self) -> int:
        """m*n + j, the index at which the closed form reads u, and at
        which `matrices.decimal_route` chooses the sum's route."""
        return self.m * self.n + self.j


def partial_sum(spec: SumSpec, one=1):
    """Closed-form value of the sum described by `spec`.

    The sum is (u(m*n + j) - u(j)) / (K(m) - K(-m)) with
    u(i) = s(i + m) + s(i - m) + (1 - K(m))*s(i), s the terms of
    `spec.kind`.  u obeys the recurrence of s, so u(m*n + j) is one
    kernel read-out from u's own seeds (`_u_seeds`) at the top index,
    with a unit of `one` (`decimal_sum`), and memory follows the answer,
    not the top index.  The divisor is read by `lucas_fast`.  The
    division is exact by theorem: a remainder raises
    DivisibilityViolation (a bug, not bad input), and a zero divisor,
    impossible for m >= 1, raises DegenerateDenominator.  A Decimal
    unit computes under `matrices.EXACT`, whatever the caller's context,
    which is left as it was; an int unit enters no context.
    """
    if isinstance(one, decimal.Decimal):
        with decimal.localcontext(matrices.EXACT):
            return _partial_sum(spec, one)
    return _partial_sum(spec, one)


def _partial_sum(spec: SumSpec, one):
    """`partial_sum` in the current context; the top read-out takes the
    unit there, so a Decimal one enters `EXACT` once, in `partial_sum`."""
    m, j, n = spec.m, spec.j, spec.n
    k_m = lucas_fast(m)
    divisor = k_m - lucas_fast(-m)
    if divisor == 0:
        raise DegenerateDenominator(f"K({m}) - K({-m}) = 0")
    u = _u_seeds(KIND_SEEDS[spec.kind][0], m, 1 - k_m)
    numerator = _kernel_term(u, spec.top, None, one) - kernel_term(u, j)
    if isinstance(numerator, Mat3):
        return numerator.div_exact(divisor)
    q, r = divmod(numerator, divisor)
    if r:
        raise DivisibilityViolation(
            f"{divisor} does not divide closed-form numerator for {spec}")
    return q


def _u_seeds(seeds, m: int, w: int):
    """(u(0), u(1), u(2)) for u(i) = s(i + m) + s(i - m) + w*s(i), s the
    sequence of `seeds`, ints or matrices."""
    return tuple(kernel_term(seeds, i + m) + kernel_term(seeds, i - m)
                 + w * seeds[i] for i in range(3))


def decimal_sum(spec: SumSpec):
    """`partial_sum` on the decimal route: an integral Decimal, or a Mat3
    of them, computed under `matrices.EXACT`, for printing only."""
    return partial_sum(spec, one=decimal.Decimal(1))


class _SlidingWindow:
    """A scalar term cache that keeps only the five latest terms.

    Any k >= -3; a get may fall at most four below the highest index got
    so far, which covers the rising indices of a strided sum, each laid
    out by `_closed_form` from k - 3 .. k + 1.
    """

    def __init__(self, kind: SequenceKind):
        self.kind = kind
        self._window = deque((walk(SEEDS[kind], k) for k in range(-3, 2)),
                             maxlen=5)
        self._lo = -3  # index of _window[0]

    def get(self, k: int) -> int:
        window = self._window
        while k > self._lo + 4:
            window.append(window[-1] + window[-2] + window[-3])
            self._lo += 1
        return window[k - self._lo]


def partial_sum_bruteforce(spec: SumSpec):
    """Direct n-term summation; the oracle the closed form is tested against.

    A window of scalar terms slides up to the top index m*(n-1) + j, so
    memory stays of the order of the answer.
    """
    term = term_reader(spec.kind, _SlidingWindow(KIND_SEEDS[spec.kind][1]))
    return running_bruteforce(spec.kind, term)(spec.m, spec.j, spec.n)


def running_bruteforce(kind: AnyKind, term: Callable):
    """(m, j, n) -> the direct sum of `kind` at m*i + j for 0 <= i < n,
    each term read by `term` (n -> the term of `kind`).

    The package's one summation loop.  Called at the (m, j) of the call
    before it and an n no smaller, it adds only the terms from there;
    any other call sums from i = 0 in the same loop.  So a sweep up the
    n axis costs O(n) terms instead of O(n^2), and stays plain
    summation.  The latest ((m, j), n, total) is stored as one tuple,
    so a shared instance always reads a matching triple.
    """
    zero = ZERO if isinstance(kind, MatrixKind) else 0
    latest = (None, 0, zero)

    def total(m: int, j: int, n: int):
        nonlocal latest
        key, done, value = latest
        if key != (m, j) or done > n:
            SumSpec(kind, m, j, n)  # rejects indices off the stated domain
            done, value = 0, zero
        for i in range(done, n):
            value = value + term(m * i + j)
        latest = ((m, j), n, value)
        return value
    return total

"""Generating-function coefficient streams and closed-form partial sums.

All four sequences (two scalar, two matrix) are rational series over the
common denominator 1 - x - x**2 - x**3.  Coefficients are extracted by
exact forward substitution, c(i) = num(i) + c(i-1) + c(i-2) + c(i-3),
never by floating division.  Partial sums of strided subsequences have a
closed form whose divisor K(m) - K(-m) always divides exactly; a brute
force summer is kept alongside as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import SEEDS, SequenceKind, TermCache, lucas_trib
from .errors import DegenerateDenominator, DivisibilityViolation
from .matrices import (K_MAT_SEEDS, T_MAT_SEEDS, ZERO, Mat3, MatrixKind,
                       k_matrix, lucas_fast, t_matrix, trib_fast)

AnyKind = Union[SequenceKind, MatrixKind]

# 1 - x - x^2 - x^3, constant term first
DENOMINATOR = (1, -1, -1, -1)

_MATRIX_SCALAR_KIND = {
    MatrixKind.TRIB_MATRIX: SequenceKind.TRIBONACCI,
    MatrixKind.LUCAS_MATRIX: SequenceKind.TRIBONACCI_LUCAS,
}


@dataclass(frozen=True)
class PolyRational:
    """A series numerator over the fixed cubic denominator.

    `numerator` holds the (constant, x, x^2) coefficients -- ints for the
    scalar series, Mat3 for the matrix series.  The denominator is
    locked to 1 - x - x^2 - x^3; its leading 1 is what makes forward
    substitution well-defined.  General rational-function algebra is out
    of scope.
    """

    numerator: tuple
    denominator: tuple[int, ...] = DENOMINATOR

    def __post_init__(self):
        if self.denominator != DENOMINATOR:
            raise ValueError(
                "only the fixed denominator 1 - x - x^2 - x^3 is supported")

    def coefficients(self, count: int) -> list:
        """First `count` series coefficients by forward substitution.

        c(i) = num(i) + c(i-1) + c(i-2) + c(i-3), missing terms zero.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        numerator = self.numerator
        zero = numerator[0] - numerator[0]  # typed zero (int or Mat3)
        out = []
        for i in range(count):
            c = numerator[i] if i < len(numerator) else zero
            if i >= 1:
                c = c + out[i - 1]
            if i >= 2:
                c = c + out[i - 2]
            if i >= 3:
                c = c + out[i - 3]
            out.append(c)
        return out


def gf_numerators(kind: AnyKind):
    """Numerator coefficients (constant, x, x^2) of the rational series.

    Derived from the seeds as (s0, s1 - s0, s2 - s1 - s0); for the
    scalars this lands on (0, 1, 0) a.k.a. x and (3, -2, -1) a.k.a.
    3 - 2x - x^2.
    """
    if isinstance(kind, SequenceKind):
        s0, s1, s2 = SEEDS[kind]
    elif kind is MatrixKind.TRIB_MATRIX:
        s0, s1, s2 = T_MAT_SEEDS
    else:
        s0, s1, s2 = K_MAT_SEEDS
    return (s0, s1 - s0, s2 - s1 - s0)


def gf_rational(kind: AnyKind) -> PolyRational:
    """The generating function of `kind` as a PolyRational."""
    return PolyRational(gf_numerators(kind))


def gf_coeffs(kind: SequenceKind, count: int) -> list[int]:
    """First `count` series coefficients; coefficient i equals term i."""
    return gf_rational(kind).coefficients(count)


def gf_matrix_coeffs(kind: MatrixKind, count: int) -> list[Mat3]:
    """First `count` matrix series coefficients, expanded entrywise."""
    return gf_rational(kind).coefficients(count)


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


def _term_fn(kind: AnyKind, cache: TermCache | None):
    scalar_kind = kind if isinstance(kind, SequenceKind) \
        else _MATRIX_SCALAR_KIND[kind]
    if cache is None:
        cache = TermCache(scalar_kind)
    elif cache.kind is not scalar_kind:
        raise ValueError("cache holds the wrong sequence for this kind")
    if isinstance(kind, SequenceKind):
        return cache.get
    if kind is MatrixKind.TRIB_MATRIX:
        return lambda i: t_matrix(i, cache=cache)
    return lambda i: k_matrix(i, cache=cache)


def _kernel_term_fn(kind: AnyKind):
    # each term on its own in O(log |i|) products: no window up to i
    return {SequenceKind.TRIBONACCI: trib_fast,
            SequenceKind.TRIBONACCI_LUCAS: lucas_fast,
            MatrixKind.TRIB_MATRIX: t_matrix,
            MatrixKind.LUCAS_MATRIX: k_matrix}[kind]


def partial_sum(spec: SumSpec, cache: TermCache | None = None):
    """Closed-form value of the sum described by `spec`.

    Assembles six boundary terms and divides by K(m) - K(-m).  The
    terms are read from `cache` when one is passed, else each comes
    from the log-time kernel, so memory stays proportional to the
    answer rather than to the top index m*n + j.  The
    division is exact by theorem; a remainder raises
    DivisibilityViolation (a bug, not bad input), and a vanishing
    divisor raises DegenerateDenominator (provably impossible for
    m >= 1, guarded anyway).
    """
    m, j, n = spec.m, spec.j, spec.n
    k_m = lucas_trib(m)
    divisor = k_m - lucas_trib(-m)
    if divisor == 0:
        raise DegenerateDenominator(f"K({m}) - K({-m}) = 0")
    term = (_kernel_term_fn(spec.kind) if cache is None
            else _term_fn(spec.kind, cache))
    w = 1 - k_m
    top = m * n + j
    numerator = (term(top + m) + term(top - m) + w * term(top)
                 - term(m + j) - term(j - m) - w * term(j))
    if isinstance(numerator, Mat3):
        return numerator.div_exact(divisor)
    q, r = divmod(numerator, divisor)
    if r:
        raise DivisibilityViolation(
            f"{divisor} does not divide closed-form numerator for {spec}")
    return q


def partial_sum_bruteforce(spec: SumSpec, cache: TermCache | None = None):
    """Direct n-term summation; the oracle the closed form is tested against."""
    term = _term_fn(spec.kind, cache)
    total = ZERO if isinstance(spec.kind, MatrixKind) else 0
    for i in range(spec.n):
        total = total + term(spec.m * i + spec.j)
    return total

"""High-precision Binet evaluation with exact integer recovery.

The characteristic cubic x**3 - x**2 - x - 1 has one real root
alpha ~ 1.8392867552 and a conjugate pair beta, gamma with
|beta| = alpha**-0.5.  Weighted powers of the three roots reproduce the
scalar sequences, and fixed complex matrices A1..C2 weighted the same
way reproduce the matrix sequences.  This module evaluates those forms
in mpmath arbitrary-precision arithmetic and rounds back to exact
integers under a strict 0.25 tolerance: a real part further than 0.25
from an integer (or an imaginary part above 0.25) raises
PrecisionExhausted instead of rounding silently.

Error growth: with p requested bits (plus guard bits for the arithmetic
itself) the dominant power term scales like alpha**n for n >= 0 and
roughly alpha**(|n|/2) for n < 0 (the conjugate pair dominates there).
Once a result's magnitude reaches 2**(p-2) its quarter-integer
neighborhood is no longer representable, so recovery is rejected on
magnitude at that point; measured, that makes the safe range
n <~ (p - 2) / log2(alpha), about 288 at the default 256 bits, and about
twice that magnitude for negative n.  Both rejection paths (magnitude
and the 0.25 window) raise PrecisionExhausted; no range is hard-coded.

Root powers: `_power` raises a root to any signed n by binary powering
at the working precision, about log2|n| squarings, and a negative n
takes one reciprocal.  mpmath's own `**` on a complex root switches to
exp(n*log(z)) once n times its bits reaches 10 000, which pays for a
log, an atan, an exp and an AGM at full precision.  Each rounded
product adds a relative error of one unit, and the squarings after it
scale that by at most |n|, so the chain loses about log2|n| + 1 bits,
which the guard bits cover across the safe range.  gamma is the
conjugate of beta, so the gamma term is the conjugate of the beta term
and costs no power of its own.

Loading: `tribkit` registers this module as a lazy one, so it runs on
the first read of one of its names, not at import; the CLI reads it
only for a Binet run.  mpmath, about a fifth of a process's startup,
which the exact routes never use (BENCH_startup.json), is imported
with it, so it is loaded by that first read too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .core import DEFAULT_PRECISION
from .counters import OpCounter
from .errors import PrecisionExhausted
from .matrices import (K_MAT_SEEDS, T_MAT_SEEDS, Mat3, MatrixKind,
                       binary_power)

_GUARD_BITS = 32
_ROUND_TOL = 0.25

@dataclass(frozen=True)
class RootTriple:
    """Roots of the characteristic cubic: real alpha, conjugates beta/gamma."""

    alpha: mpc
    beta: mpc
    gamma: mpc
    precision: int


@dataclass(frozen=True)
class BinetConstants:
    """The six fixed complex matrices weighting the root powers."""

    a1: mp.matrix
    b1: mp.matrix
    c1: mp.matrix
    a2: mp.matrix
    b2: mp.matrix
    c2: mp.matrix
    precision: int


def _require_precision(precision: int) -> None:
    if precision < 64:
        raise ValueError(f"precision must be at least 64 bits, got {precision}")


def _given(name: str, given, precision: int, compute):
    """`given` roots or constants, else `compute(precision)`; given ones at
    fewer bits are refused, as their error would round to a wrong int."""
    if given is None:
        return compute(precision)
    if given.precision < precision:
        raise ValueError(
            f"{name} computed at {given.precision} bits cannot give "
            f"{precision}-bit results; pass {name} computed at "
            f"{precision} bits or more, or none")
    return given


def compute_roots(precision: int = DEFAULT_PRECISION) -> RootTriple:
    """Newton's method for alpha, then quadratic deflation for beta, gamma.

    Newton doubles the correct bits each step, so the steps run at
    doubling precisions, from 64 bits, where it iterates to convergence,
    up to half the working precision; one final step runs at the full
    working precision.  beta + gamma = 1 - alpha and beta * gamma =
    1/alpha follow from the symmetric functions of the roots, so the
    conjugate pair costs one square root.  beta is the root with
    positive imaginary part.
    """
    _require_precision(precision)
    working = precision + _GUARD_BITS
    ladder = []  # precisions of the doubling steps, highest first
    bits = working
    while bits > 128:
        bits = bits // 2 + 8  # a few bits over half, for the step's loss
        ladder.append(bits)

    def newton_step(x):
        return (x**3 - x**2 - x - 1) / (3 * x**2 - 2 * x - 1)

    with mp.workprec(64):
        x = mpf(2)
        for _ in range(64):  # quadratic convergence; 64 is far more than enough
            step = newton_step(x)
            x -= step
            if abs(step) < mpf(2) ** -60:
                break
    for bits in reversed(ladder):
        with mp.workprec(bits):
            x -= newton_step(x)
    with mp.workprec(working):
        alpha = x - newton_step(x)
        half_sum = (1 - alpha) / 2
        half_imag = mp.sqrt(4 / alpha - (1 - alpha) ** 2) / 2
        return RootTriple(alpha=mpc(alpha),
                          beta=mpc(half_sum, half_imag),
                          gamma=mpc(half_sum, -half_imag),
                          precision=precision)


def radical_roots(precision: int = DEFAULT_PRECISION) -> RootTriple:
    """The roots from their nested-radical closed forms.

    Built from cbrt(19 +/- 3*sqrt(33)) combined with the primitive cube
    root of unity.  Kept separate from compute_roots so the two
    constructions can be compared as a cross-check.
    """
    _require_precision(precision)
    with mp.workprec(precision + _GUARD_BITS):
        omega = mp.expjpi(mpf(2) / 3)  # exp(2*pi*i/3)
        c_plus = mp.cbrt(19 + 3 * mp.sqrt(mpf(33)))
        c_minus = mp.cbrt(19 - 3 * mp.sqrt(mpf(33)))
        alpha = (1 + c_plus + c_minus) / 3
        beta = (1 + omega * c_plus + omega**2 * c_minus) / 3
        gamma = (1 + omega**2 * c_plus + omega * c_minus) / 3
        return RootTriple(mpc(alpha), beta, gamma, precision)


def _round_to_int(z, terms, context: str, precision: int) -> int:
    """`z`, a sum of `terms` or an entry of their sum, as an exact int."""
    real, imag = z.real, z.imag
    # A float of magnitude >= 2**(p-2) cannot resolve quarter-integers at
    # all: it is integral at ulp granularity and would "round cleanly" to
    # a wrong value.  Reject on magnitude before trusting the window test.
    magnitude = mp.mag(real)
    if magnitude > precision - 2:
        # terms that cancel in z hide their size from it: name their bits
        bound = sum(mp.norm(t, mp.inf) for t in terms)  # over every entry
        bits = int(max(magnitude, mp.mag(bound))) + 2
        raise PrecisionExhausted(
            f"{context}: magnitude 2^{int(magnitude)} exceeds what "
            f"{precision} bits resolve to +/-{_ROUND_TOL}; raise the "
            f"working precision to {bits} bits (--precision {bits})")
    nearest = mp.nint(real)
    if abs(imag) > _ROUND_TOL or abs(real - nearest) > _ROUND_TOL:
        raise PrecisionExhausted(
            f"{context}: {mp.nstr(z, 12)} is not within {_ROUND_TOL} of an "
            "integer; raise the working precision")
    return int(nearest)


def _power(z, n: int, counter: OpCounter | None = None):
    """z**n at the working precision, any signed n, by `binary_power`;
    n < 0 takes one reciprocal of z**-n.

    The counter gets one mat_muls and one big_muls for each product of
    the chain, the reciprocal included; a complex product counts as one.
    """
    acc = binary_power(z, abs(n), operator.mul, z ** 0)
    if n < 0:
        acc = 1 / acc
    if counter is not None:
        bits = bin(abs(n))[3:]  # bits below the most significant one
        products = len(bits) + bits.count("1") + (n < 0)
        counter.mat_muls += products
        counter.big_muls += products
    return acc


def binet_trib(n: int, precision: int = DEFAULT_PRECISION,
               roots: RootTriple | None = None,
               counter: OpCounter | None = None) -> int:
    """T(n) from the three-root power form, rounded to an exact int.

    The counter gets the products of `_power`, and the two weights
    (two differences and a product each), the two divisions by them and
    the sum of the three terms.
    """
    r = _given("roots", roots, precision, compute_roots)
    with mp.workprec(precision + _GUARD_BITS):
        a, b, g = r.alpha, r.beta, r.gamma
        real = _power(a.real, n + 1, counter) / ((a - b) * (a - g))
        pair = _power(b, n + 1, counter) / ((b - a) * (b - g))
        if counter is not None:
            counter.big_adds += 6
            counter.big_muls += 4
        terms = (real, pair, pair.conjugate())
        return _round_to_int(sum(terms), terms, f"binet_trib({n})", precision)


def binet_lucas(n: int, precision: int = DEFAULT_PRECISION,
                roots: RootTriple | None = None,
                counter: OpCounter | None = None) -> int:
    """K(n) as the plain power sum alpha**n + beta**n + gamma**n.

    The counter gets the products of `_power` and the two additions.
    """
    r = _given("roots", roots, precision, compute_roots)
    with mp.workprec(precision + _GUARD_BITS):
        pair = _power(r.beta, n, counter)
        terms = (_power(r.alpha.real, n, counter), pair, pair.conjugate())
        if counter is not None:
            counter.big_adds += 2
        return _round_to_int(sum(terms), terms, f"binet_lucas({n})", precision)


def binet_constants(precision: int = DEFAULT_PRECISION,
                    roots: RootTriple | None = None) -> BinetConstants:
    """Solve the order-3 power form against the seed matrices.

    Each constant is (x*M2 + x*(x-1)*M1 + M0) / (x*(x-y)*(x-z)) with x
    running over the roots and (M0, M1, M2) the seed matrices of its
    family.  The six results satisfy A1+B1+C1 = I and A2+B2+C2 = KM(0)
    up to working precision.
    """
    r = _given("roots", roots, precision, compute_roots)
    with mp.workprec(precision + _GUARD_BITS):
        def constant(x, y, z, seeds):
            m0, m1, m2 = (mp.matrix(s.rows()) for s in seeds)
            return (x * m2 + x * (x - 1) * m1 + m0) / (x * (x - y) * (x - z))

        a, b, g = r.alpha, r.beta, r.gamma
        return BinetConstants(
            a1=constant(a, b, g, T_MAT_SEEDS),
            b1=constant(b, a, g, T_MAT_SEEDS),
            c1=constant(g, a, b, T_MAT_SEEDS),
            a2=constant(a, b, g, K_MAT_SEEDS),
            b2=constant(b, a, g, K_MAT_SEEDS),
            c2=constant(g, a, b, K_MAT_SEEDS),
            precision=precision,
        )


def binet_matrix(kind: MatrixKind, n: int,
                 precision: int = DEFAULT_PRECISION,
                 roots: RootTriple | None = None,
                 constants: BinetConstants | None = None) -> Mat3:
    """TM(n) or KM(n) from the matrix power form, rounded entrywise."""
    if not isinstance(kind, MatrixKind):
        raise ValueError(f"binet_matrix takes TM or KM, not {kind}")
    r = _given("roots", roots, precision, compute_roots)
    c = _given("constants", constants, precision,
               lambda bits: binet_constants(bits, r))
    if kind is MatrixKind.TRIB_MATRIX:
        weights = (c.a1, c.b1, c.c1)
    else:
        weights = (c.a2, c.b2, c.c2)
    with mp.workprec(precision + _GUARD_BITS):
        beta_power = _power(r.beta, n)
        powers = (_power(r.alpha.real, n), beta_power, beta_power.conjugate())
        terms = [x * w for x, w in zip(powers, weights)]
        context = f"binet_matrix({kind.value}, {n})"
        # mp.matrix iterates row by row, as Mat3 lays its entries out
        return Mat3(tuple(_round_to_int(x, terms, context, precision)
                          for x in terms[0] + terms[1] + terms[2]))


@dataclass(frozen=True)
class AlgebraCheck:
    """One product's max entrywise deviation from its exact value."""

    label: str
    deviation: float


@dataclass(frozen=True)
class ConstantAlgebraReport:
    precision: int
    epsilon: float
    checks: tuple[AlgebraCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.deviation < self.epsilon for c in self.checks)

    def worst(self) -> AlgebraCheck:
        return max(self.checks, key=lambda c: c.deviation)


def check_constant_algebra(precision: int = DEFAULT_PRECISION,
                           epsilon: float = 1e-50,
                           constants: BinetConstants | None = None,
                           ) -> ConstantAlgebraReport:
    """Check that A1, B1, C1 are idempotent and all cross-products vanish.

    Runs the nine products within {A1, B1, C1} (squares against
    idempotence, the six mixed products against zero) plus the six mixed
    products within {A2, B2, C2}, reporting each max entrywise deviation.
    Failures become report rows; constants held at fewer bits raise.
    """
    c = _given("constants", constants, precision, binet_constants)
    with mp.workprec(precision + _GUARD_BITS):
        family1 = {"A1": c.a1, "B1": c.b1, "C1": c.c1}
        family2 = {"A2": c.a2, "B2": c.b2, "C2": c.c2}
        checks = []
        for name, m in family1.items():
            dev = mp.norm(m * m - m, mp.inf)  # max entrywise deviation
            checks.append(AlgebraCheck(f"{name}^2 - {name}", float(dev)))
        for family in (family1, family2):
            for x, mx in family.items():
                for y, my in family.items():
                    if x == y:
                        continue
                    dev = mp.norm(mx * my, mp.inf)
                    checks.append(AlgebraCheck(f"{x}*{y}", float(dev)))
        return ConstantAlgebraReport(precision, epsilon, tuple(checks))

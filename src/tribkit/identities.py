"""Registry of machine-checkable identities and the grid verifier.

Every identity relating T, K, TM and KM that is not already embodied by
an operation elsewhere (Binet evaluation, generating functions, the
summation closed form) lives here as an IdentityRecord: a stable id, the
formula itself as the anchor, a declared index domain, and an evaluator
returning the two sides.  Verification sweeps a profile-sized grid and
demands exact equality at every point -- integer identities get no
tolerance.

Identities that chain three expressions (X = Y = Z) evaluate both sides
as tuples compared slotwise, so a failure in either leg surfaces.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .core import SequenceKind, TermCache
from .errors import UnknownIdentity
from .matrices import (KIND_SEEDS, K_MAT_SEEDS, T_MAT_SEEDS, Mat3, MatrixKind,
                       decimal_form, mat_mul, mat_pow, term_reader)
from .series import SumSpec, partial_sum, running_bruteforce


class Arity(Enum):
    N = "n"        # one index
    MN = "m,n"     # two independent indices
    MNR = "multi"  # indices tied by a constraint (n >= r, or m > j >= 0)


class Profile(Enum):
    QUICK = "quick"
    STANDARD = "standard"
    DEEP = "deep"


@dataclass(frozen=True)
class GridBounds:
    """Index caps for one verification sweep."""

    signed: int  # single-index identities sweep n in [-signed, signed]
    pair: int    # multi-index identities sweep indices in [0, pair]


PROFILE_BOUNDS: dict[Profile, GridBounds] = {
    Profile.QUICK: GridBounds(signed=10, pair=10),
    Profile.STANDARD: GridBounds(signed=40, pair=30),
    Profile.DEEP: GridBounds(signed=100, pair=60),
}


@dataclass(frozen=True)
class IdentityRecord:
    """One verifiable identity.

    `anchor` is the formula in plain notation; `evaluate` maps an index
    tuple to (left, right), both the same kind of value (int, Mat3, or a
    tuple of those for chained equalities).
    """

    id: str
    anchor: str
    arity: Arity
    domain: str
    evaluate: Callable[..., tuple]
    grid: Callable[[GridBounds], Iterator[tuple[int, ...]]]
    describe: Callable[[GridBounds], str]
    note: str | None = None


@dataclass(frozen=True)
class Failure:
    indices: tuple[int, ...]
    left: object
    right: object


@dataclass(frozen=True)
class VerifyReport:
    identity_id: str
    anchor: str
    bounds: str
    cases: int
    failures: tuple[Failure, ...]
    elapsed_s: float
    note: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


# grid shapes --------------------------------------------------------------

def _signed(bounds: GridBounds):
    return ((n,) for n in range(-bounds.signed, bounds.signed + 1))


def _signed_desc(bounds: GridBounds) -> str:
    return f"n in [{-bounds.signed}, {bounds.signed}]"


def _nonneg(bounds: GridBounds):
    return ((n,) for n in range(bounds.signed + 1))


def _nonneg_desc(bounds: GridBounds) -> str:
    return f"n in [0, {bounds.signed}]"


def _pair(bounds: GridBounds):
    hi = bounds.pair + 1
    return ((m, n) for m in range(hi) for n in range(hi))


def _pair_desc(bounds: GridBounds) -> str:
    return f"(m, n) in [0, {bounds.pair}]^2"


def _nr(bounds: GridBounds):
    return ((n, r) for n in range(bounds.pair + 1) for r in range(n + 1))


def _nr_desc(bounds: GridBounds) -> str:
    return f"(n, r) with 0 <= r <= n <= {bounds.pair}"


def _sum_grid(bounds: GridBounds):
    m_hi = min(10, bounds.pair)
    return ((m, j, n)
            for m in range(1, m_hi + 1)
            for j in range(m)
            for n in range(1, bounds.pair + 1))


def _sum_desc(bounds: GridBounds) -> str:
    m_hi = min(10, bounds.pair)
    return f"(m, j, n) with 1 <= m <= {m_hi}, 0 <= j < m, 1 <= n <= {bounds.pair}"


# registry -----------------------------------------------------------------

def registry() -> list[IdentityRecord]:
    """The full static registry; ids are stable and unique.

    Each call builds fresh evaluators over private term caches, so
    returned registries are independent of each other and safe to use
    concurrently.  A registry reads each kind through one memoised
    reader, both sides of the sum records too, so each TM(n) and KM(n)
    is built once; the direct sums keep a running total
    (`series.running_bruteforce`), one term per step up the n axis.
    """
    caches = {kind: TermCache(kind) for kind in SequenceKind}
    readers = {kind: functools.cache(term_reader(kind, caches[scalar]))
               for kind, (_, scalar) in KIND_SEEDS.items()}
    t = readers[SequenceKind.TRIBONACCI]
    k = readers[SequenceKind.TRIBONACCI_LUCAS]
    tm = readers[MatrixKind.TRIB_MATRIX]
    km = readers[MatrixKind.LUCAS_MATRIX]

    ident, tm1, tm2 = T_MAT_SEEDS
    km0 = K_MAT_SEEDS[0]

    def conv_lhs(m: int, n: int) -> int:
        return k(m) * k(n + 1) + k(n) * (k(m - 1) + k(m - 2)) + k(m - 1) * k(n - 1)

    def km_product(s: int) -> Mat3:
        return (9 * tm(s + 2) - 12 * tm(s + 1) - 2 * tm(s)
                + 4 * tm(s - 1) + tm(s - 2))

    def sum_record(id: str, kind) -> IdentityRecord:
        term = readers[kind]
        oracle = running_bruteforce(kind, term)

        def evaluate(m, j, n):
            return partial_sum(SumSpec(kind, m, j, n), term), oracle(m, j, n)
        return IdentityRecord(
            id=id, anchor="sum_{i=0}^{n-1} " f"{kind.value}(m*i+j) equals "
                          "its closed form over K(m) - K(-m)",
            arity=Arity.MNR, domain="m > j >= 0, n >= 1", evaluate=evaluate,
            grid=_sum_grid, describe=_sum_desc)

    n_all = dict(arity=Arity.N, domain="all integers n",
                 grid=_signed, describe=_signed_desc)
    n_nonneg = dict(arity=Arity.N, domain="n >= 0",
                    grid=_nonneg, describe=_nonneg_desc)
    mn = dict(arity=Arity.MN, domain="m, n >= 0",
              grid=_pair, describe=_pair_desc)
    nr = dict(arity=Arity.MNR, domain="n >= r >= 0",
              grid=_nr, describe=_nr_desc)

    return [
        IdentityRecord(id="EQ3", anchor="T(n) = 2*T(n-1) - T(n-4)",
            evaluate=lambda n: (t(n), 2 * t(n - 1) - t(n - 4)), **n_all),
        IdentityRecord(id="TNEG", anchor="T(-n) = T(n-1)^2 - T(n-2)*T(n)",
            evaluate=lambda n: (t(-n), t(n - 1) ** 2 - t(n - 2) * t(n)),
            **n_nonneg),
        IdentityRecord(id="EQ4", anchor="K(n) = 3*T(n+1) - 2*T(n) - T(n-1)",
            evaluate=lambda n: (k(n), 3 * t(n + 1) - 2 * t(n) - t(n - 1)),
            **n_all),
        IdentityRecord(id="EQ5", anchor="K(n) = T(n) + 2*T(n-1) + 3*T(n-2)",
            evaluate=lambda n: (k(n), t(n) + 2 * t(n - 1) + 3 * t(n - 2)),
            **n_all),
        IdentityRecord(id="EQ6", anchor="K(n) = 4*T(n+1) - T(n) - T(n+2)",
            evaluate=lambda n: (k(n), 4 * t(n + 1) - t(n) - t(n + 2)),
            **n_all),
        IdentityRecord(id="THM15a", anchor=
            "KM(n) = 3*TM(n+1) - 2*TM(n) - TM(n-1)",
            evaluate=lambda n: (km(n), 3 * tm(n + 1) - 2 * tm(n) - tm(n - 1)),
            **n_all),
        IdentityRecord(id="THM15b", anchor=
            "KM(n) = TM(n) + 2*TM(n-1) + 3*TM(n-2)",
            evaluate=lambda n: (km(n), tm(n) + 2 * tm(n - 1) + 3 * tm(n - 2)),
            **n_all),
        IdentityRecord(id="THM15c", anchor=
            "KM(n) = 4*TM(n+1) - TM(n) - TM(n+2)",
            evaluate=lambda n: (km(n), 4 * tm(n + 1) - tm(n) - tm(n + 2)),
            note="items (c) and (d) of this identity group are the same "
                 "formula with terms reordered; registered once",
            **n_all),
        IdentityRecord(id="THM15e", anchor=
            "22*TM(n) = 5*KM(n+2) - 3*KM(n+1) - 4*KM(n)",
            evaluate=lambda n: (22 * tm(n),
                                5 * km(n + 2) - 3 * km(n + 1) - 4 * km(n)),
            **n_all),
        IdentityRecord(id="LEM16a", anchor="KM(0)*TM(n) = TM(n)*KM(0) = KM(n)",
            evaluate=lambda n: ((mat_mul(km0, tm(n)), mat_mul(tm(n), km0)),
                                (km(n), km(n))),
            **n_nonneg),
        IdentityRecord(id="LEM16b", anchor="TM(0)*KM(n) = KM(n)*TM(0) = KM(n)",
            evaluate=lambda n: ((mat_mul(ident, km(n)), mat_mul(km(n), ident)),
                                (km(n), km(n))),
            **n_nonneg),
        IdentityRecord(id="COR17a", anchor=
            "22*T(n) = K(n) + 5*K(n-1) + 2*K(n+1)",
            evaluate=lambda n: (22 * t(n), k(n) + 5 * k(n - 1) + 2 * k(n + 1)),
            **n_all),
        IdentityRecord(id="COR17b", anchor=
            "22*TM(n) = KM(n) + 5*KM(n-1) + 2*KM(n+1)",
            evaluate=lambda n: (22 * tm(n),
                                km(n) + 5 * km(n - 1) + 2 * km(n + 1)),
            **n_all),
        IdentityRecord(id="THM18a", anchor=
            "TM(m)*TM(n) = TM(m+n) = TM(n)*TM(m)",
            evaluate=lambda m, n: ((mat_mul(tm(m), tm(n)), mat_mul(tm(n), tm(m))),
                                   (tm(m + n), tm(m + n))),
            **mn),
        IdentityRecord(id="THM18b", anchor=
            "TM(m)*KM(n) = KM(n)*TM(m) = KM(m+n)",
            evaluate=lambda m, n: ((mat_mul(tm(m), km(n)), mat_mul(km(n), tm(m))),
                                   (km(m + n), km(m + n))),
            **mn),
        IdentityRecord(id="THM18c", anchor=
            "KM(m)*KM(n) = KM(n)*KM(m) = 9*TM(m+n+2) - 12*TM(m+n+1) "
            "- 2*TM(m+n) + 4*TM(m+n-1) + TM(m+n-2)",
            evaluate=lambda m, n: (
                (mat_mul(km(m), km(n)), mat_mul(km(n), km(m))),
                (km_product(m + n), km_product(m + n))),
            **mn),
        IdentityRecord(id="THM18d", anchor=
            "KM(m)*KM(n) = TM(m+n) + 4*TM(m+n-1) + 10*TM(m+n-2) "
            "+ 12*TM(m+n-3) + 9*TM(m+n-4)",
            evaluate=lambda m, n: (
                mat_mul(km(m), km(n)),
                tm(m + n) + 4 * tm(m + n - 1) + 10 * tm(m + n - 2)
                + 12 * tm(m + n - 3) + 9 * tm(m + n - 4)),
            **mn),
        IdentityRecord(id="THM18e", anchor=
            "KM(m)*KM(n) = TM(m+n) - 8*TM(m+n+1) + 18*TM(m+n+2) "
            "- 8*TM(m+n+3) + TM(m+n+4)",
            evaluate=lambda m, n: (
                mat_mul(km(m), km(n)),
                tm(m + n) - 8 * tm(m + n + 1) + 18 * tm(m + n + 2)
                - 8 * tm(m + n + 3) + tm(m + n + 4)),
            **mn),
        IdentityRecord(id="COR19a", anchor=
            "T(m+n) = T(m)*T(n+1) + T(n)*(T(m-1) + T(m-2)) + T(m-1)*T(n-1)",
            evaluate=lambda m, n: (
                t(m + n),
                t(m) * t(n + 1) + t(n) * (t(m - 1) + t(m - 2))
                + t(m - 1) * t(n - 1)),
            **mn),
        IdentityRecord(id="COR19b", anchor=
            "K(m+n) = T(m)*K(n+1) + K(n)*(T(m-1) + T(m-2)) + K(n-1)*T(m-1)",
            evaluate=lambda m, n: (
                k(m + n),
                t(m) * k(n + 1) + k(n) * (t(m - 1) + t(m - 2))
                + k(n - 1) * t(m - 1)),
            **mn),
        IdentityRecord(id="COR19c", anchor=
            "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
            "9*T(m+n+2) - 12*T(m+n+1) - 2*T(m+n) + 4*T(m+n-1) + T(m+n-2)",
            evaluate=lambda m, n: (
                conv_lhs(m, n),
                9 * t(m + n + 2) - 12 * t(m + n + 1) - 2 * t(m + n)
                + 4 * t(m + n - 1) + t(m + n - 2)),
            **mn),
        IdentityRecord(id="COR19d", anchor=
            "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
            "T(m+n) + 4*T(m+n-1) + 10*T(m+n-2) + 12*T(m+n-3) + 9*T(m+n-4)",
            evaluate=lambda m, n: (
                conv_lhs(m, n),
                t(m + n) + 4 * t(m + n - 1) + 10 * t(m + n - 2)
                + 12 * t(m + n - 3) + 9 * t(m + n - 4)),
            **mn),
        IdentityRecord(id="COR19e", anchor=
            "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
            "T(m+n) - 8*T(m+n+1) + 18*T(m+n+2) - 8*T(m+n+3) + T(m+n+4)",
            evaluate=lambda m, n: (
                conv_lhs(m, n),
                t(m + n) - 8 * t(m + n + 1) + 18 * t(m + n + 2)
                - 8 * t(m + n + 3) + t(m + n + 4)),
            **mn),
        IdentityRecord(id="THM20a", anchor="TM(n)^m = TM(m*n)",
            evaluate=lambda m, n: (mat_pow(tm(n), m), tm(m * n)),
            **mn),
        IdentityRecord(id="THM20b", anchor="TM(n+1)^m = TM(1)^m * TM(m*n)",
            evaluate=lambda m, n: (mat_pow(tm(n + 1), m),
                                   mat_mul(mat_pow(tm1, m), tm(m * n))),
            **mn),
        IdentityRecord(id="THM20c", anchor=
            "TM(n-r)*TM(n+r) = TM(n)^2 = TM(2)^n",
            evaluate=lambda n, r: (
                (mat_mul(tm(n - r), tm(n + r)), mat_mul(tm(n), tm(n))),
                (mat_mul(tm(n), tm(n)), mat_pow(tm2, n))),
            **nr),
        IdentityRecord(id="THMFINALa", anchor="KM(n-r)*KM(n+r) = KM(n)^2",
            evaluate=lambda n, r: (mat_mul(km(n - r), km(n + r)),
                                   mat_mul(km(n), km(n))),
            **nr),
        IdentityRecord(id="THMFINALb", anchor="KM(n)^m = KM(0)^m * TM(m*n)",
            evaluate=lambda m, n: (mat_pow(km(n), m),
                                   mat_mul(mat_pow(km0, m), tm(m * n))),
            **mn),
        sum_record("SUMTHMa", MatrixKind.TRIB_MATRIX),
        sum_record("SUMTHMb", MatrixKind.LUCAS_MATRIX),
        sum_record("SUMCORa", SequenceKind.TRIBONACCI),
        sum_record("SUMCORb", SequenceKind.TRIBONACCI_LUCAS),
    ]


# verification -------------------------------------------------------------

def verify_record(record: IdentityRecord, bounds: GridBounds) -> VerifyReport:
    """Sweep one identity over its grid, demanding exact equality.  A
    grid with no case raises ValueError: an empty sweep proves nothing."""
    start = time.perf_counter()
    cases = 0
    failures = []
    for indices in record.grid(bounds):
        left, right = record.evaluate(*indices)
        cases += 1
        if left != right:
            failures.append(Failure(tuple(indices), left, right))
    elapsed = time.perf_counter() - start
    if not cases:
        raise ValueError(f"{record.id}: no case in {record.describe(bounds)}")
    return VerifyReport(record.id, record.anchor, record.describe(bounds),
                        cases, tuple(failures), elapsed, record.note)


def verify(identity_id: str, bounds: GridBounds | None = None) -> VerifyReport:
    """Verify one registered identity (Standard bounds unless overridden)."""
    if bounds is None:
        bounds = PROFILE_BOUNDS[Profile.STANDARD]
    for record in registry():
        if record.id == identity_id:
            return verify_record(record, bounds)
    raise UnknownIdentity(identity_id)


def verify_all(profile: Profile = Profile.STANDARD) -> list[VerifyReport]:
    """Verify every registered identity; reports follow registry order."""
    bounds = PROFILE_BOUNDS[profile]
    return [verify_record(record, bounds) for record in registry()]


# report rendering ---------------------------------------------------------

def report_to_dict(report: VerifyReport) -> dict:
    """JSON-ready form: id, anchor, bounds, cases, failures[], elapsed_ms."""
    out = {
        "id": report.identity_id,
        "anchor": report.anchor,
        "bounds": report.bounds,
        "cases": report.cases,
        "status": "pass" if report.passed else "fail",
        "failures": [
            {
                "indices": list(f.indices),
                "left": decimal_form(f.left),
                "right": decimal_form(f.right),
            }
            for f in report.failures
        ],
        "elapsed_ms": round(report.elapsed_s * 1000, 3),
    }
    if report.note:
        out["note"] = report.note
    return out


def format_report_table(reports) -> str:
    """Fixed-width human-readable table, one row per identity."""
    lines = [f"{'ID':<10} {'STATUS':<6} {'CASES':>7} {'FAILURES':>8} "
             f"{'MS':>9}  ANCHOR"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.identity_id:<10} {status:<6} {r.cases:>7} "
            f"{len(r.failures):>8} {r.elapsed_s * 1000:>9.1f}  {r.anchor}")
    return "\n".join(lines)

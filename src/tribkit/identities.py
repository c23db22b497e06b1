"""Registry of machine-checkable identities and the grid verifier.

Every identity relating T, K, TM and KM that is not already embodied by
an operation elsewhere (Binet evaluation, generating functions, the
summation closed form) lives here as an IdentityRecord: a stable id, the
formula itself as the anchor, a declared index domain, and an evaluator
returning the two sides.  A formula's evaluator is its anchor's own
text, compiled once per process with `^` read as `**`; its only names
are its indices and the registry's readers T, K, TM and KM, so the
formula a report prints is the formula that was checked.  Verification
sweeps a profile-sized grid and demands exact equality at every point
-- integer identities get no tolerance.

A chain X = Y = Z evaluates each side once, to ((X, Y), (Y, Z)),
compared slotwise, so a failure in either leg surfaces.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from enum import Enum
from types import CodeType
from typing import Callable, Iterator

from .core import SequenceKind, TermCache
from .errors import UnknownIdentity
from .matrices import KIND_SEEDS, MatrixKind, decimal_form, term_reader
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


@dataclass(frozen=True)
class Shape:
    """A record's index names, as its anchor writes them, and its grid."""

    indices: str
    arity: Arity
    domain: str
    grid: Callable[[GridBounds], Iterator[tuple[int, ...]]]
    describe: Callable[[GridBounds], str]


N_ALL = Shape("n", Arity.N, "all integers n", _signed, _signed_desc)
N_NONNEG = Shape("n", Arity.N, "n >= 0", _nonneg, _nonneg_desc)
MN = Shape("m, n", Arity.MN, "m, n >= 0", _pair, _pair_desc)
NR = Shape("n, r", Arity.MNR, "n >= r >= 0", _nr, _nr_desc)
SUM = Shape("m, j, n", Arity.MNR, "m > j >= 0, n >= 1", _sum_grid, _sum_desc)


# registry -----------------------------------------------------------------

# (id, anchor, shape[, note]): each anchor is the formula that is checked
FORMULAS = (
    ("EQ3", "T(n) = 2*T(n-1) - T(n-4)", N_ALL),
    ("TNEG", "T(-n) = T(n-1)^2 - T(n-2)*T(n)", N_NONNEG),
    ("EQ4", "K(n) = 3*T(n+1) - 2*T(n) - T(n-1)", N_ALL),
    ("EQ5", "K(n) = T(n) + 2*T(n-1) + 3*T(n-2)", N_ALL),
    ("EQ6", "K(n) = 4*T(n+1) - T(n) - T(n+2)", N_ALL),
    ("THM15a", "KM(n) = 3*TM(n+1) - 2*TM(n) - TM(n-1)", N_ALL),
    ("THM15b", "KM(n) = TM(n) + 2*TM(n-1) + 3*TM(n-2)", N_ALL),
    ("THM15c", "KM(n) = 4*TM(n+1) - TM(n) - TM(n+2)", N_ALL,
     "items (c) and (d) of this identity group are the same "
     "formula with terms reordered; registered once"),
    ("THM15e", "22*TM(n) = 5*KM(n+2) - 3*KM(n+1) - 4*KM(n)", N_ALL),
    ("LEM16a", "KM(0)*TM(n) = TM(n)*KM(0) = KM(n)", N_NONNEG),
    ("LEM16b", "TM(0)*KM(n) = KM(n)*TM(0) = KM(n)", N_NONNEG),
    ("COR17a", "22*T(n) = K(n) + 5*K(n-1) + 2*K(n+1)", N_ALL),
    ("COR17b", "22*TM(n) = KM(n) + 5*KM(n-1) + 2*KM(n+1)", N_ALL),
    ("THM18a", "TM(m)*TM(n) = TM(m+n) = TM(n)*TM(m)", MN),
    ("THM18b", "TM(m)*KM(n) = KM(n)*TM(m) = KM(m+n)", MN),
    ("THM18c", "KM(m)*KM(n) = KM(n)*KM(m) = 9*TM(m+n+2) - 12*TM(m+n+1) "
               "- 2*TM(m+n) + 4*TM(m+n-1) + TM(m+n-2)", MN),
    ("THM18d", "KM(m)*KM(n) = TM(m+n) + 4*TM(m+n-1) + 10*TM(m+n-2) "
               "+ 12*TM(m+n-3) + 9*TM(m+n-4)", MN),
    ("THM18e", "KM(m)*KM(n) = TM(m+n) - 8*TM(m+n+1) + 18*TM(m+n+2) "
               "- 8*TM(m+n+3) + TM(m+n+4)", MN),
    ("COR19a", "T(m+n) = T(m)*T(n+1) + T(n)*(T(m-1) + T(m-2)) "
               "+ T(m-1)*T(n-1)", MN),
    ("COR19b", "K(m+n) = T(m)*K(n+1) + K(n)*(T(m-1) + T(m-2)) "
               "+ K(n-1)*T(m-1)", MN),
    ("COR19c", "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
               "9*T(m+n+2) - 12*T(m+n+1) - 2*T(m+n) + 4*T(m+n-1) + T(m+n-2)",
     MN),
    ("COR19d", "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
               "T(m+n) + 4*T(m+n-1) + 10*T(m+n-2) + 12*T(m+n-3) + 9*T(m+n-4)",
     MN),
    ("COR19e", "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
               "T(m+n) - 8*T(m+n+1) + 18*T(m+n+2) - 8*T(m+n+3) + T(m+n+4)",
     MN),
    ("THM20a", "TM(n)^m = TM(m*n)", MN),
    ("THM20b", "TM(n+1)^m = TM(1)^m * TM(m*n)", MN),
    ("THM20c", "TM(n-r)*TM(n+r) = TM(n)^2 = TM(2)^n", NR),
    ("THMFINALa", "KM(n-r)*KM(n+r) = KM(n)^2", NR),
    ("THMFINALb", "KM(n)^m = KM(0)^m * TM(m*n)", MN),
)

READERS = frozenset(kind.value for kind in KIND_SEEDS)  # T, K, TM, KM


@functools.cache
def _compile(id: str, anchor: str, indices: str) -> CodeType:
    """`lambda <indices>: (left, right)` from the anchor's own text.

    `^` is `**`; a chain A = B = C yields ((A, B), (B, C)), B evaluated
    once.  Cached, so an anchor is compiled once per process.
    """
    sides = anchor.replace("^", "**").split(" = ")
    if len(sides) == 2:
        body = "({}, {})".format(*sides)
    elif len(sides) == 3:
        body = "(({}, (_mid := {})), (_mid, {}))".format(*sides)
    else:
        raise ValueError(f"{id}: an anchor has two or three sides")
    code = compile(f"lambda {indices}: {body}", f"<{id}>", "eval")
    unknown = _names(code) - READERS - {"_mid", *indices.split(", ")}
    if unknown:
        raise ValueError(f"{id}: its anchor names {', '.join(sorted(unknown))}"
                         f"; only {', '.join(sorted(READERS))} and "
                         f"{indices} are allowed")
    return code


def _names(code: CodeType) -> set[str]:
    """Every name compiled code uses, its nested code's too."""
    return set(code.co_names + code.co_varnames).union(
        *(_names(c) for c in code.co_consts if isinstance(c, CodeType)))


def registry() -> list[IdentityRecord]:
    """The full static registry; ids are stable and unique.

    Each call binds the compiled anchors to fresh readers over private
    term caches, so returned registries are independent of each other
    and safe to use concurrently.  A registry reads each kind through
    one memoised reader, both sides of the sum records too, so each
    TM(n) and KM(n) is built once; the direct sums keep a running total
    (`series.running_bruteforce`), one term per step up the n axis.
    The sum records' anchors are prose, so they keep their evaluator.
    """
    caches = {kind: TermCache(kind) for kind in SequenceKind}
    readers = {kind.value: functools.cache(term_reader(kind, caches[scalar]))
               for kind, (_, scalar) in KIND_SEEDS.items()}
    # the anchors' only names: no builtins
    namespace = {"__builtins__": {}} | readers

    def sum_record(id: str, kind) -> IdentityRecord:
        term = readers[kind.value]
        oracle = running_bruteforce(kind, term)

        def evaluate(m, j, n):
            return partial_sum(SumSpec(kind, m, j, n), term), oracle(m, j, n)
        return IdentityRecord(
            id, "sum_{i=0}^{n-1} " f"{kind.value}(m*i+j) equals its closed "
                "form over K(m) - K(-m)",
            SUM.arity, SUM.domain, evaluate, SUM.grid, SUM.describe)

    return [
        IdentityRecord(id, anchor, shape.arity, shape.domain,
                       eval(_compile(id, anchor, shape.indices), namespace),
                       shape.grid, shape.describe, *note)
        for id, anchor, shape, *note in FORMULAS
    ] + [
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

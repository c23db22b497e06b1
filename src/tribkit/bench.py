"""Wall-clock and operation-count comparison of nth-term strategies.

`tribkit` registers this module as a lazy one, as it does `binet`: it
runs on the first read of one of its names.  It reads `binet` through
the module, so a run that evaluates no Binet never runs that module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import binet
from .core import (DEFAULT_PRECISION, SequenceKind, lucas_trib, to_decimal,
                   trib)
from .counters import OpCounter
from .errors import StrategyMismatch
from .matrices import lucas_fast, trib_fast


def _run_iterate(kind, n, precision, counter):
    fn = trib if kind is SequenceKind.TRIBONACCI else lucas_trib
    return fn(n, counter=counter)


def _run_matpow(kind, n, precision, counter):
    fn = trib_fast if kind is SequenceKind.TRIBONACCI else lucas_fast
    return fn(n, counter=counter)


def _run_binet(kind, n, precision, counter):
    fn = (binet.binet_trib if kind is SequenceKind.TRIBONACCI
          else binet.binet_lucas)
    return fn(n, precision, counter=counter)


# name -> callable(kind, n, precision, counter) -> int; each runner looks
# its evaluator up when called, so rebinding a module global takes effect
STRATEGIES = {
    "iterate": _run_iterate,
    "matpow": _run_matpow,
    "binet": _run_binet,
}


@dataclass(frozen=True)
class BenchResult:
    """One timed run; op counts reflect big-integer work only."""

    strategy: str
    kind: SequenceKind
    n: int
    elapsed_s: float
    big_adds: int
    big_muls: int
    mat_muls: int
    precision: int | None = None  # set for precision-dependent strategies


def run_bench(kind: SequenceKind, ns: list[int], strategies: list[str],
              precision: int = DEFAULT_PRECISION) -> list[BenchResult]:
    """Benchmark each strategy at each index.

    Per index: each strategy is timed on one run with a fresh operation
    counter, and the values of those same runs must agree
    (StrategyMismatch otherwise).  No untimed warm-up precedes them, so
    a strategy's first run at an index is the one reported.  Process
    startup never lands inside the timed region, nor does the first run
    of the lazy `binet` module, nor the import of mpmath, which Binet
    evaluation loads on its first run.
    """
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies: {', '.join(unknown)}")
    if not strategies:
        raise ValueError("no strategies selected")
    if not ns:
        raise ValueError("no indices selected")
    if "binet" in strategies:  # both loaded here, before the first timer
        binet.compute_roots  # noqa: B018 -- a read runs the lazy module
        import mpmath  # noqa: F401
    results = []
    for n in ns:
        values = {}
        for name in strategies:
            counter = OpCounter()
            start = time.perf_counter()
            values[name] = STRATEGIES[name](kind, n, precision, counter)
            elapsed = time.perf_counter() - start
            results.append(BenchResult(
                strategy=name, kind=kind, n=n, elapsed_s=elapsed,
                big_adds=counter.big_adds, big_muls=counter.big_muls,
                mat_muls=counter.mat_muls,
                precision=precision if name == "binet" else None))
        if len(set(values.values())) > 1:
            details = ", ".join(
                f"{name}={to_decimal(value)}"
                for name, value in sorted(values.items()))
            raise StrategyMismatch(
                f"strategies disagree at {kind.value}({n}): {details}")
    return results

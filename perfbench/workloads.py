"""Seeded request lists for the terms, sums and verify workloads.

A run sends RUN_SIZE requests, so ten lie beyond p90.  Each workload
holds its request families in fixed proportions, and each family's size
parameter sits on a fixed grid: the k requests of a family take k evenly
spaced quantiles of the family's size distribution, from the bottom of
its range to the top.  Every run therefore covers the whole size range,
its largest size included.

Whatever changes how much work a request is -- its size, a matrix kind
against a scalar one, the stride of a sum, the format of a large
listing, which identities share a verify request -- follows a fixed
design that cycles through every choice, so runs of different seeds do
the same work.  Cost grows steeply with these choices, and a design
drawn afresh per seed would make a run's figures hinge on its draws
rather than on tribkit.  The seed draws the rest: T or K where both cost
the same, the offset j of a sum, the format where the output is small,
and the order in which the requests are sent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from oracle import IDENTITY_IDS

RUN_SIZE = 100
WORKLOADS = ("terms", "sums", "verify")
FORMATS = ("plain", "json", "csv")
LOG2_ALPHA = math.log2(1.8392867552141612)
PRECISIONS = (1024, 4096, 8192)
SUM_KINDS = ("T", "K", "TM", "KM")
# profile -> (requests, passes over all 32 ids) for the 90 subset requests
VERIFY_PLAN = {"quick": (18, 1), "standard": (45, 2), "deep": (27, 2)}
VERIFY_ALL = 10
MAX_IDS = 4


@dataclass(frozen=True)
class Request:
    family: str
    argv: tuple[str, ...]


def _grid(k: int) -> list[float]:
    """k evenly spaced quantiles from 0 to 1."""
    return [i / (k - 1) for i in range(k)]


def _log_uniform(lo: float, hi: float, u: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def _terms(rng: random.Random) -> list[Request]:
    out = []
    for u in _grid(60):
        n = _log_uniform(1e3, 1e6, u)
        out.append(Request("term", ("term", rng.choice("TK"), str(n),
                                     "--strategy", "matpow")))
    for u in _grid(15):
        n = _log_uniform(1e3, 1e5, u)
        out.append(Request("term-neg", ("term", rng.choice("TK"), str(-n),
                                         "--strategy", "matpow")))
    for u in _grid(15):
        n = _log_uniform(1e2, 5e4, u)
        out.append(Request("matrix", ("matrix", rng.choice("TK"), str(n))))
    for i, u in enumerate(_grid(10)):
        precision = PRECISIONS[i % len(PRECISIONS)]
        lo, hi = precision / 4, 0.9 * (precision - 2) / LOG2_ALPHA
        n = int(lo + (hi - lo) * u)
        out.append(Request("binet", ("term", rng.choice("TK"), str(n),
                                      "--strategy", "binet",
                                      "--precision", str(precision))))
    return out


def _sum_requests(rng: random.Random, family: str, k: int, top_hi: float,
                  extra: tuple[str, ...]) -> list[Request]:
    """n is chosen so that the top index m*n + j is the grid's size."""
    out = []
    for i, u in enumerate(_grid(k)):
        m = 1 + i % 10
        j = rng.randrange(m)
        top = _log_uniform(1e2, top_hi, u)
        n = max(1, (top - j) // m)
        out.append(Request(family, ("sum", SUM_KINDS[i % 4], str(m), str(j),
                                    str(n)) + extra))
    return out


def _sums(rng: random.Random) -> list[Request]:
    out = _sum_requests(rng, "sum", 65, 1e5, ())
    out += _sum_requests(rng, "sum-check", 20, 2e4, ("--check",))
    for i, u in enumerate(_grid(15)):
        count = _log_uniform(16, 2000, u)
        out.append(Request("gf", ("gf", SUM_KINDS[i % 4], str(count),
                                  "--format", FORMATS[i % 3])))
    return out


def _verify(rng: random.Random) -> list[Request]:
    """Each profile sweeps every id `passes` times, in requests of 1 to
    MAX_IDS ids.  Pass c deals the ids from registry position 7c with
    stride 13 (coprime to 32), so groups differ from pass to pass and
    no request repeats an id; sizes cycle 1..MAX_IDS, trimmed from the
    largest until they add up to the ids dealt."""
    out = []
    for profile, (requests, passes) in VERIFY_PLAN.items():
        count = len(IDENTITY_IDS)
        cards = [IDENTITY_IDS[(c * 7 + 13 * i) % count]
                 for c in range(passes) for i in range(count)]
        sizes = [1 + i % MAX_IDS for i in range(requests)]
        while sum(sizes) > len(cards):
            sizes[max(range(requests), key=lambda i: (sizes[i], i))] -= 1
        start = 0
        for size in sizes:
            ids = cards[start:start + size]
            start += size
            out.append(Request(f"verify-{profile}",
                               ("verify", *ids, "--profile", profile)))
    out += [Request("verify-all", ("verify", "--profile", "standard"))
            ] * VERIFY_ALL
    return out


def requests(workload: str, seed: int) -> list[Request]:
    """The run's requests, in sending order; the same seed gives the same."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    build = {"terms": _terms, "sums": _sums, "verify": _verify}[workload]
    out = [r if "--format" in r.argv else
           Request(r.family, r.argv + ("--format", rng.choice(FORMATS)))
           for r in build(rng)]
    rng.shuffle(out)
    return out

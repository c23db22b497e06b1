"""Per-layer tracing installed from outside tribkit.

`installed(tracer)` wraps the public functions of each tribkit module
and restores the originals on exit.  A wrapper replaces every binding
through which a caller resolves the function -- the defining module's
global and each `from .x import f` copy in the other tribkit modules
(tribkit.cli.trib_fast as well as tribkit.matrices.trib_fast) -- so calls
between modules are traced too.

Two hot leaves, `mat_mul` and `TermCache.get`, only aggregate a count and
busy time.  Every other wrapped function records a span: its name, the
request it belongs to and its parent.  Spans are aggregated as they
close (calls, inclusive time, self time, parent edges), because keeping
one record per call would cost more memory and time than the work
measured.  A span's self time is its duration minus the time covered by
its child spans and leaves.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

from oracle import IDENTITY_IDS

# (module, attribute, layer name) for every span
SPANS = (
    ("tribkit.cli", "main", "cli.main"),
    ("tribkit.core", "trib", "core.trib"),
    ("tribkit.core", "lucas_trib", "core.lucas_trib"),
    ("tribkit.matrices", "mat_pow", "matrices.mat_pow"),
    ("tribkit.matrices", "trib_fast", "matrices.trib_fast"),
    ("tribkit.matrices", "lucas_fast", "matrices.lucas_fast"),
    ("tribkit.matrices", "t_matrix", "matrices.t_matrix"),
    ("tribkit.matrices", "k_matrix", "matrices.k_matrix"),
    ("tribkit.series", "partial_sum", "series.partial_sum"),
    ("tribkit.series", "partial_sum_bruteforce", "series.bruteforce"),
    ("tribkit.series", "gf_coeffs", "series.gf"),
    ("tribkit.series", "gf_matrix_coeffs", "series.gf"),
    ("tribkit.identities", "registry", "identities.registry"),
    ("tribkit.identities", "verify_record", "identities.verify_record"),
    ("tribkit.binet", "compute_roots", "binet.compute_roots"),
    ("tribkit.binet", "binet_trib", "binet.eval"),
    ("tribkit.binet", "binet_lucas", "binet.eval"),
)

# (metric name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    [("matrices.mat_mul.calls", "count", "lower"),
     ("matrices.mat_mul.s", "s", "lower"),
     ("matrices.mat_mul.bits", "bits", "lower")]
    + [(f"matrices.{f}.s", "s", "lower")
       for f in ("mat_pow", "trib_fast", "lucas_fast", "t_matrix", "k_matrix")]
    + [("core.trib.calls", "count", "lower"),
       ("core.trib.s", "s", "lower"),
       ("core.lucas_trib.calls", "count", "lower"),
       ("core.lucas_trib.s", "s", "lower"),
       ("core.cache.gets", "count", "lower"),
       ("core.cache.s", "s", "lower"),
       ("core.cache.new_terms", "count", "lower"),
       ("core.cache.hit_ratio", "ratio", "higher"),
       ("series.partial_sum.s", "s", "lower"),
       ("series.bruteforce.s", "s", "lower"),
       ("series.gf.s", "s", "lower"),
       ("series.top_index.max", "index", "higher"),
       ("identities.registry.calls", "count", "lower"),
       ("identities.registry.s", "s", "lower"),
       ("identities.verify_record.s", "s", "lower"),
       ("identities.cases", "count", "higher"),
       ("identities.cases_per_s", "1/s", "higher")]
    + [(f"identities.{i}.s", "s", "lower") for i in IDENTITY_IDS]
    + [("binet.compute_roots.calls", "count", "lower"),
       ("binet.compute_roots.s", "s", "lower"),
       ("binet.eval.s", "s", "lower"),
       ("cli.requests", "count", "higher"),
       ("cli.self_s", "s", "lower"),
       ("cli.out_bytes", "bytes", "lower"),
       ("cli.exit_nonzero", "count", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class _Stat:
    """Running totals of one span name."""

    __slots__ = ("calls", "total", "own", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive time of outermost activations
        self.own = 0.0    # self time
        self.active = 0


class Tracer:
    """Aggregated spans and leaf counters for one traced pass."""

    def __init__(self):
        self.request_id = 0
        self.stats = defaultdict(_Stat)
        # (request id, parent, child) -> [calls, seconds]
        self.edges = defaultdict(lambda: [0, 0.0])
        self.families: dict[int, str] = {}
        self.mat_mul_calls = 0
        self.mat_mul_s = 0.0
        self.mat_mul_bits = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self.cache_s = 0.0
        self.cache_new_terms = 0
        self.top_index_max = 0
        self.cases = 0
        self.identity_s = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = [["request", 0.0]]  # [name, child seconds]

    def start_request(self, request_id: int, family: str) -> None:
        self.request_id = request_id
        self.families[request_id] = family

    def span(self, name: str, fn):
        stat, stack, edges = self.stats[name], self._stack, self.edges
        after = {"series.partial_sum": self._after_sum,
                 "series.bruteforce": self._after_sum,
                 "identities.verify_record": self._after_verify}.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            stat.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                stat.active -= 1
                stat.calls += 1
                stat.own += elapsed - frame[1]
                if not stat.active:
                    stat.total += elapsed
                edge = edges[(self.request_id, parent[0], name)]
                edge[0] += 1
                edge[1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result
        return wrapper

    def _after_sum(self, args, result, elapsed):
        spec = args[0]
        self.top_index_max = max(self.top_index_max, spec.m * spec.n + spec.j)

    def _after_verify(self, args, result, elapsed):
        self.identity_s[args[0].id] += elapsed
        self.cases += result.cases

    def mat_mul(self, fn):
        stack = self._stack

        @wraps(fn)
        def wrapper(a, b, *args, **kwargs):
            start = perf_counter()
            result = fn(a, b, *args, **kwargs)
            elapsed = perf_counter() - start
            stack[-1][1] += elapsed
            self.mat_mul_calls += 1
            self.mat_mul_s += elapsed
            self.mat_mul_bits += max(x.bit_length()
                                     for x in a.entries + b.entries)
            return result
        return wrapper

    def cache_get(self, fn):
        """Count gets, and the terms each appends to the cache's window.

        The window [lo, hi] only ever extends, so a get at n appends
        n - hi terms above it or lo - n below it, and none inside it.
        """
        stack = self._stack

        @wraps(fn)
        def wrapper(cache, n):
            if n >= 0:
                edge = cache.hi
                grown = n - edge if n > edge else 0
            else:
                edge = cache.lo
                grown = edge - n if n < edge else 0
            start = perf_counter()
            result = fn(cache, n)
            elapsed = perf_counter() - start
            stack[-1][1] += elapsed
            self.cache_gets += 1
            self.cache_hits += not grown
            self.cache_new_terms += grown
            self.cache_s += elapsed
            return result
        return wrapper

    def call_tree(self) -> list[tuple[str, str, str, int, float]]:
        """(family, parent, child, calls, seconds), summed over requests."""
        tree = defaultdict(lambda: [0, 0.0])
        for (request_id, parent, child), (calls, seconds) in self.edges.items():
            row = tree[(self.families.get(request_id, "?"), parent, child)]
            row[0] += calls
            row[1] += seconds
        return sorted(((*key, calls, seconds)
                       for key, (calls, seconds) in tree.items()),
                      key=lambda row: -row[4])

    def metrics(self, overhead_ratio: float, requests: int, out_bytes: int,
                exit_nonzero: int) -> dict[str, float]:
        values = {
            "matrices.mat_mul.calls": self.mat_mul_calls,
            "matrices.mat_mul.s": self.mat_mul_s,
            "matrices.mat_mul.bits": self.mat_mul_bits,
            "core.trib.calls": self.stats["core.trib"].calls,
            "core.lucas_trib.calls": self.stats["core.lucas_trib"].calls,
            "core.cache.gets": self.cache_gets,
            "core.cache.s": self.cache_s,
            "core.cache.new_terms": self.cache_new_terms,
            "core.cache.hit_ratio": (self.cache_hits / self.cache_gets
                                     if self.cache_gets else 0.0),
            "series.top_index.max": self.top_index_max,
            "identities.registry.calls": self.stats["identities.registry"].calls,
            "identities.cases": self.cases,
            "identities.cases_per_s": (
                self.cases / self.stats["identities.verify_record"].total
                if self.cases else 0.0),
            "binet.compute_roots.calls": self.stats["binet.compute_roots"].calls,
            "cli.requests": requests,
            "cli.self_s": self.stats["cli.main"].own,
            "cli.out_bytes": out_bytes,
            "cli.exit_nonzero": exit_nonzero,
            "trace.overhead_ratio": overhead_ratio,
        }
        for identity_id in IDENTITY_IDS:
            values[f"identities.{identity_id}.s"] = \
                self.identity_s[identity_id]
        for name, _, _ in PER_LAYER:
            if name not in values:  # inclusive span time, "<layer>.s"
                values[name] = self.stats[name[:-2]].total
        return values


def _rebind(original, replacement, patches) -> None:
    """Point every tribkit module global bound to `original` elsewhere."""
    for name, module in list(sys.modules.items()):
        if name != "tribkit" and not name.startswith("tribkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, value))
                setattr(module, attr, replacement)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace tribkit inside the block; the originals come back after it."""
    patches: list[tuple[object, str, object]] = []
    try:
        wrapped = {}
        for module_name, attr, layer in SPANS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            wrapped[original] = tracer.span(layer, original)
        matrices = sys.modules.get("tribkit.matrices")
        mat_mul = getattr(matrices, "mat_mul", None)
        if mat_mul is None:
            tracer.missing.append("tribkit.matrices.mat_mul")
        else:
            wrapped[mat_mul] = tracer.mat_mul(mat_mul)
        for original, replacement in wrapped.items():
            _rebind(original, replacement, patches)
        cache_cls = getattr(sys.modules.get("tribkit.core"), "TermCache", None)
        if cache_cls is None:
            tracer.missing.append("tribkit.core.TermCache.get")
        else:
            original = cache_cls.__dict__["get"]
            patches.append((cache_cls, "get", original))
            cache_cls.get = tracer.cache_get(original)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

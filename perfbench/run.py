"""Benchmark of the tribkit command line, run from the repository root.

    python3 perfbench/run.py --workload {terms,sums,verify} --seed N
                             --seconds S --trace {0,1}

One client in one process and one thread drives the public entry point
`tribkit.cli.main(argv)` in a closed loop: each request is sent when the
previous one has returned.  Standard output and error are captured.

A run draws its requests from the seed (workloads.py) and sends all of
them once per pass, for at least MIN_PASSES passes and until S seconds
of request time have gone by.  Every answer of the first pass that
exits 0 is checked against the independent oracle in oracle.py, and
every later sample must repeat the first byte for byte.  Times are taken
at reference speed (yardstick.py), and a request's latency is the median
of its samples: tribkit is deterministic, so what varies between samples
is other load on the machine.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 one untraced pass is followed by one traced pass, and the last
line carries the traced pass's per-layer metrics; it must give the same
answers, byte for byte apart from verify's timing column.

The benchmark leaves interpreter-wide state alone: it does not raise the
integer-to-string digit limit and does not tune the garbage collector,
so tribkit's own limits show up as measured failures and memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import oracle
import tracing
import workloads
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 2
MAX_REPEATS = 7
REPEAT_SECONDS = 0.1
SETUP_REPEATS = 15
SETUP_CODE = "import tribkit.cli as cli; cli.build_parser()"
# A failed or wrong request ranks as slower than every success: its
# latency counts as this much (no run may last longer) plus its own time.
FAILED_MS = 180_000.0

END_TO_END = (("ok_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Outcome:
    request: workloads.Request
    exit_code: int
    seconds: float
    out_bytes: int
    digest: str
    cause: str = ""  # why it failed; empty for a correct answer
    wrong: bool = False
    mark: int = 0  # yardstick mark taken just before it

    @property
    def ok(self) -> bool:
        return not self.cause


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def ranked_ms(outcome: Outcome) -> float:
    """Latency as ranked for percentiles: failures after every success."""
    ms = outcome.seconds * 1000
    return ms if outcome.ok else FAILED_MS + ms


def _failure_cause(exit_code: int, stderr: str) -> str:
    if "Exceeds the limit" in stderr:
        return f"exit {exit_code}: integer string conversion digit limit"
    first = stderr.strip().splitlines()[:1]
    return f"exit {exit_code}: {first[0][:100] if first else 'no message'}"


def execute(cli, request: workloads.Request, check: bool) -> Outcome:
    """Send one request through cli.main and judge its answer."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            exit_code = cli.main(list(request.argv))
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a stop
            exit_code = 1
            print(f"crash: {type(exc).__name__}: {exc}", file=err)
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    digest = hashlib.sha256(
        oracle.timing_free(request.argv, stdout).encode()).hexdigest()
    outcome = Outcome(request, exit_code, seconds, len(stdout.encode()),
                      digest)
    if exit_code != 0:
        outcome.cause = _failure_cause(exit_code, err.getvalue())
    elif check:
        try:
            oracle.check(request.argv, stdout)
        except oracle.WrongAnswer as exc:
            outcome.cause = f"wrong answer: {exc}"
            outcome.wrong = True
    return outcome


def run_passes(cli, requests, seconds: float, min_passes: int,
               stick: Yardstick):
    """Send every request once per pass, until `seconds` of request time.

    Within a pass a quick request is sent again, back to back, until its
    samples add up to REPEAT_SECONDS or number MAX_REPEATS, so that its
    median is taken over enough samples.  Returns each request's
    samples, the first pass's first sample first, and each pass's time.
    """
    samples: list[list[Outcome]] = [[] for _ in requests]
    pass_seconds: list[float] = []
    while len(pass_seconds) < min_passes or sum(pass_seconds) < seconds:
        busy = 0.0
        for request, taken in zip(requests, samples):
            spent = 0.0
            mark = stick.mark()
            for _ in range(MAX_REPEATS):
                outcome = execute(cli, request, check=not taken)
                outcome.mark = mark
                taken.append(outcome)
                spent += outcome.seconds
                if spent >= REPEAT_SECONDS:
                    break
            busy += spent
        pass_seconds.append(busy)
    return samples, pass_seconds


def combine(samples: list[list[Outcome]], stick: Yardstick) -> list[Outcome]:
    """Each request's first outcome, timed by the median of its samples
    at reference speed.

    A sample that answers differently from the first makes the request
    wrong.
    """
    combined = []
    for first, *again in samples:
        typical = replace(first, seconds=statistics.median(
            o.seconds * stick.scale(o.mark) for o in (first, *again)))
        if any((o.exit_code, o.digest) != (first.exit_code, first.digest)
               for o in again):
            typical.cause = "wrong answer: output changed between samples"
            typical.wrong = True
        combined.append(typical)
    return combined


def measure_setup(stick: Yardstick) -> list[float]:
    """Times of fresh interpreters importing tribkit.cli, at reference
    speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        mark = stick.mark()
        start = time.perf_counter()
        # no timeout: waiting with one polls, which rounds the time up
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start, mark))
    stick.mark()
    return [seconds * stick.scale(mark) for seconds, mark in times]


def environment(args) -> dict:
    import mpmath
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "load": "closed loop, 1 client, 1 process, 1 thread",
    }


def end_to_end(outcomes: list[Outcome], setup: list[float]) -> dict:
    busy = sum(o.seconds for o in outcomes)
    ok = sum(o.ok for o in outcomes)
    ranked = [ranked_ms(o) for o in outcomes]
    return {
        "ok_per_s": ok / busy,
        "p50_ms": percentile(ranked, 50),
        "p90_ms": percentile(ranked, 90),
        "ok_ratio": ok / len(outcomes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def _report(outcomes: list[Outcome]) -> None:
    causes = Counter(o.cause for o in outcomes if not o.ok)
    by_family = Counter(o.request.family for o in outcomes)
    failed_by_family = Counter(o.request.family for o in outcomes if not o.ok)
    print(f"requests: {len(outcomes)}, failed: {sum(causes.values())}")
    for family, count in sorted(by_family.items()):
        busy = sum(o.seconds for o in outcomes if o.request.family == family)
        print(f"  {family:<16} {count:>5} requests  "
              f"{failed_by_family[family]:>4} failed  {busy:9.3f} s")
    for cause, count in causes.most_common():
        print(f"  failure x{count}: {cause}")


def traced_pass(cli, requests, samples, stick: Yardstick):
    """Send every request once more with tracing installed.

    Returns the per-layer metrics and the requests whose traced answer
    differs from the untraced one.
    """
    tracer = tracing.Tracer()
    traced = []
    with tracing.installed(tracer):
        for request_id, request in enumerate(requests):
            mark = stick.mark()
            tracer.start_request(request_id, request.family)
            traced.append(execute(cli, request, check=False))
            traced[-1].mark = mark
    firsts = [first for first, *_ in samples]
    differing = [t.request.argv for t, o in zip(traced, firsts)
                 if (t.exit_code, t.digest) != (o.exit_code, o.digest)]
    for argv in differing:
        print("traced output differs:", " ".join(argv))
    if tracer.missing:
        print("not traced (absent):", ", ".join(tracer.missing))
    print(f"traced pass: {len(traced)} requests")
    for family, parent, child, calls, seconds in tracer.call_tree()[:25]:
        print(f"  {family:<16} {parent:>26} -> {child:<26} "
              f"{calls:>9} calls {seconds:10.4f} s")

    def at_reference_speed(outcomes):
        return sum(o.seconds * stick.scale(o.mark) for o in outcomes)

    values = tracer.metrics(
        overhead_ratio=at_reference_speed(traced) / at_reference_speed(firsts),
        requests=len(traced),
        out_bytes=sum(t.out_bytes for t in traced),
        exit_nonzero=sum(t.exit_code != 0 for t in traced))
    return values, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tribkit" / "cli.py").is_file():
        print(f"error: no tribkit sources under {SRC}", file=sys.stderr)
        return 2
    stick = Yardstick()
    setup = measure_setup(stick) if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    from tribkit import cli

    print("run:", json.dumps(environment(args)))
    requests = workloads.requests(args.workload, args.seed)
    execute(cli, workloads.Request("warm-up", ("term", "T", "10")), True)
    if args.trace == 0:
        samples, pass_seconds = run_passes(cli, requests, args.seconds,
                                           MIN_PASSES, stick)
    else:  # the traced pass is long; one untraced pass is its baseline
        samples, pass_seconds = run_passes(cli, requests, 0, 1, stick)
    outcomes = combine(samples, stick)
    print(f"passes: {len(pass_seconds)}, measured request seconds per pass: "
          + ", ".join(f"{busy:.3f}" for busy in pass_seconds)
          + f"; samples: {sum(map(len, samples))}; reference work: "
          f"median {statistics.median(stick.marks) * 1000:.3f} ms, "
          f"min {min(stick.marks) * 1000:.3f} ms over {len(stick.marks)}")
    _report(outcomes)
    result = {"correct": not any(o.wrong for o in outcomes),
              "attempted": len(outcomes),
              "failed": sum(not o.ok for o in outcomes)}

    if args.trace == 0:
        values = end_to_end(outcomes, setup)
        counts = {"setup_s": len(setup), "peak_rss_mb": 1}
        metrics = {}
        for name, unit in END_TO_END:
            shown = values[name]
            note = ""
            if name in ("p50_ms", "p90_ms") and shown >= FAILED_MS:
                note = "  (unbounded: lands on a failed request)"
            print(f"{name:<12} {shown:14.4f} {unit:<6} "
                  f"n={counts.get(name, len(outcomes))}{note}")
            metrics[name] = {"value": shown, "unit": unit}
    else:
        values, differing = traced_pass(cli, requests, samples, stick)
        result["correct"] = result["correct"] and not differing
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            print(f"{name:<34} {values[name]:16.6f} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}

    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

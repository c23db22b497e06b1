"""Machine-speed yardstick for times measured on a shared machine.

On a machine shared with other tenants the same work can take half as
long again for minutes at a time.  That drift is far larger than the
changes the benchmark has to resolve, and it moves every measured time
together: the ratio of a tribkit request's time to the time of a fixed
piece of reference work measured beside it stays within a few percent
while both raw times swing by a quarter.

So the benchmark runs reference_work() between requests and reports
each time at reference speed: scaled by REFERENCE_S over the reference
work's time at that moment (the median of the nearest WINDOW marks on
either side).  REFERENCE_S is the reference work's least time on the
2-CPU machine the benchmark was defined on, so reported times read as
that machine's times when unloaded.

Other load slows big-integer arithmetic and plain interpreter work by
different amounts at different times: measured against either alone,
requests of the other kind drifted by up to a fifth.  The reference
work is therefore both, like tribkit's requests: a loop on growing
integers and big-integer products, then argument parsing with the
standard library.  It shares no code with tribkit, so a change to
tribkit cannot move it.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

REFERENCE_S = 0.0042
WINDOW = 4
_OPERAND = 7 ** 12000


def reference_work() -> float:
    """Seconds taken by one fixed unit of reference work."""
    start = perf_counter()
    a, b, c = 0, 1, 1
    for _ in range(2000):
        a, b, c = b, c, a + b + c
    for _ in range(6):
        _OPERAND * (_OPERAND + 1)
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            command = commands.add_parser(name)
            command.add_argument("kind")
            command.add_argument("n", type=int)
            command.add_argument("--format", choices=("plain", "json"))
        parser.parse_args(["b", "T", "12", "--format", "json"])
    " ".join(str(i) for i in range(300))
    return perf_counter() - start


class Yardstick:
    """Reference-work times in the order they were taken."""

    def __init__(self):
        self.marks: list[float] = []

    def mark(self) -> int:
        """Time the reference work now; returns the mark's index."""
        self.marks.append(reference_work())
        return len(self.marks) - 1

    def scale(self, index: int) -> float:
        """Factor taking a time measured at mark `index` to reference speed."""
        nearby = self.marks[max(0, index - WINDOW):index + WINDOW + 1]
        return REFERENCE_S / statistics.median(nearby)

"""Operation counters used to compare evaluation strategies."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tallies of arbitrary-precision arithmetic operations.

    Evaluators that accept a counter credit it with the big-integer
    additions/multiplications they actually perform (a doubling or a
    small multiple counts as one addition); index bookkeeping on machine
    ints is never counted.  `mat_muls` counts the products of a power
    chain: whole 3x3 matrix products in `mat_pow`, and each squaring
    and each step by x or 1/x of the polynomial kernel behind
    `trib_fast` and `lucas_fast`.
    """

    big_adds: int = 0
    big_muls: int = 0
    mat_muls: int = 0

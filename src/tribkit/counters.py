"""Operation counters used to compare evaluation strategies."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tallies of arbitrary-precision arithmetic operations.

    Evaluators that accept a counter credit it with the big-integer
    additions/multiplications they actually perform (a doubling, a
    small multiple or an exact division by a small int counts as one
    addition); index bookkeeping on machine ints is never counted.  A
    squaring of the polynomial kernel counts 6 big multiplications
    below `matrices.FIVE_SQUARES_FROM` and 5 from there on, and a step
    by x or by x**-1 2 additions; its read-out counts one per square or
    product: 2 for T, and for K 2 at even n and 3 at odd n.
    `mat_muls` counts the products of a power chain: whole 3x3 matrix
    products in `mat_pow`, each squaring and each step by x or 1/x of
    the polynomial kernel behind `trib_fast` and `lucas_fast`, and its
    read-out level; and each product of the root powers in
    `binet_trib` and `binet_lucas`, where a product of two
    arbitrary-precision numbers, real or complex, counts as one
    multiplication.
    """

    big_adds: int = 0
    big_muls: int = 0
    mat_muls: int = 0

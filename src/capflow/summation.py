"""Summation rules.

Compensated (Neumaier) summation gives the quadrature's panel totals;
pairwise summation is its running estimate between generations.  Network
composition uses math.fsum, which rounds correctly.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["neumaier_sum", "pairwise_sum"]


def neumaier_sum(values: Iterable[float]) -> float:
    """Sum floats with a running compensation term.

    The improved Kahan variant: the correction also captures the case where
    the incoming term is larger than the running total, so the result is
    faithful to within one final rounding regardless of ordering or
    magnitude spread.
    """
    total = 0.0
    compensation = 0.0
    for value in values:
        v = float(value)
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


# Width of the unrolled blocks and the largest run summed without splitting.
_UNROLL = 8
_BLOCK = 128


def pairwise_sum(values: list[float]) -> float:
    """Sum floats by numpy's float64 pairwise rule, bit for bit.

    The rule is the one ``numpy.sum`` applies to a contiguous float64
    array: runs under 8 are summed left to right, runs up to 128 by eight
    interleaved partial sums, longer runs split in two at a multiple of 8.
    The quadrature uses it so that its running estimate, kept in Python
    floats, equals the numpy sum it was first written with.
    """
    return _pairwise(values, 0, len(values))


def _pairwise(values: list[float], start: int, count: int) -> float:
    if count < _UNROLL:
        total = -0.0
        for value in values[start:start + count]:
            total += value
        return total
    if count <= _BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + _UNROLL]
        end = start + count - count % _UNROLL
        for i in range(start + _UNROLL, end, _UNROLL):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[end:start + count]:
            total += value
        return total
    half = count // 2
    half -= half % _UNROLL
    return _pairwise(values, start, half) + _pairwise(values, start + half, count - half)

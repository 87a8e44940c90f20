"""Summation.

The package sums with ``math.fsum``, which rounds correctly: the
quadrature's panel totals and network composition both use it.
``neumaier_sum`` is kept only because the benchmark harness
(``perfbench/workloads.py``) imports it; it goes when that harness is
reworked (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["neumaier_sum"]


def neumaier_sum(values: Iterable[float]) -> float:
    """Sum floats with a running compensation term.

    The improved Kahan variant: the correction also captures the case where
    the incoming term is larger than the running total, so the result is
    faithful to within one final rounding regardless of ordering or
    magnitude spread.  No package code calls it; it is kept for the
    benchmark harness only (see the module docstring).
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

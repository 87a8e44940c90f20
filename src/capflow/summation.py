"""Summation.

The package sums with ``math.fsum``, which rounds correctly: the
quadrature's panel totals and network composition both use it.
``neumaier_sum`` is ``math.fsum`` under the name the benchmark harness
(``perfbench/workloads.py``) imports; it goes when that harness is
reworked (ROADMAP item 1).
"""

from math import fsum as neumaier_sum

__all__ = ["neumaier_sum"]

"""Vectorized auction kernels — the ``"fast"`` selection path.

The package compiles an immutable :class:`AuctionInstance` into flat
arrays once (:class:`InstanceIndex`, cached on the instance) and runs
the paper's mechanisms on them: CSR row-sum load measures, a bitmask
greedy walk, an incremental remaining-load CAR, an O(n log n) uniform
price.  Every kernel is the bitwise twin of its pure-Python reference
(:mod:`repro.core.loads` / :mod:`repro.core.greedy` /
:mod:`repro.core.movement_window` / :mod:`repro.core.two_price`);
``tests/core/test_fastpath_differential.py`` pins the equivalence.

:meth:`repro.core.Mechanism.run` picks this path where it wins (see
there); ``selection="fast"`` names it.
"""

from repro.core.fastpath.index import InstanceIndex
from repro.core.fastpath.kernels import (
    FastTracker,
    bid_order_indices,
    density_order,
    density_priorities,
    greedy_walk,
    optimal_single_price_array,
    skip_over_walk,
)
from repro.core.fastpath.select import fast_select

__all__ = [
    "FastTracker",
    "InstanceIndex",
    "bid_order_indices",
    "density_order",
    "density_priorities",
    "fast_select",
    "greedy_walk",
    "optimal_single_price_array",
    "skip_over_walk",
]

"""The three load measures the paper's mechanisms are built on.

* **Total load** ``C^T_i`` — the sum of the loads of a query's
  operators, ignoring sharing (Section IV-C).  Used by CAT / CAT+.
* **Static fair-share load** ``C^SF_i`` — each operator's load divided
  by the number of *submitted* queries sharing it, summed over the
  query's operators (Definition 3).  Static: computed once from the
  submitted pool, independent of who wins.  Used by CAF / CAF+.
* **Remaining load** ``C^R_i`` — the load of the query's operators
  excluding those already provided by previously-chosen winners
  (Definition 2).  Dynamic: depends on the winner set so far.  Used by
  CAR for ranking, and by *every* mechanism for the capacity check,
  since the true marginal cost of admitting a query is its remaining
  load.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.model import AuctionInstance, Query


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added one by one, left to right.

    The order every load measure is defined in, and the one the fast
    kernels (:mod:`repro.core.fastpath`) reproduce bit for bit.  Unlike
    the built-in ``sum``, which compensates float rounding from Python
    3.12 on, this gives the same bits on every interpreter.  It starts
    from the integer ``0`` as ``sum`` does, so integer loads stay exact.
    """
    total = 0
    for value in values:
        total += value
    return total


def total_load(instance: AuctionInstance, query: Query) -> float:
    """``C^T_i``: sum of the query's operator loads (sharing ignored)."""
    return sequential_sum(
        instance.operator(op_id).load for op_id in query.operator_ids)


def static_fair_share_load(instance: AuctionInstance, query: Query) -> float:
    """``C^SF_i``: sum of per-operator loads split over sharers.

    An operator shared by ``l`` submitted queries contributes ``c_j / l``
    (Definition 3).  Sharing degrees come from the full submitted pool,
    so the measure is *static* over the course of winner selection.
    """
    return sequential_sum(
        instance.operator(op_id).load / instance.sharing_degree(op_id)
        for op_id in query.operator_ids
    )


def remaining_load(
    instance: AuctionInstance,
    query: Query,
    admitted_operator_ids: Iterable[str],
) -> float:
    """``C^R_i``: load of operators not already run for admitted winners.

    *admitted_operator_ids* is the set of operators belonging to queries
    already chosen; those are excluded because admitting *query* does not
    pay for them again (Definition 2).
    """
    admitted = set(admitted_operator_ids)
    return sequential_sum(
        instance.operator(op_id).load
        for op_id in query.operator_ids
        if op_id not in admitted
    )


class LoadTracker:
    """Incrementally tracks the union load of an admitted set.

    Greedy mechanisms admit queries one by one; the tracker maintains the
    set of already-running operators so each admission test is
    O(|operators of the query|) instead of recomputing the union.
    """

    def __init__(self, instance: AuctionInstance) -> None:
        self._instance = instance
        self._running_ops: set[str] = set()
        self._used = 0.0

    @property
    def used_capacity(self) -> float:
        """Union load of every query admitted so far."""
        return self._used

    @property
    def running_operator_ids(self) -> frozenset[str]:
        """Operators currently paid for by the admitted set."""
        return frozenset(self._running_ops)

    def marginal_load(self, query: Query) -> float:
        """Remaining (marginal) load of admitting *query* right now."""
        operators = self._instance.operators
        running = self._running_ops
        # sequential_sum, inlined: every admission test runs this.
        margin = 0
        for op_id in query.operator_ids:
            if op_id not in running:
                margin += operators[op_id].load
        return margin

    def fits(self, query: Query) -> bool:
        """True if *query* fits in the remaining capacity."""
        margin = self.marginal_load(query)
        return self._used + margin <= self._instance.capacity + 1e-9

    def admit(self, query: Query) -> float:
        """Admit *query*; returns the marginal load it added."""
        margin = self.marginal_load(query)
        self._running_ops.update(query.operator_ids)
        self._used += margin
        return margin

    def try_admit(self, query: Query) -> bool:
        """Admit *query* if it fits; single marginal-load computation."""
        margin = self.marginal_load(query)
        if self._used + margin > self._instance.capacity + 1e-9:
            return False
        self._running_ops.update(query.operator_ids)
        self._used += margin
        return True

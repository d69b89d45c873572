"""The auction coordinator: candidate collection + load estimation.

One of the three components the :class:`~repro.service.AdmissionService`
facade composes.  The coordinator owns the pending-submission queue and
turns "everything competing this period" into an
:class:`~repro.core.model.AuctionInstance`: it merges new submissions
with the currently-running queries (the paper re-auctions each period),
estimates per-operator loads analytically from stream rates, and
packages bids + loads + capacity for the mechanism.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, KeysView, Mapping, Set
from itertools import chain, islice

from repro.core.model import AuctionInstance, Operator, Query
from repro.dsms.load import estimate_operator_loads
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.utils.validation import ValidationError, require

#: ``(catalog, stream_rates) -> {op_id: load}`` — pluggable estimator.
LoadEstimator = Callable[[QueryPlanCatalog, Mapping[str, float]],
                         Mapping[str, float]]


def unknown_withdraw(query_id: str,
                     *pending: Collection[str]) -> ValidationError:
    """The error for withdrawing an id none of *pending* holds.

    Names the first few pending ids and their count, never all of
    them: the message reaches clients, and one client's typo must not
    cost O(pending) or list every other client's queries."""
    count = sum(map(len, pending))
    shown = ", ".join(islice(chain.from_iterable(pending), 5)) or "<none>"
    more = f", ... ({count} pending)" if count > 5 else ""
    return ValidationError(
        f"cannot withdraw unknown query id {query_id!r}; pending "
        f"ids: {shown}{more}")


class AuctionCoordinator:
    """Collects candidates and builds the per-period auction input."""

    def __init__(
        self,
        capacity: float,
        load_estimator: "LoadEstimator | None" = None,
    ) -> None:
        self.capacity = capacity
        self._load_estimator = load_estimator or estimate_operator_loads
        self._pending: dict[str, ContinuousQuery] = {}

    @property
    def capacity(self) -> float:
        """The auction capacity (validated on every assignment)."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: float) -> None:
        value = float(value)
        require(value > 0, "capacity must be positive")
        self._capacity = value

    # ------------------------------------------------------------------
    # The pending queue
    # ------------------------------------------------------------------

    @property
    def pending(self) -> dict[str, ContinuousQuery]:
        """Copy of the queued (not yet auctioned) submissions."""
        return dict(self._pending)

    @property
    def pending_ids(self) -> KeysView[str]:
        """Ids of the queued submissions.

        A live read-only view (membership, ``len``, truthiness and set
        operators all work); copy it with ``set(...)`` before holding
        it across a submit, withdraw or settle."""
        return self._pending.keys()

    def submit(
        self,
        query: ContinuousQuery,
        reserved_ids: "Set[str]" = frozenset(),
    ) -> None:
        """Queue *query* for the next auction.

        *reserved_ids* are ids already taken elsewhere (the running
        queries in the engine); collisions with them or with the queue
        are rejected.
        """
        require(query.bid >= 0, "bids must be non-negative")
        if query.query_id in self._pending or query.query_id in reserved_ids:
            raise ValidationError(
                f"query id {query.query_id!r} already submitted")
        self._pending[query.query_id] = query

    def withdraw(self, query_id: str) -> ContinuousQuery:
        """Remove and return a not-yet-auctioned submission."""
        try:
            return self._pending.pop(query_id)
        except KeyError:
            raise unknown_withdraw(query_id, self._pending) from None

    def clear(self) -> None:
        """Drop the whole queue (after its auction ran)."""
        self._pending.clear()

    def restore_pending(
        self, pending: Mapping[str, ContinuousQuery]
    ) -> None:
        """Replace the queue wholesale (snapshot restore)."""
        self._pending = dict(pending)

    # ------------------------------------------------------------------
    # Auction building
    # ------------------------------------------------------------------

    def collect(
        self, running: Mapping[str, ContinuousQuery]
    ) -> dict[str, ContinuousQuery]:
        """All candidates for the next period: queued + running."""
        candidates = dict(self._pending)
        candidates.update(running)
        return candidates

    def build(
        self,
        candidates: Mapping[str, ContinuousQuery],
        stream_rates: Mapping[str, float],
    ) -> AuctionInstance:
        """Package *candidates* into an auction instance.

        Loads are estimated by propagating *stream_rates* through the
        merged (shared) operator graph of all candidates.
        """
        if not candidates:
            raise ValidationError("no queries to auction")
        catalog = QueryPlanCatalog(candidates.values())
        loads = self._load_estimator(catalog, stream_rates)
        operators = {
            op_id: Operator(op_id, loads.get(op_id, 0.0))
            for op_id in catalog.operators
        }
        queries = tuple(
            Query(
                query_id=q.query_id,
                operator_ids=q.operator_ids,
                bid=q.bid,
                valuation=q.valuation,
                owner=q.owner,
            )
            for q in candidates.values()
        )
        return AuctionInstance(operators, queries, self.capacity)

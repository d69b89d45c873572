"""Cross-shard rebalancing: second-chance placement of rejected load.

After all shard auctions of a period settle, some shards rejected
queries for lack of capacity while others have headroom to spare.  The
:class:`Rebalancer` migrates rejected queries onto shards whose
admitted set leaves spare capacity, using each target shard's existing
:class:`~repro.service.TransitionManager` so the move goes through the
paper's transition phase (tuples held, subnetworks drained) — not a
side door into the engine.

Migration economics: a migrated query pays **nothing** for the
remainder of the period.  The spare capacity would otherwise idle, and
charging a rejected query its bid would break strategyproofness (bids
would buy migration priority).  From the next period on the query is a
running candidate on its new shard and competes in that shard's
auction like everyone else.  The invariant suite pins this down: a
migrated query is never billed twice — in fact never billed at all —
in the period it migrates.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.cluster.reports import Migration
from repro.dsms.plan import ContinuousQuery
from repro.service.service import AdmissionService, PeriodSettlement
from repro.utils.validation import require

#: Numeric slack when comparing loads against spare capacity.
_EPSILON = 1e-9


def _required_streams(query: ContinuousQuery) -> set[str]:
    """The source-stream names a query's operator graph reads."""
    op_ids = {op.op_id for op in query.operators}
    return {name for op in query.operators
            for name in op.inputs if name not in op_ids}


class Rebalancer:
    """Migrates auction-rejected queries to shards with spare capacity.

    Deterministic by construction: rejected queries are considered in
    (origin shard, query id) order, and each goes to the eligible
    shard with the most spare capacity (ties toward the lowest index).
    A query's load is its *standalone* demand — the union load of its
    operators in the origin auction — which over-counts sharing on the
    target and therefore never over-commits it.

    ``max_migrations`` caps moves per period (None = unbounded).
    """

    def __init__(self, max_migrations: "int | None" = None) -> None:
        if max_migrations is not None:
            require(int(max_migrations) >= 0,
                    "max_migrations must be >= 0")
            max_migrations = int(max_migrations)
        self.max_migrations = max_migrations

    def rebalance(
        self,
        shards: Sequence[AdmissionService],
        settlements: Mapping[int, PeriodSettlement],
        loads: Mapping[int, Mapping[str, float]],
    ) -> tuple[Migration, ...]:
        """Apply post-auction migrations; returns what moved where.

        *settlements* maps shard index → that shard's settled period
        (idle shards absent) and *loads* shard index → query id → the
        standalone load of each of its ``rejected`` the auction priced,
        in order (one it could not price stays where it is).  Target
        engines are transitioned immediately, so callers must rebalance
        *before* executing the period
        (:meth:`AdmissionService.execute_period`).
        """
        spare = {
            index: shard.capacity - (
                settlements[index].outcome.used_capacity
                if index in settlements else 0.0)
            for index, shard in enumerate(shards)
        }
        streams = {
            index: {source.name for source in shard.sources}
            for index, shard in enumerate(shards)
        }
        roomiest = max(spare.values())
        migrations: list[Migration] = []
        for origin in sorted(settlements):
            settlement = settlements[origin]
            for query_id, load in loads[origin].items():
                if (self.max_migrations is not None
                        and len(migrations) >= self.max_migrations):
                    return tuple(migrations)
                if roomiest + _EPSILON < load:
                    continue  # after an auction, nearly all: fits nowhere
                query = settlement.candidates[query_id]
                target = self._pick_target(
                    query, query_id, origin, shards, spare, streams, load)
                if target is None:
                    continue
                self._migrate(shards[target], query)
                spare[target] -= load
                roomiest = max(spare.values())
                migrations.append(Migration(
                    query_id=query_id, origin=origin, target=target,
                    load=load))
        return tuple(migrations)

    def _pick_target(
        self,
        query: ContinuousQuery,
        query_id: str,
        origin: int,
        shards: Sequence[AdmissionService],
        spare: Mapping[int, float],
        streams: Mapping[int, set],
        load: float,
    ) -> "int | None":
        """The eligible shard with the most spare capacity, if any."""
        needed = _required_streams(query)
        best, best_spare = None, None
        for index, shard in enumerate(shards):
            if index == origin:
                continue  # the origin's auction already refused it
            if spare[index] + _EPSILON < load:
                continue
            if not needed <= streams[index]:
                continue  # the target cannot feed the query's plan
            if (query_id in shard.engine.admitted_ids
                    or query_id in shard.pending_ids):
                continue
            if best is None or spare[index] > best_spare:
                best, best_spare = index, spare[index]
        return best

    @staticmethod
    def _migrate(target: AdmissionService, query: ContinuousQuery) -> None:
        """Admit *query* on *target* through its transition manager."""
        admitted = sorted({*target.engine.admitted_ids, query.query_id})
        target.transitions.apply(
            target.engine, admitted, {query.query_id: query})

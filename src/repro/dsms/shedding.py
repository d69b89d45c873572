"""Tuple-level load shedding — the contrast the paper's intro draws.

"Most data stream admission control (load shedding) algorithms work at
the tuple level ... we believe that focusing on the query level, as we
do in this work, is equally important."  To make that comparison
executable, this module implements classic tuple-level shedders that
drop input tuples when a tick's work would exceed capacity:

* :class:`RandomShedder` — uniform random drops over the overload
  fraction (the baseline of the Aurora load-shedding line of work);
* :class:`PriorityShedder` — drops from the streams feeding the
  lowest-bid queries first (a semantic shedder).

``run_shedding_comparison`` pits "admit everyone + shed tuples"
against "auction the queries, run winners unshed" on the same engine
workload, reporting delivered results and collected revenue — the
query-level mechanisms earn revenue and deliver complete results to
winners, while shedding serves everyone a degraded stream for free.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.mechanism import Mechanism
from repro.dsms.engine import StreamEngine
from repro.dsms.load import auction_instance_from_catalog
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.dsms.streams import StreamSource
from repro.dsms.tuples import StreamTuple
from repro.utils.rng import spawn_rng


class TupleShedder(abc.ABC):
    """Decides which arriving tuples to drop under overload."""

    def __init__(self) -> None:
        self.dropped = 0

    @abc.abstractmethod
    def shed(
        self,
        arrivals: Mapping[str, Sequence[StreamTuple]],
        overload_fraction: float,
    ) -> dict[str, list[StreamTuple]]:
        """Return the kept tuples given the fraction that must go."""


class RandomShedder(TupleShedder):
    """Uniformly random tuple drops across all streams."""

    def __init__(self, seed: "int | np.random.Generator | None" = 0):
        super().__init__()
        self._rng = spawn_rng(seed)

    def shed(self, arrivals, overload_fraction):
        kept: dict[str, list[StreamTuple]] = {}
        for stream, batch in arrivals.items():
            keep_mask = self._rng.random(len(batch)) >= overload_fraction
            kept[stream] = [t for t, keep in zip(batch, keep_mask)
                            if keep]
            self.dropped += len(batch) - len(kept[stream])
        return kept


class PriorityShedder(TupleShedder):
    """Sheds streams feeding low-bid queries first.

    ``stream_priorities`` maps stream name → the maximum bid of any
    query consuming it; the lowest-priority streams absorb the drops.
    """

    def __init__(
        self,
        stream_priorities: Mapping[str, float],
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        super().__init__()
        self._priorities = dict(stream_priorities)
        self._rng = spawn_rng(seed)

    def shed(self, arrivals, overload_fraction):
        total = sum(len(batch) for batch in arrivals.values())
        to_drop = int(round(total * overload_fraction))
        kept = {stream: list(batch)
                for stream, batch in arrivals.items()}
        by_priority = sorted(
            kept, key=lambda s: self._priorities.get(s, 0.0))
        for stream in by_priority:
            if to_drop <= 0:
                break
            batch = kept[stream]
            drop_here = min(to_drop, len(batch))
            if drop_here:
                drop_idx = set(self._rng.choice(
                    len(batch), size=drop_here, replace=False).tolist())
                kept[stream] = [t for i, t in enumerate(batch)
                                if i not in drop_idx]
                self.dropped += drop_here
                to_drop -= drop_here
        return kept


class SheddingEngine(StreamEngine):
    """A stream engine that sheds tuples instead of refusing queries.

    Every submitted query runs; when a tick's projected work exceeds
    capacity, the shedder drops the overload fraction of arriving
    tuples *before* processing.  Nobody pays anything.
    """

    def __init__(
        self,
        sources,
        capacity: float,
        shedder: TupleShedder,
    ) -> None:
        super().__init__(sources, capacity=capacity)
        self.shedder = shedder

    def _process(self, arrivals, source_count):
        projected = self._projected_work(arrivals)
        if self.capacity is not None and projected > self.capacity:
            overload_fraction = 1.0 - self.capacity / projected
            arrivals = self.shedder.shed(arrivals, overload_fraction)
        super()._process(arrivals, source_count)

    def _projected_work(self, arrivals) -> float:
        """Estimate the tick's work from arrival counts and operator
        selectivities (rates propagate like the load estimator)."""
        rates: dict[str, float] = {
            stream: float(len(batch))
            for stream, batch in arrivals.items()
        }
        work = 0.0
        for op in self.catalog.topological_order():
            input_rate = sum(rates.get(name, 0.0) for name in op.inputs)
            work += input_rate * op.cost_per_tuple
            rates[op.op_id] = input_rate * op.selectivity()
        return work


@dataclass(frozen=True)
class SheddingComparison:
    """Admission control vs. tuple shedding on one workload."""

    admission_revenue: float
    admission_delivered: Mapping[str, int]
    admission_winner_ids: tuple[str, ...]
    shedding_delivered: Mapping[str, int]
    shedding_dropped: int

    @property
    def winners_served_fully(self) -> bool:
        """Did every auction winner receive undegraded results?"""
        return all(self.admission_delivered.get(qid, 0) > 0
                   for qid in self.admission_winner_ids)


def run_shedding_comparison(
    make_sources,
    queries: Sequence[ContinuousQuery],
    capacity: float,
    mechanism: Mechanism,
    ticks: int = 50,
    shedder_seed: int = 0,
) -> SheddingComparison:
    """Run both strategies on identical source streams.

    ``make_sources()`` must build a *fresh* list of seeded sources per
    call so both engines see the same arrivals.
    """
    # Strategy A: auction at the period boundary, run winners only.
    auction_sources: list[StreamSource] = make_sources()
    rates = {s.name: s.expected_rate() for s in auction_sources}
    catalog = QueryPlanCatalog(queries)
    instance = auction_instance_from_catalog(catalog, rates, capacity)
    outcome = mechanism.run(instance)
    admission_engine = StreamEngine(auction_sources, capacity=capacity)
    for query in queries:
        if outcome.is_winner(query.query_id):
            admission_engine.admit(query)
    admission_engine.run(ticks)

    # Strategy B: admit everyone, shed tuples under overload.
    shed_sources: list[StreamSource] = make_sources()
    shedder = RandomShedder(seed=shedder_seed)
    shedding_engine = SheddingEngine(
        shed_sources, capacity=capacity, shedder=shedder)
    for query in queries:
        shedding_engine.admit(query)
    shedding_engine.run(ticks)

    return SheddingComparison(
        admission_revenue=outcome.profit,
        admission_delivered={
            qid: len(results)
            for qid, results in admission_engine.results.items()},
        admission_winner_ids=tuple(sorted(outcome.winner_ids)),
        shedding_delivered={
            qid: len(results)
            for qid, results in shedding_engine.results.items()},
        shedding_dropped=shedder.dropped,
    )

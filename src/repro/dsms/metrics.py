"""Engine run reports: throughput, work, utilization."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence


@dataclass
class EngineReport:
    """Accumulated statistics of an engine run.

    ``work_per_tick`` is the mean aggregate work executed per tick —
    the engine-side counterpart of the auction's "used capacity"; with
    a configured capacity, ``utilization`` normalizes it and
    ``overload_ticks`` counts ticks whose work exceeded capacity.
    """

    ticks: int = 0
    source_tuples: int = 0
    delivered_tuples: Mapping[str, int] = field(default_factory=dict)
    total_work: float = 0.0
    capacity: float | None = None
    overload_ticks: int = 0

    @property
    def work_per_tick(self) -> float:
        """Mean work per tick over the run."""
        if self.ticks == 0:
            return 0.0
        return self.total_work / self.ticks

    @property
    def utilization(self) -> float | None:
        """Mean work as a fraction of capacity (None if unlimited)."""
        if self.capacity is None or self.ticks == 0:
            return None
        return self.work_per_tick / self.capacity

    def merge_tick(
        self,
        source_count: int,
        work: float,
        delivered: Mapping[str, int],
    ) -> None:
        """Fold one tick's numbers into the report."""
        self.merge_ticks(source_count, (work,), delivered)

    def merge_ticks(
        self,
        source_count: int,
        works: Sequence[float],
        delivered: Mapping[str, int],
    ) -> None:
        """Fold ``len(works)`` ticks into the report: their source
        tuples, each tick's aggregate work in tick order (so the total
        and the overload count match one :meth:`merge_tick` per tick)
        and the tuples each query was delivered."""
        self.ticks += len(works)
        self.source_tuples += source_count
        capacity = self.capacity
        for work in works:
            self.total_work += work
            if capacity is not None and work > capacity:
                self.overload_ticks += 1
        # Accumulate in place: copying the whole per-query dict every
        # tick is quadratic over a long run.  Instances deserialized
        # from old snapshots may hold a shared mapping, so rebind once.
        counts = self.delivered_tuples
        if type(counts) is not dict:
            self.delivered_tuples = counts = dict(counts)
        for query_id, count in delivered.items():
            counts[query_id] = counts.get(query_id, 0) + count

"""Cluster-level business reports.

:class:`ClusterReport` is the federation counterpart of
:class:`~repro.service.PeriodReport`: one record per cluster period,
aggregating every shard's period report plus the cross-shard
migrations the rebalancer performed.  Like the shard report it has a
versioned JSON schema in :mod:`repro.io`
(:func:`repro.io.cluster_report_to_dict` /
:func:`repro.io.cluster_report_from_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.reports import PeriodReport
from repro.utils.records import share_on_deepcopy


@dataclass(frozen=True)
class Migration:
    """One rejected query re-placed onto a shard with spare capacity."""

    query_id: str
    origin: int
    target: int
    load: float

    __deepcopy__ = share_on_deepcopy


@dataclass(frozen=True)
class ClusterReport:
    """One cluster period's aggregated business summary.

    ``shard_reports`` holds exactly one :class:`PeriodReport` per shard
    (idle shards report under the mechanism name ``"idle"`` with an
    empty auction).  ``shard_capacities`` are the shards' *service*
    capacities — recorded separately because a ``pre_auction`` hook may
    auction under a different capacity than the engine executes with.
    ``rejected_load`` is the summed standalone demand of the queries
    that stayed rejected after rebalancing — the load the cluster
    turned away this period.
    """

    period: int
    shard_reports: tuple[PeriodReport, ...]
    shard_capacities: tuple[float, ...]
    migrations: tuple[Migration, ...]
    rejected_load: float

    __deepcopy__ = share_on_deepcopy

    def __post_init__(self) -> None:
        if len(self.shard_capacities) != len(self.shard_reports):
            raise ValueError(
                f"{len(self.shard_reports)} shard reports but "
                f"{len(self.shard_capacities)} shard capacities")

    @property
    def num_shards(self) -> int:
        """Number of shards that reported this period."""
        return len(self.shard_reports)

    @property
    def total_revenue(self) -> float:
        """Cluster profit: the sum of every shard's billed revenue."""
        return sum(report.revenue for report in self.shard_reports)

    @property
    def admitted(self) -> tuple[str, ...]:
        """All query ids admitted by any shard's auction, sorted."""
        return tuple(sorted(
            qid for report in self.shard_reports for qid in report.admitted))

    @property
    def migrated(self) -> tuple[str, ...]:
        """Query ids the rebalancer re-placed this period, sorted."""
        return tuple(sorted(m.query_id for m in self.migrations))

    @property
    def rejected(self) -> tuple[str, ...]:
        """Query ids that stayed rejected after rebalancing, sorted."""
        placed = set(self.migrated)
        return tuple(sorted(
            qid for report in self.shard_reports for qid in report.rejected
            if qid not in placed))

    @property
    def utilization(self) -> "float | None":
        """Capacity-weighted mean engine utilization across shards.

        Each shard's ``engine_utilization`` is normalized by its
        service capacity, so weighting by :attr:`shard_capacities`
        makes this exactly (total measured work) / (total cluster
        capacity) over the shards that executed.
        """
        weighted, capacity = 0.0, 0.0
        for report, shard_capacity in zip(self.shard_reports,
                                          self.shard_capacities):
            if report.engine_utilization is None:
                continue
            weighted += report.engine_utilization * shard_capacity
            capacity += shard_capacity
        return (weighted / capacity) if capacity else None

"""The federated admission service: N shards behind one facade.

The paper runs one DSMS center per subscription period; the north-star
deployment runs many.  :class:`FederatedAdmissionService` owns N
independent :class:`~repro.service.AdmissionService` shards and gives
them one front door:

* **routing** — :meth:`submit` sends each query to a shard the caller
  pins or :meth:`route` picks with a pluggable
  :class:`~repro.cluster.placement.PlacementPolicy` (consistent-hash on
  client id, least-loaded, round-robin), with cluster-wide query-id
  uniqueness enforced before the shard sees it;
* **the cluster period** — :meth:`run_period` drives every shard
  through the prepare → auction → settle → rebalance → execute cycle
  in lockstep, auctioning shard by shard in shard order and stopping
  at the first failure.  Auctions are side-effect-free until
  settlement;
* **rebalancing** — an optional
  :class:`~repro.cluster.rebalance.Rebalancer` migrates rejected
  queries onto shards with spare capacity between settle and execute;
* **aggregation** — each period yields a
  :class:`~repro.cluster.ClusterReport` (total profit, capacity-
  weighted utilization, rejected load, migrations);
* **checkpointing** — :meth:`snapshot` / :meth:`restore` and
  :meth:`save_checkpoint` / :meth:`load_checkpoint` compose every
  shard's snapshot envelope into one versioned cluster snapshot with
  the same guarantee as a single service: the resumed run is
  byte-identical to the uninterrupted one.

The driver, the gateway and WAL recovery hold this one host type: a
bare service is a *solo* federation of one (see
:meth:`FederatedAdmissionService.of`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.cluster.placement import (
    PlacementPolicy,
    ShardStatus,
    resolve_placement,
)
from repro.cluster.rebalance import Rebalancer
from repro.cluster.reports import ClusterReport, Migration
from repro.dsms.plan import ContinuousQuery
from repro.service.builder import ServiceBuilder
from repro.service.coordinator import unknown_withdraw
from repro.service.reports import PeriodReport
from repro.service.service import AdmissionService, ServiceSnapshot
from repro.utils.validation import ValidationError, require

#: Version of the in-memory cluster snapshot layout.
CLUSTER_STATE_VERSION = 1


@dataclass(frozen=True)
class ClusterSnapshot:
    """A deep, self-contained copy of a federation's evolving state.

    Composes one :class:`~repro.service.ServiceSnapshot` per shard with
    the cluster-level state: the placement policy (including any
    cursor/ring state), the rebalancer, the period counter, and the
    report history.  Obtained from
    :meth:`FederatedAdmissionService.snapshot`; restored any number of
    times.  Shard hooks are code, not state — re-attach them per shard
    after restore.
    """

    version: int
    placement: PlacementPolicy
    rebalancer: "Rebalancer | None"
    period: int
    reports: tuple[ClusterReport, ...]
    shards: tuple[ServiceSnapshot, ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValidationError("cluster snapshot has no shards")


class FederatedAdmissionService:
    """A sharded, checkpointable federation of admission services.

    Build one from existing shards, or with :meth:`build` for the
    homogeneous case.  Shards stay fully independent services — each
    with its own engine, ledger, mechanism and hooks — so everything
    that works on one :class:`AdmissionService` (hooks, introspection,
    per-shard checkpoints) still works on ``cluster.shards[i]``.  It
    starts at the period its shards are at, which must be one period.
    """

    def __init__(
        self,
        *,
        shards: Sequence[AdmissionService],
        placement: "PlacementPolicy | str" = "consistent-hash",
        rebalancer: "Rebalancer | None" = None,
    ) -> None:
        shards = tuple(shards)
        require(len(shards) >= 1, "a federation needs at least one shard")
        if len({id(shard) for shard in shards}) != len(shards):
            raise ValidationError(
                "the same AdmissionService object appears twice in the "
                "shard list; every shard must be an independent service")
        periods = [shard.period for shard in shards]
        if len(set(periods)) != 1:
            raise ValidationError(
                f"shards are at periods {periods}; a federation runs "
                f"its shards in lockstep, so they must start at the "
                f"same period")
        self.shards: tuple[AdmissionService, ...] = shards
        self.placement = resolve_placement(placement)
        self.rebalancer = rebalancer
        self._period = periods[0]
        self._solo = False
        self.reports: list[ClusterReport] = []

    @classmethod
    def of(cls, target: object) -> "FederatedAdmissionService":
        """*target* as a federation: a federation passes through, and a
        bare :class:`AdmissionService` becomes a *solo* federation of
        one, which reports and saves as the service itself."""
        if isinstance(target, cls):
            return target
        if isinstance(target, AdmissionService):
            federation = cls(shards=(target,))
            federation._solo = True
            return federation
        raise ValidationError(
            f"cannot host {type(target).__name__}; pass an "
            f"AdmissionService or a FederatedAdmissionService")

    def host_state(self) -> "tuple[str, ServiceSnapshot | ClusterSnapshot]":
        """The ``(kind, payload)`` pair drivers and gateways save: the
        service's own snapshot for a solo federation."""
        if self._solo:
            return "service", self.shards[0].snapshot()
        return "cluster", self.snapshot()

    @classmethod
    def from_host_state(cls, kind: str,
                        payload: object) -> "FederatedAdmissionService":
        """Rebuild a host from a :meth:`host_state` pair."""
        if kind == "service":
            return cls.of(AdmissionService.restore(payload))
        if kind == "cluster":
            return cls.restore(payload)
        raise ValidationError(
            f"unknown simulation host kind {kind!r}; this build restores "
            f"'service' and 'cluster'")

    @classmethod
    def build(
        cls,
        *,
        num_shards: int,
        sources: Iterable,
        capacity: float,
        mechanism: object,
        ticks_per_period: int = 50,
        hold_ticks: int = 1,
        placement: "PlacementPolicy | str" = "consistent-hash",
        rebalance: bool = True,
    ) -> "FederatedAdmissionService":
        """Assemble a homogeneous cluster of *num_shards* shards.

        Each shard gets a deep copy of *sources* (independent stream
        RNGs) and, when *mechanism* is a spec string or
        :class:`MechanismSpec`, its own mechanism instance — so
        randomized mechanisms hold independent per-shard RNG streams.
        Passing a live :class:`Mechanism` object shares it across
        shards (its randomness is then consumed in shard-index order).
        *capacity* is per shard: the cluster offers ``num_shards ×
        capacity`` total work units per tick.
        """
        require(int(num_shards) >= 1, "num_shards must be >= 1")
        builder = (ServiceBuilder()
                   .with_sources(*sources)
                   .with_capacity(capacity)
                   .with_mechanism(mechanism)
                   .with_ticks_per_period(ticks_per_period)
                   .with_hold_ticks(hold_ticks))
        shards = [builder.build() for _ in range(int(num_shards))]
        return cls(
            shards=shards,
            placement=placement,
            rebalancer=Rebalancer() if rebalance else None,
        )

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many shards the federation owns."""
        return len(self.shards)

    @property
    def period(self) -> int:
        """Index of the last completed cluster period (0 = none)."""
        return self._period

    def shard_statuses(self) -> tuple[ShardStatus, ...]:
        """The per-shard view placement policies route on."""
        return tuple([
            ShardStatus(index, shard.capacity, len(shard.pending_ids),
                        len(shard.engine.admitted_ids))
            for index, shard in enumerate(self.shards)])

    def locate(self, query_id: str) -> "int | None":
        """The shard currently holding *query_id* (pending or running)."""
        for index, shard in enumerate(self.shards):
            if (query_id in shard.pending_ids
                    or query_id in shard.engine.admitted_ids):
                return index
        return None

    def route(self, query: ContinuousQuery) -> int:
        """The shard the placement policy picks for *query*, checked.

        A one-shard federation answers 0 without consulting the policy.
        """
        if len(self.shards) == 1:
            return 0
        index = self.placement.choose(query, self.shard_statuses())
        if not 0 <= index < len(self.shards):
            raise ValidationError(
                f"placement policy {self.placement.name!r} chose shard "
                f"{index}, but the cluster has shards 0.."
                f"{len(self.shards) - 1}")
        return index

    def submit(self, query: ContinuousQuery,
               shard: "int | None" = None) -> int:
        """Queue *query* on a shard; returns the shard index.

        ``shard=None`` routes by :meth:`route`; an explicit index pins
        the query to that shard (per-shard event streams).  Query ids
        are unique cluster-wide: a collision with any shard's pending
        queue or running set is rejected here, before the placement
        policy runs.
        """
        if shard is not None and not 0 <= shard < len(self.shards):
            raise ValidationError(
                f"shard {shard} out of range; the cluster has shards "
                f"0..{len(self.shards) - 1}")
        existing = self.locate(query.query_id)
        if existing is not None:
            raise ValidationError(
                f"query id {query.query_id!r} already submitted "
                f"(held by shard {existing})")
        if shard is None:
            shard = self.route(query)
        self.shards[shard].submit(query)
        return shard

    def withdraw(self, query_id: str) -> ContinuousQuery:
        """Withdraw a pending submission from whichever shard holds it."""
        for shard in self.shards:
            if query_id in shard.pending_ids:
                return shard.withdraw(query_id)
        raise unknown_withdraw(
            query_id, *(shard.pending_ids for shard in self.shards))

    @property
    def pending_ids(self) -> set[str]:
        """Union of every shard's pending queue."""
        ids: set[str] = set()
        for shard in self.shards:
            ids |= shard.pending_ids
        return ids

    # ------------------------------------------------------------------
    # The cluster period
    # ------------------------------------------------------------------

    def run_period(self) -> "ClusterReport | PeriodReport":
        """Run one cluster period, auctioning shard by shard.

        A shard with nothing pending and nothing running idles through
        the period.  A solo federation returns its service's own
        :class:`~repro.service.PeriodReport` and records no
        :class:`ClusterReport`.
        """
        if self._solo:
            shard = self.shards[0]
            try:
                if shard.pending_ids or shard.engine.admitted_ids:
                    return shard.run_period()
                return shard.run_idle_period()
            finally:
                self._period = shard.period
        # Phase A/B — prepare and auction.  Nothing is billed or
        # transitioned yet, so a failure here (a pre_auction hook, a
        # mechanism bug) rolls back cleanly: shard counters return to
        # where they were, pending queues are untouched, and the
        # period can simply be retried.  Every active shard is
        # prepared before the first auction, and auctions run in shard
        # order and stop at the first error: if shard k's auction
        # raises, the mechanisms of the active shards before k have
        # each consumed exactly one period of randomness, k's whatever
        # it drew before raising, and those after k none — so a
        # retried period with randomized mechanisms is valid but not
        # bit-equal to a never-failed run; restore from a checkpoint
        # for that.
        active = [
            index for index, shard in enumerate(self.shards)
            if shard.pending_ids or shard.engine.admitted_ids
        ]
        preparations = {}
        try:
            for index in active:
                preparations[index] = self.shards[index].prepare_period()
            outcomes = [
                self.shards[index].mechanism.run(
                    preparations[index].instance)
                for index in active
            ]
        except Exception:
            for index in preparations:
                self.shards[index]._period -= 1
            raise

        # Phase C/D/E — settle, rebalance, execute.  From the first
        # settlement on, shards bill and transition, which cannot be
        # undone; the period is therefore *committed* here.  On a
        # failure the exception propagates with every shard's counter
        # aligned to the committed period (unsettled shards keep their
        # pending queues and re-auction them next period); no report
        # is recorded, and invoices already written stand — restore
        # from the last checkpoint for all-or-nothing recovery.
        self._period += 1
        try:
            settlements = {
                index: self.shards[index].settle_period(
                    preparations[index], outcome)
                for index, outcome in zip(active, outcomes)
            }
            loads = {}
            for index, settlement in settlements.items():
                instance = settlement.outcome.instance
                loads[index] = {query_id: instance.union_load([query_id])
                                for query_id in settlement.rejected
                                if instance.has_query(query_id)}
            migrations: tuple[Migration, ...] = ()
            if self.rebalancer is not None:
                migrations = self.rebalancer.rebalance(
                    self.shards, settlements, loads)
            shard_reports = tuple(
                (shard.execute_period(settlements[index])
                 if index in settlements else shard.run_idle_period())
                for index, shard in enumerate(self.shards)
            )
        except Exception:
            for shard in self.shards:
                if shard._period < self._period:
                    shard._period = self._period
            raise
        placed = {migration.query_id for migration in migrations}
        rejected_load = float(sum(
            load
            for priced in loads.values()
            for query_id, load in priced.items()
            if query_id not in placed
        ))
        report = ClusterReport(
            period=self._period,
            shard_reports=shard_reports,
            shard_capacities=tuple(
                shard.capacity for shard in self.shards),
            migrations=migrations,
            rejected_load=rejected_load,
        )
        self.reports.append(report)
        return report

    def run_period_all(self) -> ClusterReport:
        """:meth:`run_period` under the name the frozen benchmark lists.

        ``benchmarks/macro/spans.py::TARGETS`` resolves this name, which
        is the only reason it exists; call :meth:`run_period`.
        """
        return self.run_period()

    def run_periods(
        self,
        submissions_per_period: Iterable[Sequence[ContinuousQuery]],
    ) -> list[ClusterReport]:
        """Run several periods, routing each batch before its auction.

        Batches are pulled lazily, one per period, as in
        :meth:`AdmissionService.run_periods`.
        """
        reports = []
        for batch in submissions_per_period:
            for query in batch:
                self.submit(query)
            reports.append(self.run_period())
        return reports

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_revenue(self) -> float:
        """Cluster revenue over all billed periods and shards."""
        return sum(shard.total_revenue() for shard in self.shards)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> ClusterSnapshot:
        """Capture the whole federation as a restorable snapshot."""
        return ClusterSnapshot(
            version=CLUSTER_STATE_VERSION,
            placement=copy.deepcopy(self.placement),
            rebalancer=copy.deepcopy(self.rebalancer),
            period=self._period,
            reports=tuple(self.reports),
            shards=tuple(shard.snapshot() for shard in self.shards),
        )

    @classmethod
    def restore(cls, snapshot: ClusterSnapshot) -> "FederatedAdmissionService":
        """Rebuild a live federation from *snapshot*.

        Live state is copied out of the snapshot and the immutable
        report history is shared with it, so it can be restored again
        later.  Shard hooks are not serialized state; re-attach them on
        ``cluster.shards[i].hooks`` after restore.
        """
        if snapshot.version != CLUSTER_STATE_VERSION:
            raise ValidationError(
                f"cannot restore cluster snapshot version "
                f"{snapshot.version}; this build supports version "
                f"{CLUSTER_STATE_VERSION}")
        cluster = cls(
            shards=[AdmissionService.restore(shard)
                    for shard in snapshot.shards],
            placement=copy.deepcopy(snapshot.placement),
            rebalancer=copy.deepcopy(snapshot.rebalancer))
        cluster._period = snapshot.period
        cluster.reports = list(snapshot.reports)
        return cluster

    def save_checkpoint(self, path: object) -> None:
        """Write a restorable cluster checkpoint (see :mod:`repro.io`).

        The file is one versioned envelope composing every shard's
        snapshot envelope; the same picklability rules as per-service
        checkpoints apply (module-level functions, no lambdas).  Only
        load checkpoints you trust.
        """
        from repro.io import save_cluster_snapshot

        save_cluster_snapshot(self.snapshot(), path)

    @classmethod
    def load_checkpoint(cls, path: object) -> "FederatedAdmissionService":
        """Resume a federation from a :meth:`save_checkpoint` file."""
        from repro.io import load_cluster_snapshot

        return cls.restore(load_cluster_snapshot(path))

"""The admission service facade.

:class:`AdmissionService` is the stable public API of the for-profit
DSMS of Section I/VII: clients submit continuous queries with bids; at
each subscription-period boundary the service runs the admission
auction, bills the winners, transitions the stream engine to the new
admitted set, and executes it for the period.

The facade owns no policy of its own — it composes three pluggable
components plus a hook registry:

* :class:`~repro.service.coordinator.AuctionCoordinator` — pending
  queue and auction input, priced at arrival, assembled at the tick;
* :class:`~repro.service.transition.TransitionManager` — engine
  add/remove/transition;
* :class:`~repro.cloud.billing.BillingLedger` — invoicing and audit;
* :class:`~repro.service.hooks.HookRegistry` — lifecycle middleware
  (``on_submit``, ``pre_auction``, ``post_auction``, ``on_transition``,
  ``on_billing``).

A service can be checkpointed (:meth:`AdmissionService.snapshot`) and
resumed (:meth:`AdmissionService.restore`) mid-run: the snapshot
captures every piece of evolving state — pending queue, engine
(including source RNG states), ledger, mechanism randomness, period
counter, past reports — so the resumed run is bit-for-bit identical to
the uninterrupted one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from collections.abc import Iterable, KeysView, Mapping, Sequence

from repro.core.mechanism import Mechanism, MechanismSpec, resolve_mechanism
from repro.core.model import AuctionInstance
from repro.core.result import AuctionOutcome
from repro.dsms.engine import StreamEngine
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import StreamSource
from repro.service.coordinator import AuctionCoordinator
from repro.service.hooks import HookRegistry
from repro.service.reports import PeriodReport
from repro.service.transition import TransitionManager
from repro.utils.validation import ValidationError

#: Version of the in-memory snapshot layout below.
SNAPSHOT_STATE_VERSION = 1

_STATE_FIELDS = (
    "capacity", "ticks_per_period", "hold_ticks", "mechanism",
    "sources", "engine", "pending", "ledger", "period", "reports",
)


@dataclass(frozen=True)
class PeriodPreparation:
    """The auction-ready input of one period (phase 1 of the cycle).

    Produced by :meth:`AdmissionService.prepare_period`: the period
    index being run, the candidate plans competing (queued + running),
    and the built :class:`AuctionInstance` after ``pre_auction`` hooks.
    """

    period: int
    candidates: Mapping[str, ContinuousQuery]
    instance: AuctionInstance


@dataclass(frozen=True)
class PeriodSettlement:
    """The billed, transitioned state of one period (phase 2).

    Produced by :meth:`AdmissionService.settle_period` once a mechanism
    outcome exists: winners were invoiced, the engine transitioned to
    the admitted set, and the pending queue was cleared.  What remains
    is executing the period (:meth:`AdmissionService.execute_period`).
    """

    period: int
    candidates: Mapping[str, ContinuousQuery]
    outcome: AuctionOutcome
    revenue: float
    admitted: tuple[str, ...]
    rejected: tuple[str, ...]


@dataclass(frozen=True)
class ServiceSnapshot:
    """A deep, self-contained copy of a service's evolving state.

    Obtained from :meth:`AdmissionService.snapshot`; turned back into a
    live service by :meth:`AdmissionService.restore`.  One snapshot can
    be restored any number of times (each restore gets its own copy).
    Hooks are *not* part of a snapshot — they are code, not state —
    and must be re-attached after restore.
    """

    version: int
    state: Mapping[str, object]

    def __post_init__(self) -> None:
        missing = [f for f in _STATE_FIELDS if f not in self.state]
        if missing:
            raise ValidationError(
                f"service snapshot is missing state field(s) {missing}")


class AdmissionService:
    """A composable, checkpointable admission-auction service.

    Prefer building one through
    :class:`~repro.service.builder.ServiceBuilder`; the constructor is
    the explicit, keyword-only assembly point.

    Parameters
    ----------
    sources:
        The data streams the service ingests.
    capacity:
        Work units the servers execute per tick (the auction capacity).
    mechanism:
        The admission mechanism: a :class:`Mechanism` instance, a
        :class:`MechanismSpec`, or a spec string (``"CAT"``,
        ``"two-price:seed=7"``).  The paper recommends CAT — the only
        strategyproof *and* sybil-immune choice.
    ticks_per_period:
        Engine ticks constituting one subscription period ("a day").
    hold_ticks:
        Ticks of arrivals held at the connection points during each
        transition.
    """

    def __init__(
        self,
        *,
        sources: Iterable[StreamSource],
        capacity: float,
        mechanism: "Mechanism | MechanismSpec | str",
        ticks_per_period: int = 50,
        hold_ticks: int = 1,
        ledger: "object | None" = None,
        hooks: "HookRegistry | None" = None,
    ) -> None:
        from repro.cloud.billing import BillingLedger

        self.sources: tuple[StreamSource, ...] = tuple(sources)
        self.capacity = float(capacity)
        self.mechanism = resolve_mechanism(mechanism)
        self.ticks_per_period = int(ticks_per_period)
        self.engine = StreamEngine(self.sources, capacity=self.capacity)
        self.ledger = BillingLedger() if ledger is None else ledger
        self.hooks = HookRegistry() if hooks is None else hooks
        self.coordinator = AuctionCoordinator(self.capacity)
        self.transitions = TransitionManager(hold_ticks=hold_ticks)
        self._period = 0
        self.reports: list[PeriodReport] = []

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------

    def submit(self, query: ContinuousQuery) -> None:
        """Queue *query* (with its bid) for the next period's auction."""
        self.hooks.notify("on_submit", self, query)
        self.coordinator.submit(query, running=self.engine.catalog)

    def withdraw(self, query_id: str) -> ContinuousQuery:
        """Remove and return a not-yet-auctioned submission.

        Raises :class:`ValidationError` (naming the first few pending
        ids) when *query_id* is not queued.
        """
        return self.coordinator.withdraw(query_id)

    @property
    def pending_ids(self) -> KeysView[str]:
        """Queries awaiting the next auction (a live read-only view)."""
        return self.coordinator.pending_ids

    @property
    def period(self) -> int:
        """Index of the last completed subscription period (0 = none)."""
        return self._period

    # ------------------------------------------------------------------
    # The period cycle
    # ------------------------------------------------------------------

    def _stream_rates(self) -> dict[str, float]:
        return {source.name: source.expected_rate()
                for source in self.sources}

    def _collect_and_build(
        self,
    ) -> tuple[dict[str, ContinuousQuery], AuctionInstance]:
        candidates = self.coordinator.collect(self.engine.catalog.queries)
        return candidates, self.coordinator.build(
            candidates, self._stream_rates())

    def build_auction(self) -> AuctionInstance:
        """The auction input for the next period.

        All candidates compete: currently-running queries re-bid
        alongside new submissions (the paper's model re-auctions each
        period), with loads estimated analytically from stream rates.
        """
        return self._collect_and_build()[1]

    def prepare_period(self) -> PeriodPreparation:
        """Phase 1: open the next period and build its auction input.

        Collects candidates (queued + running), assembles their rows, and
        applies the ``pre_auction`` hooks.  Callers that split the cycle
        (e.g. the :mod:`repro.cluster` federation, which batches all
        shard auctions) must follow with :meth:`settle_period` and
        :meth:`execute_period`; :meth:`run_period` does all three.
        """
        self._period += 1
        try:
            candidates, instance = self._collect_and_build()
            instance = self.hooks.filter("pre_auction", self, instance)
        except Exception:
            self._period -= 1
            raise
        return PeriodPreparation(
            period=self._period, candidates=candidates, instance=instance)

    def settle_period(
        self, preparation: PeriodPreparation, outcome: AuctionOutcome
    ) -> PeriodSettlement:
        """Phase 2: apply *outcome* — filter, validate, bill, transition.

        Runs the ``post_auction`` hooks, rejects outcomes naming
        planless winners (rolling the period counter back, nothing
        billed), invoices the winners, transitions the engine to the
        admitted set, and clears the pending queue.
        """
        candidates = preparation.candidates
        outcome = self.hooks.filter("post_auction", self, outcome)

        unknown = sorted(outcome.winner_ids - set(candidates))
        if unknown:
            self._period -= 1
            raise ValidationError(
                f"auction outcome admits query id(s) {unknown} with no "
                f"submitted plan; hooks that add queries to the auction "
                f"must submit matching plans via service.submit() first")

        revenue = self.ledger.bill_outcome(self._period, outcome)
        self.hooks.notify("on_billing", self, self._period, revenue, outcome)

        admitted = sorted(outcome.winner_ids)
        rejected = sorted(set(candidates) - outcome.winner_ids)
        added, removed = self.transitions.apply(
            self.engine, admitted, candidates)
        self.hooks.notify("on_transition", self, added, removed)
        self.coordinator.clear(keep=outcome.winner_ids)
        return PeriodSettlement(
            period=self._period,
            candidates=candidates,
            outcome=outcome,
            revenue=revenue,
            admitted=tuple(admitted),
            rejected=tuple(rejected),
        )

    def execute_period(self, settlement: PeriodSettlement) -> PeriodReport:
        """Phase 3: run the engine for the period and record the report."""
        ticks_before = self.engine.report.ticks
        work_before = self.engine.report.total_work
        self.engine.run(self.ticks_per_period)
        ticks = self.engine.report.ticks - ticks_before
        work = self.engine.report.total_work - work_before
        utilization = (work / ticks / self.capacity) if ticks else None

        report = PeriodReport(
            period=settlement.period,
            outcome=settlement.outcome,
            revenue=settlement.revenue,
            admitted=settlement.admitted,
            rejected=settlement.rejected,
            engine_ticks=ticks,
            engine_utilization=utilization,
        )
        self.reports.append(report)
        return report

    def run_period(self) -> PeriodReport:
        """Auction, bill, transition, and execute one period."""
        preparation = self.prepare_period()
        outcome = self.mechanism.run(preparation.instance)
        return self.execute_period(self.settle_period(preparation, outcome))

    def run_idle_period(self) -> PeriodReport:
        """Run one period with no auction (no candidates to admit).

        A federation shard that received no submissions still advances:
        its streams keep flowing and its admitted queries (if any were
        placed by migration) keep executing.  The report carries an
        empty zero-revenue outcome under the mechanism name ``"idle"``.
        """
        self._period += 1
        empty = AuctionInstance({}, (), self.capacity)
        settlement = PeriodSettlement(
            period=self._period,
            candidates={},
            outcome=AuctionOutcome(
                instance=empty, payments={}, mechanism="idle"),
            revenue=0.0,
            admitted=(),
            rejected=(),
        )
        return self.execute_period(settlement)

    def run_periods(
        self,
        submissions_per_period: Iterable[Sequence[ContinuousQuery]],
    ) -> list[PeriodReport]:
        """Run several periods, submitting each batch before its auction.

        Batches are pulled lazily, one per period; a period with
        nothing to auction raises, as :meth:`run_period` does.
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
        """Revenue over all billed periods."""
        return self.ledger.total_revenue()

    def measured_loads(self) -> Mapping[str, float]:
        """The engine's measured per-operator loads."""
        return self.engine.measured_loads()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> ServiceSnapshot:
        """Capture the full evolving state as a restorable snapshot."""
        state = copy.deepcopy({
            "capacity": self.capacity,
            "ticks_per_period": self.ticks_per_period,
            "hold_ticks": self.transitions.hold_ticks,
            "mechanism": self.mechanism,
            "sources": self.sources,
            "engine": self.engine,
            "pending": self.coordinator.pending,
            "ledger": self.ledger,
            "period": self._period,
            "reports": self.reports,
        })
        return ServiceSnapshot(version=SNAPSHOT_STATE_VERSION, state=state)

    @classmethod
    def restore(
        cls,
        snapshot: ServiceSnapshot,
        hooks: "HookRegistry | None" = None,
    ) -> "AdmissionService":
        """Rebuild a live service from *snapshot*.

        Live state (engine, pending queue, mechanism and source RNGs)
        is copied out of the snapshot; the immutable history — reports,
        outcomes, invoices, delivered tuples — is shared with it.  The
        snapshot can therefore be restored again later.  Hooks are not
        serialized state; pass *hooks* to re-attach them.
        """
        if snapshot.version != SNAPSHOT_STATE_VERSION:
            raise ValidationError(
                f"cannot restore snapshot version {snapshot.version}; "
                f"this build supports version {SNAPSHOT_STATE_VERSION}")
        state = copy.deepcopy(dict(snapshot.state))
        service = object.__new__(AdmissionService)
        service.sources = tuple(state["sources"])
        service.capacity = state["capacity"]
        service.mechanism = state["mechanism"]
        service.ticks_per_period = state["ticks_per_period"]
        service.engine = state["engine"]
        service.ledger = state["ledger"]
        service.hooks = HookRegistry() if hooks is None else hooks
        service.coordinator = AuctionCoordinator(state["capacity"])
        service.coordinator.restore_pending(state["pending"])
        service.transitions = TransitionManager(
            hold_ticks=state["hold_ticks"])
        service._period = state["period"]
        service.reports = list(state["reports"])
        return service

    def save_checkpoint(self, path: object) -> None:
        """Write a restorable checkpoint file (see :mod:`repro.io`).

        The file is a versioned pickle envelope; everything in the
        service (query predicates, payload functions, hooks excluded)
        must be picklable — module-level functions are, lambdas are
        not.  Only load checkpoints you trust.
        """
        from repro.io import save_snapshot

        save_snapshot(self.snapshot(), path)

    @classmethod
    def load_checkpoint(
        cls,
        path: object,
        hooks: "HookRegistry | None" = None,
    ) -> "AdmissionService":
        """Resume a service from a :meth:`save_checkpoint` file."""
        from repro.io import load_snapshot

        return cls.restore(load_snapshot(path), hooks=hooks)

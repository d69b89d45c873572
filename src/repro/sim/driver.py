"""The open-system simulation driver.

:class:`SimulationDriver` runs an admission host — a
:class:`~repro.cluster.FederatedAdmissionService`, a bare
:class:`~repro.service.AdmissionService` being a federation of one —
as a *discrete-event simulation*: a virtual clock (in engine ticks),
one deterministic :class:`~repro.sim.events.EventQueue`, and five
event kinds — arrivals, period boundaries, subscription expiries,
renewals, and probe ticks.  (The closed loop — submit a batch, run a period — needs
none of this and is :meth:`AdmissionService.run_periods`' own loop.)
The driver runs:

* the **open system** — spec-addressable arrival processes
  (``"poisson:rate=40"``, ``"burst"``, ``"trace:path=..."``) feed
  queries continuously; boundaries auction whatever arrived.  A
  process generates rows once, as blocks, and the driver admits them
  as rows — consumed in array slices, routed per row where the host
  places them — as it does rows handed in from outside a process
  (:meth:`SimulationDriver.arrive`, a gateway's inbox).  Per-event
  :class:`~repro.sim.events.ArrivalEvent` dispatch stays as the
  oracle the equivalence suites compare against;
* **subscription lifecycles** — with
  :class:`~repro.sim.subscriptions.SubscriptionOptions`, boundaries
  run Section VII per-category auctions, expiries reclaim capacity,
  renewals resubmit — all billed through the service's ledger;
* **cluster scale** — every shard of the federation shares the
  driver's single clock; per-shard arrival streams merge
  deterministically (``route="stream"``) or route by placement.

Per-tick queue/latency metrics come from an optional *latency probe*:
a :class:`~repro.dsms.scheduler.ScheduledEngine` per shard, mirroring
the shard's admitted set on the same work budget, ticked once per
virtual-clock tick — the paper's over-admission backpressure made
measurable (queue growth, SLA percentiles).

The whole driver state — clock, event queue, arrival-process RNGs,
subscription books, probes, trace recording — checkpoints into one
versioned envelope (``repro/sim-snapshot``) and resumes
byte-identically mid-simulation.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import islice

from repro.cluster.federation import FederatedAdmissionService
from repro.dsms.plan import ContinuousQuery
from repro.dsms.scheduler import (
    PolicySpec,
    ScheduledEngine,
    SchedulingPolicy,
    resolve_policy,
)
from repro.sim.arrivals import (
    ArrivalBlock,
    ArrivalProcess,
    ArrivalSpec,
    SelectPlan,
    as_continuous_query,
    resolve_arrivals,
)
from repro.sim.columnar import RowChunk
from repro.sim.events import (
    ARRIVAL_PRIORITY,
    ArrivalBlockEvent,
    ArrivalEvent,
    EventQueue,
    ExpiryEvent,
    PeriodEvent,
    RenewalEvent,
    TickEvent,
)
from repro.sim.metrics import metrics_snapshot as _metrics_snapshot
from repro.sim.metrics import latency_percentiles as _latency_percentiles
from repro.sim.subscriptions import (
    SubscriptionManager,
    SubscriptionOptions,
    SubscriptionPeriodResult,
)
from repro.sim.metrics import wal_snapshot as _wal_snapshot
from repro.sim.trace import SimTrace, TraceRecorder
from repro.utils.records import share_on_deepcopy
from repro.utils.validation import ValidationError, require
from repro.wal.crashpoints import crashpoint, register

CP_SETTLE_BEFORE_PERIOD = register(
    "driver.settle.before-period-record")
CP_SETTLE_AFTER_PERIOD = register(
    "driver.settle.after-period-record")

#: Version of the in-memory simulation snapshot layout below.
#: v2 added the columnar-pump state (pump / blocks / pump_stats);
#: v1 snapshots restore with the pump off.
SIM_STATE_VERSION = 2

_STATE_FIELDS = (
    "host_kind", "host", "clock", "period", "queue",
    "processes", "route", "managers", "pending", "probes", "recorder",
    "reports", "events_processed", "allow_idle", "lookahead",
    "batch_arrivals", "expired_buffer", "renewed_buffer",
    "reclaimed_buffer",
)

_STATE_FIELDS_V2 = _STATE_FIELDS + ("pump", "blocks", "pump_stats")

#: How many arrivals the object pump pulls from a process per call (the
#: per-source event-queue fill).  Any value produces the identical
#: order among process arrivals; rows handed to ``arrive()`` go after
#: the batch queued before them.  Snapshots still carry it as
#: ``"lookahead"``.
LOOKAHEAD = 64


def _fresh_pump_stats() -> dict:
    """Zeroed columnar-pump counters (see ``metrics_snapshot``)."""
    return {"rows": 0, "winners": 0, "blocks": 0, "fallbacks": 0,
            "yields": 0}


@dataclass(frozen=True)
class TickMetrics:
    """One probe tick: queue depth, deliveries, latency, work done."""

    time: int
    queued: int
    delivered: int
    mean_latency: float
    work: float
    shard: int = 0

    __deepcopy__ = share_on_deepcopy


@dataclass(frozen=True)
class SimPeriodReport:
    """One subscription-mode period boundary across all shards."""

    period: int
    shard_results: tuple[SubscriptionPeriodResult, ...]
    expired: tuple[str, ...]
    renewed: tuple[str, ...]
    revenue: float
    reclaimed_capacity: float
    engine_ticks: int
    engine_utilization: "float | None"

    __deepcopy__ = share_on_deepcopy

    @property
    def admitted(self) -> tuple[str, ...]:
        """Newly admitted subscription ids across all shards."""
        return tuple(query_id for result in self.shard_results
                     for query_id in result.admitted)

    @property
    def rejected(self) -> tuple[str, ...]:
        """Rejected request ids across all shards."""
        return tuple(query_id for result in self.shard_results
                     for query_id in result.rejected)


@dataclass(frozen=True)
class SimSnapshot:
    """A deep, self-contained copy of a driver's evolving state."""

    version: int
    state: Mapping[str, object]

    def __post_init__(self) -> None:
        required = (_STATE_FIELDS if self.version < 2
                    else _STATE_FIELDS_V2)
        missing = [f for f in required if f not in self.state]
        if missing:
            raise ValidationError(
                f"simulation snapshot is missing state field(s) "
                f"{missing}")


class LatencyProbe:
    """A shadow :class:`ScheduledEngine` mirroring one shard.

    Owns deep copies of the shard's stream sources (same seed state at
    attach time, so it sees the same tuple stream) and the shard's
    admitted plans, executed under the shard's work budget with a
    pluggable scheduling policy.  One :meth:`tick` per virtual-clock
    tick appends a :class:`TickMetrics` record.
    """

    def __init__(
        self,
        sources: Iterable,
        capacity: float,
        policy: "SchedulingPolicy | PolicySpec | str | None" = None,
        shard: int = 0,
    ) -> None:
        # count_mode: the probe only reads latency accounting, never
        # result tuples, so the engine runs its run-length fast lane
        # while the mirrored plans stay passthrough selects (it falls
        # back to tuple queues by itself on anything richer).
        self.engine = ScheduledEngine(
            copy.deepcopy(tuple(sources)), capacity,
            policy=policy, count_mode=True)
        self.shard = int(shard)
        #: Per-tick records, exact over the whole run.
        self.metrics: "list[TickMetrics]" = []
        self._delivered = 0
        self._latency_total = 0.0

    def sync(self, plans: Mapping[str, ContinuousQuery]) -> None:
        """Make the probe run exactly the given admitted plans.

        The probe admits its own deep copy of each new plan: the
        shard's operators carry state (windows, counters) that only
        the shard's engine may advance.
        """
        current = set(self.engine.admitted_ids)
        for query_id in sorted(current - set(plans)):
            self.engine.remove(query_id)
        for query_id in sorted(set(plans) - current):
            self.engine.admit(copy.deepcopy(plans[query_id]))

    def tick(self, time: float) -> TickMetrics:
        """Execute one probed tick and record its metrics."""
        work_before = self.engine.work_done
        self.engine.run(1)
        # Engine-level running totals: equal to summing the per-query
        # stats (all-integer arithmetic, so exactly), but O(1) instead
        # of O(admitted queries) per tick.
        total = self.engine.delivered_latency
        count = self.engine.delivered_count
        delivered = count - self._delivered
        mean = (((total - self._latency_total) / delivered)
                if delivered else 0.0)
        record = TickMetrics(
            time=int(time),
            queued=self.engine.total_queued(),
            delivered=delivered,
            mean_latency=mean,
            work=self.engine.work_done - work_before,
            shard=self.shard,
        )
        self._delivered = count
        self._latency_total = total
        self.metrics.append(record)
        return record

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> dict[float, float]:
        """Exact delivery-latency percentiles over the probed run."""
        return _latency_percentiles(self.engine.latency_samples,
                                    percentiles)


class SimulationDriver:
    """A checkpointable discrete-event runtime over an admission host.

    Parameters
    ----------
    host:
        A :class:`FederatedAdmissionService`, or an
        :class:`AdmissionService` — held in :attr:`host` as a federation
        of one that reports and checkpoints as the bare service.
    arrivals:
        Zero or more arrival processes — live
        :class:`~repro.sim.arrivals.ArrivalProcess` objects, specs, or
        spec strings (``"poisson:rate=40"``).  Several processes merge
        deterministically on the one clock.
    subscriptions:
        ``None`` for the paper's re-auction-everything model; a
        :class:`SubscriptionOptions` (or ``True`` for the Section VII
        defaults) to run per-category subscription lifecycles.
    probe:
        ``None`` disables the latency probe; ``True`` or a scheduling
        policy (spec string / :class:`PolicySpec` / instance) attaches
        one :class:`LatencyProbe` per shard.
    record:
        ``True`` records every arrival (select-shaped plans only)
        into a replayable :class:`SimTrace` (see :meth:`trace`).
    route:
        ``"placement"`` routes arrivals via the host's placement
        policy; ``"stream"`` pins arrival process *i* to shard *i*.
    batch_arrivals:
        What ``pump=None`` resolves to: ``True`` (default) admits
        arrivals as rows, ``False`` asks for per-event dispatch — the
        oracle the equivalence suites compare against.
    pump:
        Whether arrival processes are pumped: a process that can hand
        whole numpy row-blocks (``ArrivalProcess.next_block``) skips
        the per-arrival event objects entirely — one
        :class:`~repro.sim.events.ArrivalBlockEvent` marker per block
        cursor keeps the event order, rows are consumed in array
        slices (routed per row when the host places them), and
        boundary auctions score them through the columnar fastpath,
        materializing ``SelectPlan`` objects for winners only.
        Reports, RNG streams and recorder rows are pinned
        byte-identical to per-event dispatch.  ``None`` (default)
        resolves to ``batch_arrivals``; ``True`` / ``False`` name a
        path (the equivalence suites' oracle keyword).  With the pump
        off every process arrival is one :class:`ArrivalEvent`
        through :meth:`_on_arrival`.  :attr:`pump` holds the resolved
        bool, and a restored driver keeps the one it was saved with,
        so a checkpoint continues on the path that wrote it.  Rows
        handed to :meth:`arrive` take the row body either way.
    """

    def __init__(
        self,
        host,
        *,
        arrivals: "object | Sequence[object]" = (),
        subscriptions: "SubscriptionOptions | bool | None" = None,
        probe: "object | None" = None,
        record: bool = False,
        route: str = "placement",
        batch_arrivals: bool = True,
        pump: "bool | None" = None,
    ) -> None:
        self.host = FederatedAdmissionService.of(host)
        if isinstance(arrivals, (str, ArrivalSpec, ArrivalProcess)):
            arrivals = (arrivals,)
        self.processes: tuple[ArrivalProcess, ...] = tuple(
            resolve_arrivals(process) for process in arrivals)
        if route not in ("placement", "stream"):
            raise ValidationError(
                f"route must be 'placement' or 'stream', got {route!r}")
        shards = len(self.host.shards)
        if route == "stream" and len(self.processes) > shards:
            raise ValidationError(
                f"route='stream' pins arrival process i to shard i, "
                f"but there are {len(self.processes)} processes and "
                f"only {shards} shard(s)")
        self.route = route
        self.batch_arrivals = bool(batch_arrivals)

        self.managers: "tuple[SubscriptionManager, ...] | None" = None
        if subscriptions:
            options = (SubscriptionOptions() if subscriptions is True
                       else subscriptions)
            if not isinstance(options, SubscriptionOptions):
                raise ValidationError(
                    f"subscriptions must be SubscriptionOptions, True, "
                    f"or None, got {subscriptions!r}")
            self.managers = tuple(
                SubscriptionManager(options, service.mechanism, shard=i)
                for i, service in enumerate(self.host.shards))
        self.pending: list[list[tuple[ContinuousQuery | SelectPlan, str]
                                | RowChunk]] = [[] for _ in range(shards)]

        self.probes: "tuple[LatencyProbe, ...] | None" = None
        if probe is not None and probe is not False:
            policy_spec = "round-robin" if probe is True else probe
            self.probes = tuple(
                LatencyProbe(
                    service.sources, service.capacity,
                    policy=(copy.deepcopy(policy_spec)
                            if isinstance(policy_spec, SchedulingPolicy)
                            else resolve_policy(policy_spec)),
                    shard=i)
                for i, service in enumerate(self.host.shards))

        self.recorder: "TraceRecorder | None" = (
            TraceRecorder() if record else None)
        #: Attached write-ahead log (see :meth:`attach_wal`).
        self.wal = None
        self.queue = EventQueue()
        self._period = self.host.period
        self.clock = float(
            self._period * self.host.shards[0].ticks_per_period)
        self.reports: list[object] = []
        self.events_processed = 0
        #: shard → ids expired / capacity reclaimed since the last
        #: boundary (cleared when that boundary's report is built).
        self._expired_buffer: dict[int, list[str]] = {}
        self._reclaimed_buffer: dict[int, float] = {}
        self._renewed_buffer: list[str] = []
        self.pump = self.batch_arrivals if pump is None else bool(pump)
        #: source index → (ArrivalBlock, cursor): the parked row-blocks
        #: the markers in the queue point into.
        self._blocks: dict[int, tuple[ArrivalBlock, int]] = {}
        #: source index → (block, row): while an arrive() block is
        #: parked, the process rows queued before it (see arrive).
        self._ahead: dict[int, tuple[ArrivalBlock, int]] = {}
        self._pump_stats = _fresh_pump_stats()
        for index in range(len(self.processes)):
            self._pump(index)
        self.queue.push(PeriodEvent(time=self.clock,
                                    period=self._period + 1))
        if self.probes:
            self.queue.push(TickEvent(time=self.clock + 1.0))
            self._sync_probes()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """Index of the last boundary the driver processed."""
        return self._period

    def trace(self) -> SimTrace:
        """The recorded arrival trace (requires ``record=True``)."""
        if self.recorder is None:
            raise ValidationError(
                "this driver is not recording; construct it with "
                "record=True")
        return self.recorder.trace()

    def tick_metrics(self) -> list[TickMetrics]:
        """All probe tick records, merged over shards in time order."""
        if not self.probes:
            return []
        merged: list[TickMetrics] = []
        for probe in self.probes:
            merged.extend(probe.metrics)
        return sorted(merged, key=lambda m: (m.time, m.shard))

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> dict[float, float]:
        """Cluster-wide delivery-latency percentiles from the probes."""
        samples: list[int] = []
        for probe in self.probes or ():
            samples.extend(probe.engine.latency_samples)
        return _latency_percentiles(samples, percentiles)

    def metrics_snapshot(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> dict:
        """Plain-dict summary of the probed run (see
        :func:`repro.sim.metrics.metrics_snapshot`): tick count, queue
        depths, deliveries, and exact latency percentiles merged over
        every shard's probe."""
        samples: list[int] = []
        for probe in self.probes or ():
            samples.extend(probe.engine.latency_samples)
        snapshot = _metrics_snapshot(self.tick_metrics(), samples,
                                     percentiles)
        snapshot["pump"] = {"enabled": self.pump, **self._pump_stats}
        snapshot["wal"] = _wal_snapshot(self.wal)
        return snapshot

    def total_revenue(self) -> float:
        """Revenue billed across all shards so far."""
        return self.host.total_revenue()

    def pending_ids(self) -> Iterator[str]:
        """Ids parked for the next boundary's subscription auction,
        one per row: a pumped :class:`RowChunk` yields each of its
        rows, an object-path ``(query, category)`` pair its query."""
        for shard_pending in self.pending:
            for item in shard_pending:
                if type(item) is RowChunk:
                    yield from item.block.ids[item.start:item.stop]
                else:
                    yield item[0].query_id

    def pending_count(self) -> int:
        """How many ids :meth:`pending_ids` yields, without the walk
        over each chunk's rows."""
        return sum(len(item) if type(item) is RowChunk else 1
                   for shard_pending in self.pending
                   for item in shard_pending)

    def withdraw_pending(self, query_id: str) -> "object | None":
        """Take *query_id* out of the parked rows; ``None`` if absent.

        A pumped row leaves by splitting its chunk around it, so the
        rows on either side keep their arrival order and categories.
        """
        for shard_pending in self.pending:
            for index, item in enumerate(shard_pending):
                if type(item) is not RowChunk:
                    if item[0].query_id == query_id:
                        del shard_pending[index]
                        return item[0]
                    continue
                block, start = item.block, item.start
                for row in range(start, item.stop):
                    if block.ids[row] == query_id:
                        cut = row - start
                        halves = (
                            RowChunk(block, start, row,
                                     item.categories[:cut]),
                            RowChunk(block, row + 1, item.stop,
                                     item.categories[cut + 1:]))
                        shard_pending[index:index + 1] = [
                            half for half in halves if len(half)]
                        return block.plan(row)
        return None

    # ------------------------------------------------------------------
    # The write-ahead log
    # ------------------------------------------------------------------

    def attach_wal(self, log) -> None:
        """Log this run into *log* (a :class:`~repro.wal.WriteAheadLog`).

        From here on every boundary appends a period receipt to the
        log before the run moves past it, and compaction snapshots the
        driver on the log's schedule.  Arrivals are not logged: a
        recovery regenerates them from the arrival processes' RNG
        state in the snapshot, so any plan shape may arrive.  Pass
        ``None`` to detach.
        """
        self.wal = log

    def _log_period(self) -> None:
        """Append this boundary's receipt to the WAL — or, while the
        log is suspended during recovery replay, check the state this
        boundary reached against the receipt the original run wrote.
        """
        wal = self.wal
        receipt = dict(
            period=self._period, events=self.events_processed,
            revenue=self.total_revenue(),
            queue=self.queue.kind_counts())
        if wal.suspended:
            wal.verify_replay(**receipt, origin="sim replay")
            return
        crashpoint(CP_SETTLE_BEFORE_PERIOD)
        wal.append_period(**receipt)
        crashpoint(CP_SETTLE_AFTER_PERIOD)
        if wal.due_for_compaction(self._period):
            wal.compact(self.snapshot(), self._period)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(self, periods: int) -> list[object]:
        """Process the next *periods* boundaries; returns their reports.

        After the last boundary, every event ordered before the *next*
        boundary is drained too (probe ticks and arrivals belonging to
        the executed window), so a stopped run reports complete
        metrics and a checkpoint taken here resumes byte-identically —
        the uninterrupted run processes the same events in the same
        order.
        """
        require(int(periods) >= 0, "periods must be >= 0")
        target = self._period + int(periods)
        start = len(self.reports)
        while self._period < target:
            self._step()
        while self.queue and not isinstance(self.queue.peek(),
                                            PeriodEvent):
            self._step()
        return self.reports[start:]

    def _step(self) -> None:
        event = self.queue.pop()
        if type(event) is ArrivalBlockEvent:
            # Markers are bookkeeping, not simulated events: the rows
            # they release count as processed (and advance the clock)
            # inside _on_block, exactly as their ArrivalEvent twins
            # would have when popped.
            self._on_block(event)
            return
        self.events_processed += 1
        self.clock = max(self.clock, float(event.time))
        if isinstance(event, ArrivalEvent):
            self._on_arrival(event)
        elif isinstance(event, ExpiryEvent):
            self._on_expiry(event)
        elif isinstance(event, RenewalEvent):
            self._on_renewal(event)
        elif isinstance(event, PeriodEvent):
            self._on_period(event)
        elif isinstance(event, TickEvent):
            self._on_tick(event)
        else:  # pragma: no cover - no other kinds exist
            raise ValidationError(f"unknown event {event!r}")

    def _pump(self, index: int) -> None:
        """Pull the next arrivals of process *index* into the queue.

        With the columnar pump on, a process that can produce a row
        block gets it parked in :attr:`_blocks` behind one marker
        event; otherwise (pump off, or a process with no block to
        hand out) up to :data:`LOOKAHEAD` arrival objects are
        pushed — only the batch's final event re-triggers the pump
        when consumed, so a live process always has events queued.
        """
        if self.pump and index not in self._blocks:
            block = self.processes[index].next_block()
            if block is not None:
                self._blocks[index] = (block, 0)
                self._pump_stats["blocks"] += 1
                self._push_block_marker(index, block, 0)
                return
        if self._pump_objects(index) and self.pump:
            self._pump_stats["fallbacks"] += 1

    def _pump_objects(self, index: int) -> bool:
        """The per-arrival-object pump; True if anything was pushed."""
        arrivals = self.processes[index].next_arrivals(LOOKAHEAD)
        if not arrivals:
            return False
        push = self.queue.push
        final = len(arrivals) - 1
        for position, arrival in enumerate(arrivals):
            # An arrival may pin its own stream (trace replay carries
            # the recorded index); otherwise it inherits the producing
            # process's index.  The producing index still drives the
            # pump, so the event remembers both.
            stream = (index if arrival.stream is None
                      else int(arrival.stream))
            push(ArrivalEvent(time=arrival.time, query=arrival.query,
                              category=arrival.category, stream=stream,
                              source=index, final=position == final),
                 stream=stream)
        return True

    def _push_block_marker(self, index: int, block: ArrivalBlock,
                           cursor: int) -> None:
        """Queue the marker carrying the cursor row's event key."""
        stream = block.stream_at(cursor, index)
        self.queue.push(
            ArrivalBlockEvent(time=float(block.times[cursor]),
                              source=index, stream=stream),
            stream=stream)

    def arrive(self, block: ArrivalBlock) -> None:
        """Queue *block*'s rows as arrivals from outside every process.

        A gateway's inbox enters this way at each tick.  The rows pin
        their own stream (``block.streams`` is not ``None``: no process
        index stands behind them) and take the row body whether or not
        the pump is on, one event each: at their queue key they go
        after the arrivals queued before this call and before those
        queued after it, as the same rows pushed here as
        :class:`ArrivalEvent`\\ s would.  One such block is parked at a
        time.
        """
        source = len(self.processes)
        if not len(block) or block.streams is None or (
                source in self._blocks):
            raise ValidationError(
                "arrive() takes one non-empty block at a time, with its "
                "rows pinned to a stream")
        # Per-event dispatch queues a process's rows LOOKAHEAD at a
        # time, never across a block's end: the rest of each parked
        # block's current batch is queued before these rows.
        self._ahead = {
            index: (parked, min(len(parked),
                                (cursor // LOOKAHEAD + 1) * LOOKAHEAD))
            for index, (parked, cursor) in self._blocks.items()}
        self._blocks[source] = (block, 0)
        self._pump_stats["blocks"] += 1
        self._push_block_marker(source, block, 0)

    def _on_block(self, event: ArrivalBlockEvent) -> None:
        """Consume rows from the marker's block up to the next event.

        The marker's key equals its cursor row's would-be ArrivalEvent
        key, so when it pops every queued event orders at-or-after that
        row.  Rows are consumed in slices up to the queue head's key
        (the exact set of arrivals the reference loop would have popped
        before the head), the block is refilled from its process when
        it drains, and the marker is re-queued at the new cursor row
        whenever a non-arrival event is due first.
        """
        source = event.source
        entry = self._blocks.get(source)
        if entry is None:
            return  # stale marker: the block drained via another path
        block, cursor = entry
        stats = self._pump_stats
        while True:
            stop, tie = self._consume_stop(block, cursor, source)
            if stop > cursor:
                self._admit_rows(block, cursor, stop, source)
                rows = stop - cursor
                self.events_processed += rows
                stats["rows"] += rows
                self.clock = max(self.clock,
                                 float(block.times[stop - 1]))
                cursor = stop
            if cursor >= len(block.ids):
                if source == len(self.processes):
                    del self._blocks[source]  # nothing refills these
                    self._ahead = {}
                    return
                fresh = self.processes[source].next_block()
                if fresh is not None:
                    block, cursor = fresh, 0
                    self._blocks[source] = (fresh, 0)
                    stats["blocks"] += 1
                    continue
                del self._blocks[source]
                # The process may still hold object-form arrivals
                # (next_block's contract): hand it back to the object
                # pump; _pump retries blocks once those are consumed.
                if self._pump_objects(source):
                    stats["fallbacks"] += 1
                return
            self._blocks[source] = (block, cursor)
            if not tie:
                self._push_block_marker(source, block, cursor)
                return
            head = self.queue._heap[0][4]
            outside = len(self.processes)
            if source == outside:
                # Rows handed to arrive() entered the queue in one
                # push, ahead of every arrival queued after it.
                first = True
            elif type(head) is not ArrivalBlockEvent:
                # An object-path arrival holds the identical key; it
                # was queued before our re-pushed marker would be.
                first = False
            elif head.source == outside:
                # Per-event dispatch queued the rest of our lookahead
                # batch before the rows handed to arrive() (see there).
                ahead = self._ahead.get(source)
                first = (ahead is not None and ahead[0] is block
                         and cursor < ahead[1])
            else:
                # Two pump markers at the identical (time, priority,
                # stream) key would re-queue behind each other forever.
                # Ours popped first (earlier sequence — the reference
                # would pop its row first for the same reason).
                first = True
            if first:
                self._admit_rows(block, cursor, cursor + 1, source)
                self.events_processed += 1
                stats["rows"] += 1
                self.clock = max(self.clock, float(block.times[cursor]))
                cursor += 1
                self._blocks[source] = (block, cursor)
                continue
            stats["yields"] += 1
            self._push_block_marker(source, block, cursor)
            return

    def _consume_stop(self, block: ArrivalBlock, cursor: int,
                      source: int) -> "tuple[int, bool]":
        """How far the block may be consumed before the queue head.

        Returns ``(stop, tie)``: rows ``[cursor, stop)`` order strictly
        before the head event; ``tie`` flags a head whose key exactly
        equals row ``stop``'s (same time, arrival priority, same
        stream), where insertion order decides and :meth:`_on_block`
        arbitrates.
        """
        heap = self.queue._heap
        times = block.times
        end = len(times)
        if not heap:
            return end, False
        head_time, head_priority, head_stream = heap[0][:3]
        if float(times[end - 1]) < head_time:
            return end, False
        # Lower-priority heads (ticks, expiries, renewals) run before
        # same-time arrivals, so rows at exactly head_time stay; a
        # PeriodEvent head runs after them, so they go.
        side = "right" if head_priority > ARRIVAL_PRIORITY else "left"
        # Rows before the cursor are consumed, and times never fall.
        stop = max(cursor, int(times.searchsorted(head_time, side)))
        if head_priority != ARRIVAL_PRIORITY:
            return stop, False
        tie = False
        while stop < end and float(times[stop]) == head_time:
            row_stream = block.stream_at(stop, source)
            if row_stream < head_stream:
                stop += 1
                continue
            tie = row_stream == head_stream
            break
        return stop, tie

    def _admit_rows(self, block: ArrivalBlock, start: int, stop: int,
                    source: int) -> None:
        """Admit one consumed row slice — :meth:`_on_arrival` over columns.

        Open system: every row materializes once (it is submitted into
        the service queue either way) but skips the event objects and
        heap churn.  Subscription mode: each row is routed in pop order
        — ``host.route`` under placement over a federation, its stream
        pin under ``route="stream"`` — then each shard's categories are
        drawn in one call over that shard's rows (so every manager's
        RNG matches per-event dispatch draw for draw) and requested
        names validated; the slice is recorded once and each maximal
        same-shard run parks as a :class:`RowChunk` in that shard's
        pending list, for the boundary auction to score columnar.
        """
        route_stream = self.route == "stream"
        recorder = self.recorder
        if self.managers is None:
            submit = self.host.submit
            if recorder is not None:
                # Whole-slice capture: rows byte-identical to the
                # per-row record() calls, without 11 list appends per
                # arrival on the admission hot path.
                categories = block.categories
                categories = (list(categories[start:stop])
                              if categories is not None
                              else [None] * (stop - start))
                recorder.record_rows(block, start, stop, categories,
                                     source)
            for row in range(start, stop):
                plan = block.plan(row)
                pinned = (self._pinned_shard(block.stream_at(row, source),
                                             plan.query_id)
                          if route_stream else None)
                submit(plan.materialize(), shard=pinned)
            self._pump_stats["winners"] += stop - start
            return

        count = stop - start
        streams = block.streams
        if route_stream and (streams is None or type(streams) is int):
            shards = self._pinned_shard(block.stream_at(start, source),
                                        block.ids[start])
        elif route_stream:
            shards = [self._pinned_shard(int(streams[row]), block.ids[row])
                      for row in range(start, stop)]
        elif len(self.host.shards) == 1:
            shards = 0
        else:
            route = self.host.route
            shards = [route(block.plan(row)) for row in range(start, stop)]
        # The slice's maximal same-shard runs, as (shard, first, last)
        # offsets: one run unless rows are routed one by one.
        if type(shards) is int:
            runs = [(shards, 0, count)]
        else:
            runs = []
            first = 0
            for offset in range(1, count + 1):
                if offset == count or shards[offset] != shards[first]:
                    runs.append((shards[first], first, offset))
                    first = offset
        # Each shard draws once, in pop order, for its rows that did
        # not request a category; then requested names are validated.
        requested = block.categories
        draws: dict[int, int] = {}
        for shard, first, last in runs:
            draws[shard] = draws.get(shard, 0) + (
                last - first if requested is None
                else requested[start + first:start + last].count(None))
        drawn = {shard: iter(self.managers[shard].assign_categories(n))
                 for shard, n in draws.items() if n}
        categories: list[str] = []
        for shard, first, last in runs:
            if requested is None:
                names = list(islice(drawn[shard], last - first))
            else:
                names = list(requested[start + first:start + last])
                for offset, name in enumerate(names):
                    if name is None:
                        names[offset] = next(drawn[shard])
                    else:
                        self.managers[shard].category(name)
            categories += names
            self.pending[shard].append(RowChunk(
                block, start + first, start + last, names))
        if recorder is not None:
            recorder.record_rows(block, start, stop, categories, source)

    def _on_arrival(self, event: ArrivalEvent) -> None:
        pinned = (self._pinned_shard(event.stream, event.query.query_id)
                  if self.route == "stream" else None)
        if self.managers is not None:
            shard = pinned if pinned is not None else self.host.route(
                event.query)
            manager = self.managers[shard]
            category = (event.category
                        or manager.assign_category(event.query))
            manager.category(category)  # validate requested names too
            if self.recorder is not None:
                self.recorder.record(event.time, event.query, category,
                                     event.stream)
            self.pending[shard].append((event.query, category))
        else:
            if self.recorder is not None:
                self.recorder.record(event.time, event.query,
                                     event.category, event.stream)
            self.host.submit(as_continuous_query(event.query),
                             shard=pinned)
        if event.source is not None and event.final:
            self._pump(event.source)

    def _pinned_shard(self, stream: int, query_id: str) -> int:
        """The shard ``route="stream"`` pins *stream* to, checked."""
        shards = len(self.host.shards)
        if not 0 <= stream < shards:
            raise ValidationError(
                f"arrival {query_id!r} is pinned to stream {stream}, "
                f"but the host has only {shards} shard(s)")
        return stream

    def _on_expiry(self, event: ExpiryEvent) -> None:
        # Merge the adjacent run of same-time, same-shard expiries into
        # one batch: expire() re-estimates loads over the whole active
        # book, so a boundary with k expiries would otherwise do k full
        # estimations.  Pop order is preserved, so renewals enqueue in
        # exactly the order the one-at-a-time loop produced.
        query_ids = [event.query_id]
        while True:
            upcoming = self.queue.peek()
            if (not isinstance(upcoming, ExpiryEvent)
                    or upcoming.time != event.time
                    or upcoming.shard != event.shard):
                break
            self.queue.pop()
            self.events_processed += 1
            query_ids.append(upcoming.query_id)
        manager = self.managers[event.shard]
        query_ids = [query_id for query_id in query_ids
                     if query_id in manager.active]
        if not query_ids:
            return
        service = self.host.shards[event.shard]
        rates = {source.name: source.expected_rate()
                 for source in service.sources}
        entries, reclaimed = manager.expire(service, query_ids, rates)
        shard_buffer = self._expired_buffer.setdefault(event.shard, [])
        shard_buffer.extend(entry.query.query_id for entry in entries)
        self._reclaimed_buffer[event.shard] = (
            self._reclaimed_buffer.get(event.shard, 0.0) + reclaimed)
        options = manager.options
        for entry in entries:
            if options.auto_renew and (
                    options.max_renewals is None
                    or entry.renewals < int(options.max_renewals)):
                self.queue.push(RenewalEvent(
                    time=event.time, query=entry.query,
                    category=entry.category, shard=event.shard))

    def _on_renewal(self, event: RenewalEvent) -> None:
        manager = self.managers[event.shard]
        query_id = event.query.query_id
        manager.renewal_counts[query_id] = (
            manager.renewal_counts.get(query_id, 0) + 1)
        manager.renewed_total += 1
        self._renewed_buffer.append(query_id)
        self.pending[event.shard].append((event.query, event.category))

    def _on_period(self, event: PeriodEvent) -> None:
        period = event.period
        ticks_per_period = self.host.shards[0].ticks_per_period
        if self.managers is not None:
            report = self._run_subscription_period(period)
        else:
            report = self.host.run_period()
        self._period = period
        self.reports.append(report)
        self.queue.push(PeriodEvent(
            time=event.time + ticks_per_period, period=period + 1))
        if self.probes:
            self._sync_probes()
        if self.wal is not None:
            self._log_period()

    def _run_subscription_period(self, period: int) -> SimPeriodReport:
        services = self.host.shards
        shard_results = []
        revenue = 0.0
        ticks_per_period = services[0].ticks_per_period
        for index, service in enumerate(services):
            manager = self.managers[index]
            pending = self.pending[index]
            if any(type(item) is RowChunk for item in pending):
                result, row_stats = manager.run_period_rows(
                    service, period, pending)
                self._pump_stats["winners"] += row_stats["winners"]
                if row_stats["fell_back"]:
                    self._pump_stats["fallbacks"] += 1
            else:
                result = manager.run_period(service, period, pending)
            result = dataclasses.replace(
                result,
                expired=tuple(self._expired_buffer.get(index, ())),
                reclaimed_capacity=self._reclaimed_buffer.get(
                    index, 0.0))
            self.pending[index] = []
            shard_results.append(result)
            revenue += result.revenue
            for query_id in result.admitted:
                entry = manager.active[query_id]
                self.queue.push(ExpiryEvent(
                    time=(entry.expires_period - 1) * ticks_per_period,
                    query_id=query_id, shard=index))
        total_ticks = 0
        total_work = 0.0
        total_capacity = 0.0
        for service in services:
            ticks_before = service.engine.report.ticks
            work_before = service.engine.report.total_work
            service.engine.run(ticks_per_period)
            total_ticks += service.engine.report.ticks - ticks_before
            total_work += (service.engine.report.total_work
                           - work_before)
            total_capacity += service.capacity
        utilization = (
            total_work / ticks_per_period / total_capacity
            if ticks_per_period and total_capacity else None)
        report = SimPeriodReport(
            period=period,
            shard_results=tuple(shard_results),
            expired=tuple(query_id for result in shard_results
                          for query_id in result.expired),
            renewed=tuple(self._renewed_buffer),
            revenue=revenue,
            reclaimed_capacity=sum(
                result.reclaimed_capacity for result in shard_results),
            engine_ticks=total_ticks,
            engine_utilization=utilization,
        )
        self._expired_buffer = {}
        self._reclaimed_buffer = {}
        self._renewed_buffer = []
        return report

    def _on_tick(self, event: TickEvent) -> None:
        for probe in self.probes:
            probe.tick(event.time)
        self.queue.push(TickEvent(time=event.time + 1.0))

    def _sync_probes(self) -> None:
        for index, probe in enumerate(self.probes):
            probe.sync(self.host.shards[index].engine.catalog.queries)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> SimSnapshot:
        """Capture the whole simulation as a restorable snapshot."""
        host_kind, host = self.host.host_state()
        state: dict[str, object] = {"host_kind": host_kind, "host": host}
        state.update(copy.deepcopy({
            "clock": self.clock,
            "period": self._period,
            "queue": self.queue,
            "processes": self.processes,
            "route": self.route,
            "managers": self.managers,
            "pending": self.pending,
            "probes": self.probes,
            "recorder": self.recorder,
            "reports": self.reports,
            "events_processed": self.events_processed,
            # Fields older builds require; both are constants here.
            "allow_idle": True,
            "lookahead": LOOKAHEAD,
            "batch_arrivals": self.batch_arrivals,
            "expired_buffer": self._expired_buffer,
            "renewed_buffer": self._renewed_buffer,
            "reclaimed_buffer": self._reclaimed_buffer,
            "pump": self.pump,
            "blocks": self._blocks,
            "ahead": self._ahead,
            "pump_stats": self._pump_stats,
        }))
        return SimSnapshot(version=SIM_STATE_VERSION, state=state)

    @classmethod
    def restore(cls, snapshot: SimSnapshot) -> "SimulationDriver":
        """Rebuild a live driver from *snapshot*, which stays reusable.

        Live state is copied out of the snapshot; the immutable history
        records are shared with it.  The nested host snapshot goes to
        the host's own ``restore`` as it is — that is where it is
        copied, once.
        """
        if snapshot.version not in (1, SIM_STATE_VERSION):
            raise ValidationError(
                f"cannot restore simulation snapshot version "
                f"{snapshot.version}; this build supports versions "
                f"1..{SIM_STATE_VERSION}")
        state = copy.deepcopy({key: value
                               for key, value in snapshot.state.items()
                               if key != "host"})
        driver = object.__new__(cls)
        driver.host = FederatedAdmissionService.from_host_state(
            state["host_kind"], snapshot.state["host"])
        driver.processes = tuple(state["processes"])
        driver.route = state["route"]
        driver.managers = state["managers"]
        driver.pending = list(state["pending"])
        driver.probes = state["probes"]
        driver.recorder = state["recorder"]
        driver.queue = state["queue"]
        driver._period = state["period"]
        driver.clock = state["clock"]
        driver.reports = list(state["reports"])
        driver.events_processed = state["events_processed"]
        driver.batch_arrivals = bool(state["batch_arrivals"])
        # Strict access: a snapshot missing the expiry-attribution
        # buffers is truncated, and silently defaulting them would
        # drop expiries from the next boundary's report.
        driver._expired_buffer = dict(state["expired_buffer"])
        driver._renewed_buffer = list(state["renewed_buffer"])
        driver._reclaimed_buffer = dict(state["reclaimed_buffer"])
        # v1 snapshots predate the columnar pump: no markers can be in
        # their queues, so defaulting to pump-off is exact.
        driver.pump = bool(state.get("pump", False))
        driver._blocks = dict(state.get("blocks") or {})
        driver._ahead = dict(state.get("ahead") or {})
        driver._pump_stats = dict(state.get("pump_stats")
                                  or _fresh_pump_stats())
        # The WAL is a process resource, not simulation state: a
        # restored driver starts detached (recovery re-attaches the
        # live log after replay).
        driver.wal = None
        return driver

    def save_checkpoint(self, path: object) -> None:
        """Write a restorable simulation checkpoint (see :mod:`repro.io`).

        One versioned pickle envelope holding the driver state —
        including the host's own snapshot — with the usual
        picklability rules (module-level functions, no lambdas).  Only
        load checkpoints you trust.
        """
        from repro.io import save_sim_snapshot

        save_sim_snapshot(self.snapshot(), path)

    @classmethod
    def load_checkpoint(cls, path: object) -> "SimulationDriver":
        """Resume a simulation from a :meth:`save_checkpoint` file."""
        from repro.io import load_sim_snapshot

        return cls.restore(load_sim_snapshot(path))

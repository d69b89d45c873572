"""Discrete events and the deterministic event queue.

The open-system runtime is event-driven: everything that happens is an
:class:`Event` with a virtual-clock time, pulled from one totally
ordered :class:`EventQueue`.  Ordering is the whole ballgame for
reproducibility, so it is explicit:

1. **time** — earlier events first (the virtual clock, in engine
   ticks);
2. **priority** — at equal times, the lifecycle order of a period
   boundary: the probe tick closing the previous execution window
   runs first, then expiries release capacity, renewals re-enter the
   queue, fresh arrivals join, and *then* the period auction runs;
3. **stream** — the index of the event stream that produced the event
   (per-shard arrival streams merge deterministically);
4. **sequence** — insertion order breaks every remaining tie (FIFO).

The queue is a plain binary heap over those four keys, carries only
picklable state, and deep-copies cleanly — it rides inside simulation
checkpoints unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.dsms.plan import ContinuousQuery
from repro.utils.validation import ValidationError

#: Priority ranks of the event kinds at one instant (lower runs first).
TICK_PRIORITY = 0
EXPIRY_PRIORITY = 1
RENEWAL_PRIORITY = 2
ARRIVAL_PRIORITY = 3
PERIOD_PRIORITY = 4


@dataclass(frozen=True)
class Event:
    """Base event: a virtual-clock time plus an ordering priority."""

    time: float

    #: Class-level ordering rank (see module docstring).
    priority = TICK_PRIORITY
    #: Schema tag used by the trace format and reports.
    kind = "event"

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ValidationError(
                f"event time must be >= 0, got {self.time!r}")


@dataclass(frozen=True)
class ArrivalEvent(Event):
    """A query arrives, asking to subscribe.

    ``category`` is the subscription category the client requested
    (``None`` lets the driver assign one when subscriptions are on);
    ``stream`` is the event-stream index the arrival belongs to (the
    shard, under per-stream routing); ``source`` is the index of the
    arrival *process* that produced it (``None`` for events pushed
    outside any process).  The two differ only during trace replay,
    where one process re-emits arrivals recorded from many streams.  ``final`` marks the last arrival of
    its source's pump batch: consuming it is what triggers the next
    lookahead pull, so a source always has events queued until it
    runs dry.
    """

    query: ContinuousQuery = None
    category: "str | None" = None
    stream: int = 0
    source: "int | None" = None
    final: bool = True

    priority = ARRIVAL_PRIORITY
    kind = "arrival"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.query is None:
            raise ValidationError("an arrival event needs a query")


@dataclass(frozen=True)
class ArrivalBlockEvent(Event):
    """Marker: the columnar pump's next pending row.

    Carries *no* queries — the actual row-block lives in the driver's
    ``_blocks`` table, keyed by ``source`` (snapshots deep-copy driver
    state once; an event carrying the block would fork it).  The
    marker's ``(time, priority, stream)`` is exactly the queue key the
    block's cursor row would have as an :class:`ArrivalEvent`, so
    popping it tells the driver "consume rows from source ``source``
    until the next non-arrival event is due", preserving the reference
    interleaving event-for-event.
    """

    source: int = 0
    stream: int = 0

    priority = ARRIVAL_PRIORITY
    kind = "arrival-block"


@dataclass(frozen=True)
class PeriodEvent(Event):
    """A subscription-period boundary: run the admission auction."""

    period: int = 0

    priority = PERIOD_PRIORITY
    kind = "period"


@dataclass(frozen=True)
class ExpiryEvent(Event):
    """A subscription ends: reclaim its capacity before the auction."""

    query_id: str = ""
    shard: int = 0

    priority = EXPIRY_PRIORITY
    kind = "expiry"


@dataclass(frozen=True)
class RenewalEvent(Event):
    """An expired subscriber resubmits for the same category."""

    query: ContinuousQuery = None
    category: "str | None" = None
    shard: int = 0

    priority = RENEWAL_PRIORITY
    kind = "renewal"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.query is None:
            raise ValidationError("a renewal event needs a query")


@dataclass(frozen=True)
class TickEvent(Event):
    """One engine tick of the latency probe."""

    priority = TICK_PRIORITY
    kind = "tick"


@dataclass
class EventQueue:
    """A deterministic min-heap of events.

    Orders by ``(time, priority, stream, sequence)``; the sequence
    counter is part of the queue state, so a checkpointed queue keeps
    breaking ties exactly as the uninterrupted one would.
    """

    _heap: list = field(default_factory=list)
    _sequence: int = 0

    def push(self, event: Event, stream: int = 0) -> None:
        """Enqueue *event* (``stream`` orders same-time merges)."""
        heapq.heappush(
            self._heap,
            (event.time, event.priority, stream, self._sequence, event))
        self._sequence += 1

    def pop(self) -> Event:
        """Remove and return the next event; raises when empty."""
        if not self._heap:
            raise ValidationError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)[4]

    def peek(self) -> "Event | None":
        """The next event without removing it (None when empty)."""
        return self._heap[0][4] if self._heap else None

    def next_time(self) -> "float | None":
        """Time of the next event (None when empty)."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def events(self) -> list[Event]:
        """All queued events in pop order (non-destructive)."""
        return [entry[4] for entry in sorted(self._heap)]

    def kind_counts(self) -> dict[str, int]:
        """Queued events tallied by ``kind``, sorted by kind name.

        A cheap structural fingerprint of the queue: two queues with
        different compositions cannot produce the same schedule, so
        the WAL logs these counts in every period record and recovery
        checks them — a replay whose queue drifted from the original
        run fails loudly at the first boundary instead of producing a
        silently different report.
        """
        counts: dict[str, int] = {}
        for entry in self._heap:
            kind = entry[4].kind
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

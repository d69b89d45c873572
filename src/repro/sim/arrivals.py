"""Arrival processes: who shows up, and when.

An open system is defined by its arrival process.  An
:class:`ArrivalProcess` is a resumable iterator over
:class:`Arrival`\\ s — (virtual time, continuous query, requested
category) — whose entire state is plain picklable data, so a
checkpointed simulation resumes mid-stream and draws exactly the
arrivals the uninterrupted run would have drawn.

Processes are *spec-string addressable* through the shared
``utils.registry``/``specparse`` grammar, the same currency mechanisms
and placement policies use:

* ``"poisson:rate=40"`` — exponential inter-arrival gaps, mean
  ``rate`` arrivals per engine tick;
* ``"burst:size=20,every=10"`` — ``size`` simultaneous arrivals every
  ``every`` ticks (the flash-crowd regime);
* ``"trace:path=run.trace.json"`` — replay a recorded
  ``repro/sim-trace`` document, byte-identically.

Synthetic processes build single-select query plans through
:func:`synthetic_query` (module-level predicate, so every plan is
checkpoint-picklable), drawing bids and costs from the same ranges the
CLI's closed-loop workload uses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.utils.registry import RegistrySpec, SpecRegistry
from repro.utils.rng import spawn_rng
from repro.utils.validation import ValidationError, require


@dataclass(frozen=True)
class Arrival:
    """One arriving subscription request.

    ``stream`` pins the arrival to an event-stream index (shard, under
    ``route="stream"``); ``None`` means "the index of the process that
    produced me" — only trace replay sets it, so a recorded
    multi-stream run replays through one process with every arrival
    still landing on its recorded stream.
    """

    time: float
    query: ContinuousQuery
    category: "str | None" = None
    stream: "int | None" = None


def pass_all(_tuple: object) -> bool:
    """The canonical keep-everything select predicate.

    Module-level, so plans stay checkpoint-picklable — and *this exact
    function* is what the trace codec recognizes: a single-select plan
    over it travels as a ``'select'`` row, the only plan shape that
    crosses a byte boundary (gateway wire, WAL, trace).  Client code
    building plans to submit over HTTP must use it.
    """
    return True


#: Constant-true marker: lets the engine skip the per-tuple predicate
#: call entirely for selects built over this function.
pass_all.selects_all = True

#: Backwards-compatible private alias (the codec pins identity to it).
_pass_all = pass_all


class SelectPlan:
    """The columnar form of a synthetic single-select plan.

    Exactly the fields the trace codec's compact ``'select'`` encoding
    carries — id, operator id, input stream, cost, selectivity, bid,
    valuation, owner — held as plain slots instead of a full
    :class:`~repro.dsms.plan.ContinuousQuery` + operator graph.  The
    auction layer only ever reads ``query_id`` / ``operator_ids`` /
    ``bid`` / ``valuation`` / ``owner``, so a plan stays in this form
    through routing, category assignment and the admission auction;
    only *winners* pay for :meth:`materialize` (the engine needs a real
    plan to run).  That keeps the per-arrival hot path free of operator
    construction and plan validation for the ~99% of arrivals a loaded
    system rejects.
    """

    __slots__ = ("query_id", "op_id", "stream", "cost", "selectivity",
                 "bid", "valuation", "owner")

    def __init__(
        self,
        query_id: str,
        op_id: str,
        stream: str,
        cost: float,
        selectivity: float,
        bid: float,
        valuation: "float | None" = None,
        owner: "str | None" = None,
    ) -> None:
        self.query_id = query_id
        self.op_id = op_id
        self.stream = stream
        self.cost = cost
        self.selectivity = selectivity
        self.bid = bid
        self.valuation = valuation
        self.owner = owner

    @property
    def operator_ids(self) -> tuple[str, ...]:
        """The plan's operator ids (always the one select)."""
        return (self.op_id,)

    @property
    def sink_id(self) -> str:
        """The sink operator (the select itself)."""
        return self.op_id

    @property
    def true_value(self) -> float:
        """The private valuation, defaulting to the submitted bid."""
        return self.bid if self.valuation is None else self.valuation

    @property
    def owner_id(self) -> str:
        """The owning user, defaulting to the query id itself."""
        return self.owner if self.owner is not None else self.query_id

    def with_bid(self, bid: float) -> "SelectPlan":
        """A copy of this plan bidding *bid* (valuation kept)."""
        return SelectPlan(
            self.query_id, self.op_id, self.stream, self.cost,
            self.selectivity, float(bid),
            valuation=self.true_value, owner=self.owner)

    def materialize(self) -> ContinuousQuery:
        """Build the real (validated) plan this record describes.

        The select runs :func:`pass_all`, so a materialized plan
        round-trips through the trace codec's ``'select'`` row and is
        accepted at the gateway's wire boundary.
        """
        op = SelectOperator(
            self.op_id, self.stream, pass_all,
            cost_per_tuple=self.cost,
            selectivity_estimate=self.selectivity)
        return ContinuousQuery(
            self.query_id, (op,), sink_id=self.op_id,
            bid=self.bid, valuation=self.valuation, owner=self.owner)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SelectPlan({self.query_id!r}, bid={self.bid}, "
                f"cost={self.cost}, stream={self.stream!r})")


def as_continuous_query(query) -> ContinuousQuery:
    """Materialize *query* if it is a :class:`SelectPlan` (else as-is)."""
    if isinstance(query, SelectPlan):
        return query.materialize()
    return query


class ArrivalBlock:
    """A contiguous run of arrivals held as parallel columns.

    The columnar counterpart of a ``list[Arrival]`` pump batch: one
    numpy row-block the driver consumes directly — admission
    bookkeeping runs over the arrays, and a :class:`SelectPlan` object
    is built (via :meth:`plan`) only for rows that actually need one.

    Columns with a single value for every row may be stored as a
    scalar: ``inputs`` is usually the one stream name, ``streams`` is
    ``None`` ("pin to the producing process", like
    ``Arrival.stream=None``) for synthetic processes, ``valuations`` /
    ``categories`` are ``None`` when every row is truthful /
    unassigned.  ``times`` is always a float64 array in non-decreasing
    order, with no same-time stream change inside one block (the same
    cut :func:`_cut_rows` applies to object batches).
    """

    __slots__ = ("times", "ids", "ops", "owners", "inputs", "costs",
                 "selectivities", "bids", "valuations", "categories",
                 "streams")

    def __init__(self, times, ids, ops, owners, inputs, costs,
                 selectivities, bids, valuations=None, categories=None,
                 streams=None):
        self.times = times
        self.ids = ids
        self.ops = ops
        self.owners = owners
        self.inputs = inputs
        self.costs = costs
        self.selectivities = selectivities
        self.bids = bids
        self.valuations = valuations
        self.categories = categories
        self.streams = streams

    def __len__(self) -> int:
        return len(self.ids)

    def input_at(self, row: int) -> str:
        inputs = self.inputs
        return inputs if type(inputs) is str else inputs[row]

    def selectivity_at(self, row: int) -> float:
        selectivities = self.selectivities
        if type(selectivities) is float:
            return selectivities
        return float(selectivities[row])

    def category_at(self, row: int) -> "str | None":
        categories = self.categories
        return None if categories is None else categories[row]

    def stream_at(self, row: int, default: int) -> int:
        """The event-stream sort key of *row* (the shard, under
        ``route="stream"``); *default* is the producing process index,
        mirroring ``Arrival.stream=None``."""
        streams = self.streams
        if streams is None:
            return default
        if type(streams) is int:
            return streams
        return int(streams[row])

    def plan(self, row: int) -> SelectPlan:
        """Materialize the :class:`SelectPlan` of one row."""
        valuations = self.valuations
        return SelectPlan(
            self.ids[row], self.ops[row], self.input_at(row),
            float(self.costs[row]), self.selectivity_at(row),
            float(self.bids[row]),
            None if valuations is None else valuations[row],
            self.owners[row])

    def arrival(self, row: int) -> Arrival:
        """The object form of one row (fallback interop)."""
        streams = self.streams
        if streams is not None and type(streams) is not int:
            streams = int(streams[row])
        return Arrival(
            time=float(self.times[row]), query=self.plan(row),
            category=self.category_at(row), stream=streams)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrivalBlock {len(self)} rows>"


def synthetic_query(
    rng: np.random.Generator,
    index: int,
    stream: str = "s",
    prefix: str = "a",
    clients: int = 8,
) -> ContinuousQuery:
    """The standard synthetic arrival: one select over *stream*.

    Bid ~ U(5, 100), cost-per-tuple ~ U(0.5, 2.0) (both rounded to
    cents, matching the CLI's closed-loop workload), owner cycling
    through *clients* distinct client ids.
    """
    query_id = f"{prefix}{index}"
    op = SelectOperator(
        f"sel_{query_id}", stream, _pass_all,
        cost_per_tuple=float(np.round(rng.uniform(0.5, 2.0), 2)),
        selectivity_estimate=1.0)
    return ContinuousQuery(
        query_id, (op,), sink_id=op.op_id,
        bid=float(np.round(rng.uniform(5, 100), 2)),
        owner=f"user_{index % max(1, clients)}")


class ArrivalProcess(abc.ABC):
    """A deterministic, checkpointable stream of arrivals.

    :meth:`next_arrival` returns the next :class:`Arrival` (times
    non-decreasing) or ``None`` once the process is exhausted.  All
    state must be picklable plain data — the driver deep-copies the
    process into every simulation snapshot.
    """

    #: Registry/spec name of the process.
    name: str = "arrivals"

    @abc.abstractmethod
    def next_arrival(self) -> "Arrival | None":
        """Produce the next arrival, advancing the process state."""

    def next_arrivals(self, limit: int) -> "list[Arrival]":
        """Up to *limit* next arrivals in one call (the pump lookahead).

        The batch counterpart of :meth:`next_arrival`: times are
        non-decreasing, a short (or empty) list means the process ran
        dry or chose to cut the batch early — callers must keep
        pumping until an *empty* list comes back.  Subclasses with a
        per-arrival ``stream`` must cut a batch before a same-time
        stream change, so the driver's event-queue keys stay
        non-decreasing within one push run.
        """
        out: list[Arrival] = []
        for _ in range(int(limit)):
            arrival = self.next_arrival()
            if arrival is None:
                break
            out.append(arrival)
        return out

    def next_block(self) -> "ArrivalBlock | None":
        """The next arrivals as one columnar row-block, or ``None``.

        ``None`` means "no block available *right now*" — the process
        may be exhausted, may not support blocks at all (this default),
        or may be sitting on rows only the object path can express.
        Callers must fall back to :meth:`next_arrivals` and may try
        :meth:`next_block` again afterwards.  A returned block is
        never empty, draws from the same RNG stream as the object
        path (block ≡ objects, bit-identical), and obeys the same
        same-time stream-change cut.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class _BlockSynthesizer:
    """Shared block machinery of the synthetic processes.

    Bids and costs are drawn as numpy *blocks* (one ``uniform(n)`` call
    per column instead of two scalar draws per arrival), which is where
    the synthetic hot path spends its time.  A ``Generator``'s block
    draw is bit-identical to the same number of sequential scalar
    draws, so block size never changes the stream — it only changes
    how the exponential/uniform draws *interleave* across columns,
    which is why the block layout is fixed (gaps, then costs, then
    bids) rather than configurable per call.
    """

    def _init_blocks(self, block: int) -> None:
        require(int(block) >= 1, "block size must be >= 1")
        self._block = int(block)
        self._buffer: list[Arrival] = []
        self._cursor = 0

    def _buffered(self) -> "Arrival | None":
        if self._cursor >= len(self._buffer):
            self._refill()
            if not self._buffer:
                return None
        arrival = self._buffer[self._cursor]
        self._cursor += 1
        return arrival

    def _buffered_batch(self, limit: int) -> "list[Arrival]":
        if self._cursor >= len(self._buffer):
            self._refill()
        out = self._buffer[self._cursor:self._cursor + int(limit)]
        self._cursor += len(out)
        return out

    def _draw_queries(self, count: int) -> "list[SelectPlan]":
        """*count* synthetic plans, columns drawn in one block each."""
        costs = np.round(
            self._rng.uniform(0.5, 2.0, count), 2).tolist()
        bids = np.round(
            self._rng.uniform(5.0, 100.0, count), 2).tolist()
        clients = max(1, self._clients)
        prefix = self._prefix
        stream = self._stream
        base = self._count
        plans = []
        for offset in range(count):
            index = base + offset
            query_id = f"{prefix}{index}"
            plans.append(SelectPlan(
                query_id, "sel_" + query_id, stream,
                costs[offset], 1.0, bids[offset],
                None, f"user_{index % clients}"))
        return plans

    def _draw_columns(self, count: int):
        """The column form of :meth:`_draw_queries`.

        Consumes the RNG identically (one uniform block for costs, one
        for bids) but keeps the numeric columns as arrays — the ids
        still have to be Python strings either way.
        """
        costs = np.round(self._rng.uniform(0.5, 2.0, count), 2)
        bids = np.round(self._rng.uniform(5.0, 100.0, count), 2)
        clients = max(1, self._clients)
        prefix = self._prefix
        base = self._count
        ids = [f"{prefix}{base + offset}" for offset in range(count)]
        ops = ["sel_" + query_id for query_id in ids]
        owners = [f"user_{(base + offset) % clients}"
                  for offset in range(count)]
        return ids, ops, owners, costs, bids

    def _tail_block(self) -> "ArrivalBlock | None":
        """Drain a buffered object tail as one block.

        A process checkpointed mid-block resumes with part of its
        buffer unconsumed; converting that tail keeps the block path
        bit-identical to the object path after a restore.
        """
        entries = self._buffer[self._cursor:]
        self._buffer = []
        self._cursor = 0
        if not entries:
            return None
        plans = [arrival.query for arrival in entries]
        times = np.asarray([arrival.time for arrival in entries],
                           dtype=np.float64)
        valuations = [plan.valuation for plan in plans]
        if all(valuation is None for valuation in valuations):
            valuations = None
        return ArrivalBlock(
            times,
            [plan.query_id for plan in plans],
            [plan.op_id for plan in plans],
            [plan.owner for plan in plans],
            [plan.stream for plan in plans],
            np.asarray([plan.cost for plan in plans], dtype=np.float64),
            [plan.selectivity for plan in plans],
            np.asarray([plan.bid for plan in plans], dtype=np.float64),
            valuations=valuations)

    def _synth_block_header(self) -> "int | None":
        """Common ``next_block`` prologue: rows to draw, or ``None``."""
        count = self._block
        if self._limit is not None:
            count = min(count, self._limit - self._count)
        return count if count > 0 else None


class PoissonArrivals(_BlockSynthesizer, ArrivalProcess):
    """Poisson arrivals: exponential gaps with mean ``1/rate`` ticks.

    Arrivals are generated in blocks of ``block`` (queries come out as
    compact :class:`SelectPlan` records); the buffered tail is part of
    the process state, so a pickled process resumes mid-block exactly
    where it stopped.
    """

    name = "poisson"

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        limit: "int | None" = None,
        stream: str = "s",
        clients: int = 8,
        prefix: str = "a",
        start: float = 0.0,
        block: int = 256,
    ) -> None:
        require(rate > 0, "arrival rate must be positive")
        if limit is not None:
            require(int(limit) >= 0, "limit must be >= 0")
        self._rate = float(rate)
        self._rng = spawn_rng(seed)
        self._limit = None if limit is None else int(limit)
        self._stream = stream
        self._clients = int(clients)
        self._prefix = prefix
        self._time = float(start)
        self._count = 0
        self._init_blocks(block)

    def _refill(self) -> None:
        count = self._block
        if self._limit is not None:
            count = min(count, self._limit - self._count)
        if count <= 0:
            self._buffer = []
            self._cursor = 0
            return
        gaps = self._rng.exponential(1.0 / self._rate, count).tolist()
        plans = self._draw_queries(count)
        time = self._time
        buffer = []
        for gap, plan in zip(gaps, plans):
            time += gap
            buffer.append(Arrival(time=time, query=plan))
        self._time = time
        self._count += count
        self._buffer = buffer
        self._cursor = 0

    def next_arrival(self) -> "Arrival | None":
        return self._buffered()

    def next_arrivals(self, limit: int) -> "list[Arrival]":
        return self._buffered_batch(limit)

    def next_block(self) -> "ArrivalBlock | None":
        if self._cursor < len(self._buffer):
            return self._tail_block()
        count = self._synth_block_header()
        if count is None:
            return None
        # Same RNG order as _refill: gaps first, then the query columns.
        gaps = self._rng.exponential(1.0 / self._rate, count)
        gaps[0] += self._time
        # cumsum accumulates sequentially, so the running times are
        # bit-identical to the object path's scalar `time += gap` loop.
        times = np.cumsum(gaps)
        ids, ops, owners, costs, bids = self._draw_columns(count)
        self._time = float(times[-1])
        self._count += count
        return ArrivalBlock(times, ids, ops, owners, self._stream,
                            costs, 1.0, bids)


class BurstArrivals(_BlockSynthesizer, ArrivalProcess):
    """Flash crowds: ``size`` simultaneous arrivals every ``every`` ticks."""

    name = "burst"

    def __init__(
        self,
        size: int = 10,
        every: float = 10.0,
        seed: int = 0,
        limit: "int | None" = None,
        stream: str = "s",
        clients: int = 8,
        prefix: str = "a",
        start: float = 0.0,
        block: int = 256,
    ) -> None:
        require(int(size) >= 1, "burst size must be >= 1")
        require(every > 0, "burst interval must be positive")
        if limit is not None:
            require(int(limit) >= 0, "limit must be >= 0")
        self._size = int(size)
        self._every = float(every)
        self._rng = spawn_rng(seed)
        self._limit = None if limit is None else int(limit)
        self._stream = stream
        self._clients = int(clients)
        self._prefix = prefix
        self._start = float(start)
        self._burst = 1
        self._within = 0
        self._count = 0
        self._init_blocks(block)

    def _refill(self) -> None:
        count = self._block
        if self._limit is not None:
            count = min(count, self._limit - self._count)
        if count <= 0:
            self._buffer = []
            self._cursor = 0
            return
        plans = self._draw_queries(count)
        buffer = []
        for plan in plans:
            time = self._start + self._burst * self._every
            buffer.append(Arrival(time=time, query=plan))
            self._within += 1
            if self._within >= self._size:
                self._within = 0
                self._burst += 1
        self._count += count
        self._buffer = buffer
        self._cursor = 0

    def next_arrival(self) -> "Arrival | None":
        return self._buffered()

    def next_arrivals(self, limit: int) -> "list[Arrival]":
        return self._buffered_batch(limit)

    def next_block(self) -> "ArrivalBlock | None":
        if self._cursor < len(self._buffer):
            return self._tail_block()
        count = self._synth_block_header()
        if count is None:
            return None
        ids, ops, owners, costs, bids = self._draw_columns(count)
        # Row i fires in burst number burst0 + (within0 + i) // size —
        # exactly the object loop's counter walk, vectorized.
        offsets = self._within + np.arange(count, dtype=np.int64)
        bursts = self._burst + offsets // self._size
        times = self._start + bursts.astype(np.float64) * self._every
        total = self._within + count
        self._burst += total // self._size
        self._within = total % self._size
        self._count += count
        return ArrivalBlock(times, ids, ops, owners, self._stream,
                            costs, 1.0, bids)


class TraceArrivals(ArrivalProcess):
    """Replays the arrivals of a recorded ``repro/sim-trace`` document.

    Give it a live :class:`~repro.sim.trace.SimTrace` or a path to a
    trace file.  Entries replay with their recorded times, queries
    *and* categories, so a replayed run auctions exactly the workload
    the recorded run saw.
    """

    name = "trace"

    def __init__(
        self,
        trace: "object | None" = None,
        path: "str | None" = None,
    ) -> None:
        from repro.sim.trace import SimTrace

        if (trace is None) == (path is None):
            raise ValidationError(
                "pass exactly one of trace= (a SimTrace) or path= "
                "(a trace file)")
        if path is not None:
            from repro.io import load_sim_trace

            trace = load_sim_trace(path)
        if not isinstance(trace, SimTrace):
            raise ValidationError(
                f"expected a SimTrace, got {type(trace).__name__}")
        #: Traces replay straight off their columns: compact
        #: SelectPlan queries built per batch, no per-entry plan
        #: rebuilds and no up-front materialization.
        self._columns = columns = trace.columns()
        self._length = len(trace)
        self._index = 0
        self._block = 1024
        # One up-front conversion of the numeric columns (or the
        # loader's retained arrays, when the trace came off disk)
        # lets next_block hand out array *views* instead of
        # re-converting a list slice per block.  float64 round-trips
        # tolist() bitwise, so blocks are identical either way.
        cache = getattr(columns, "_numeric_cache", None)
        if cache is not None and len(cache[0]) == self._length:
            self._times, self._costs, self._bids = cache
        else:
            self._times = np.asarray(columns.times, dtype=np.float64)
            self._costs = np.asarray(columns.costs, dtype=np.float64)
            self._bids = np.asarray(columns.bids, dtype=np.float64)

    def next_arrival(self) -> "Arrival | None":
        if self._index >= self._length:
            return None
        index = self._index
        self._index += 1
        return self._columns.arrival(index)

    def next_arrivals(self, limit: int) -> "list[Arrival]":
        columns = self._columns
        start = self._index
        stop = _cut_rows(columns.times, columns.streams, start,
                         min(start + int(limit), self._length))
        self._index = stop
        return columns.arrivals_slice(start, stop)

    def next_block(self) -> "ArrivalBlock | None":
        columns = self._columns
        start = self._index
        if start >= self._length:
            return None
        end = min(start + self._block, self._length)
        stop = _cut_rows(columns.times, columns.streams, start, end)
        self._index = stop
        valuations = columns.valuations[start:stop]
        if all(valuation is None for valuation in valuations):
            valuations = None
        return ArrivalBlock(
            self._times[start:stop],
            columns.ids[start:stop],
            columns.ops[start:stop],
            columns.owners[start:stop],
            columns.inputs[start:stop],
            self._costs[start:stop],
            columns.selectivities[start:stop],
            self._bids[start:stop],
            valuations=valuations,
            categories=columns.categories[start:stop],
            streams=columns.streams[start:stop])


class ScheduledArrivals(ArrivalProcess):
    """A fixed (time, query) schedule, for full arrival control.

    The hand-written counterpart of the stochastic processes: you
    decide exactly who arrives when — deterministic scenarios, tests,
    reproducing a specific ordering.  (The ``run_periods`` lockstep
    path feeds its batches to the driver directly as arrival events;
    it does not go through this class.)
    """

    name = "scheduled"

    def __init__(
        self,
        arrivals: Sequence[Arrival],
    ) -> None:
        entries = list(arrivals)
        times = [a.time for a in entries]
        if any(later < earlier
               for earlier, later in zip(times, times[1:])):
            raise ValidationError(
                "scheduled arrivals must be in non-decreasing time order")
        self._entries = entries
        self._index = 0

    def next_arrival(self) -> "Arrival | None":
        if self._index >= len(self._entries):
            return None
        entry = self._entries[self._index]
        self._index += 1
        return entry

    def next_arrivals(self, limit: int) -> "list[Arrival]":
        return _cut_stream_batch(self._entries, self, limit)


def _cut_stream_batch(arrivals, process, limit: int) -> "list[Arrival]":
    """Slice the next batch, cut before a same-time stream change.

    Replay processes carry per-arrival stream pins; two same-time
    arrivals on *different* streams must not ride one pump batch, or
    the event queue's ``(time, priority, stream, sequence)`` key would
    re-order them against recorded order.  The cut keeps every batch's
    keys non-decreasing; the next pump picks up right after the cut.
    """
    start = process._index
    end = min(start + int(limit), len(arrivals))
    stop = start + 1 if end > start else start
    while stop < end:
        previous, current = arrivals[stop - 1], arrivals[stop]
        if (current.time == previous.time
                and current.stream != previous.stream):
            break
        stop += 1
    process._index = stop
    return list(arrivals[start:stop])


def _cut_rows(times, streams, start: int, end: int) -> int:
    """The columnar counterpart of :func:`_cut_stream_batch`'s cut."""
    stop = start + 1 if end > start else start
    while stop < end:
        if (times[stop] == times[stop - 1]
                and streams[stop] != streams[stop - 1]):
            break
        stop += 1
    return stop


# ----------------------------------------------------------------------
# Registry and specs (mirrors repro.core.mechanism)
# ----------------------------------------------------------------------

#: The arrival-process registry (shared machinery: utils.registry).
_REGISTRY = SpecRegistry("arrival process", param_noun="arrival process")


def register_arrivals(
    name: str, factory: Callable[..., ArrivalProcess]
) -> None:
    """Register a process *factory* under *name* (case-insensitive)."""
    _REGISTRY.register(name, factory)


def make_arrivals(name: str, **kwargs: object) -> ArrivalProcess:
    """Instantiate a registered process by name, validating kwargs."""
    return _REGISTRY.create(name, **kwargs)


def registered_arrivals() -> Mapping[str, Callable[..., ArrivalProcess]]:
    """Read-only view of the registry (name → factory)."""
    return _REGISTRY.as_mapping()


@dataclass(frozen=True)
class ArrivalSpec(RegistrySpec):
    """An arrival-process name plus declared, validated parameters
    (shared machinery: :class:`~repro.utils.registry.RegistrySpec`).

    >>> ArrivalSpec.parse("poisson:rate=40,seed=7")
    ArrivalSpec(name='poisson', params={'rate': 40, 'seed': 7})
    """

    _registry = _REGISTRY
    _what = "arrival spec"


def resolve_arrivals(
    arrivals: "ArrivalProcess | ArrivalSpec | str",
) -> ArrivalProcess:
    """Coerce any accepted arrival form to a live process.

    Accepts a live :class:`ArrivalProcess`, an :class:`ArrivalSpec`,
    or a spec string like ``"poisson:rate=40"``.  Specs and strings
    produce a fresh process per resolve (processes are stateful).
    """
    if isinstance(arrivals, ArrivalProcess):
        return arrivals
    if isinstance(arrivals, ArrivalSpec):
        return arrivals.create()
    if isinstance(arrivals, str):
        return ArrivalSpec.parse(arrivals).create()
    raise ValidationError(
        f"cannot resolve an arrival process from {arrivals!r}; pass an "
        f"ArrivalProcess, an ArrivalSpec, or a spec string like "
        f"'poisson:rate=40' or 'trace:path=run.trace.json'")


def _trace_factory(path: str) -> TraceArrivals:
    return TraceArrivals(path=str(path))


register_arrivals("poisson", PoissonArrivals)
register_arrivals("burst", BurstArrivals)
register_arrivals("trace", _trace_factory)

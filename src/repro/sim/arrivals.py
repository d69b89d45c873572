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

The three built-in processes generate their rows once, as numpy
:class:`ArrivalBlock`\\ s (``_generate_block``); the object stream
(:meth:`~ArrivalProcess.next_arrival` /
:meth:`~ArrivalProcess.next_arrivals`) is a view of the parked block,
so the driver's columnar pump and every object-path caller read the
same rows from the same RNG draws.  A process's state is its RNG, its
counters and at most one parked block.  Synthetic rows are the
single-select plans :func:`synthetic_query` builds (module-level
predicate, so every plan is checkpoint-picklable), drawing bids and
costs from the same ranges the CLI's closed-loop workload uses.
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

    What a row process generates: one numpy row-block the driver's
    pump consumes directly — admission bookkeeping runs over the
    arrays, and a :class:`SelectPlan` object is built (via
    :meth:`plan`) only for rows that actually need one.
    :meth:`arrivals` is the object form of a run of rows.

    Columns with a single value for every row may be stored as a
    scalar: ``inputs`` is usually the one stream name, ``streams`` is
    ``None`` ("pin to the producing process", like
    ``Arrival.stream=None``) for synthetic processes, ``valuations`` /
    ``categories`` are ``None`` when every row is truthful /
    unassigned.  ``times``, ``costs`` and ``bids`` are always float64
    arrays, ``times`` in non-decreasing order with no same-time stream
    change inside one block (the cut :func:`_cut_rows` makes).
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

    @classmethod
    def of_plans(cls, times: "Sequence[float]",
                 plans: "Sequence[SelectPlan]",
                 categories: "list | None" = None,
                 stream: "int | None" = None) -> "ArrivalBlock":
        """The block holding *plans*, arriving at *times* (one each).

        *categories* holds one requested name (or ``None``) per plan;
        *stream* pins every row to one event stream (``None``: the
        producing process's, like ``Arrival.stream=None``).
        """
        valuations = [plan.valuation for plan in plans]
        if all(valuation is None for valuation in valuations):
            valuations = None
        if categories is not None and all(
                name is None for name in categories):
            categories = None
        return cls(
            np.asarray(times, dtype=np.float64),
            [plan.query_id for plan in plans],
            [plan.op_id for plan in plans],
            [plan.owner for plan in plans],
            [plan.stream for plan in plans],
            np.asarray([plan.cost for plan in plans], dtype=np.float64),
            [plan.selectivity for plan in plans],
            np.asarray([plan.bid for plan in plans], dtype=np.float64),
            valuations=valuations, categories=categories, streams=stream)

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

    def arrivals(self, start: int = 0,
                 stop: "int | None" = None) -> "list[Arrival]":
        """Rows ``[start, stop)`` (default: all) in object form.

        Each numeric column converts once for the whole run of rows
        (``tolist`` yields exactly the ``float(...)`` of each element
        that :meth:`plan` takes); a scalar column repeats.
        """
        if stop is None:
            stop = len(self.ids)
        count = stop - start

        def rows(column):
            return ([column] * count if _is_scalar(column)
                    else column[start:stop])

        plans = map(SelectPlan, rows(self.ids), rows(self.ops),
                    rows(self.inputs), self.costs[start:stop].tolist(),
                    rows(self.selectivities),
                    self.bids[start:stop].tolist(), rows(self.valuations),
                    rows(self.owners))
        return list(map(Arrival, self.times[start:stop].tolist(), plans,
                        rows(self.categories), rows(self.streams)))

    def rows_from(self, start: int) -> "ArrivalBlock":
        """Rows ``[start, len)`` as a block of their own."""
        if not start:
            return self
        return ArrivalBlock(*(
            column if _is_scalar(column) else column[start:]
            for column in (getattr(self, name) for name in self.__slots__)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrivalBlock {len(self)} rows>"


def _is_scalar(column) -> bool:
    """Whether a block column holds one value for every row."""
    return column is None or type(column) in (str, float, int)


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
        may be exhausted or may not produce blocks at all (this
        default).  Callers must fall back to :meth:`next_arrivals` and
        may try :meth:`next_block` again afterwards.  A returned block
        is never empty and obeys the same same-time stream-change cut
        as an object batch.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class _RowProcess(ArrivalProcess):
    """A process that generates its rows once, as blocks.

    A subclass implements :meth:`_generate_block` alone.  The object
    stream is a view of one *parked* block plus a row cursor: the
    first object read parks a freshly generated block, converts its
    rows once (:meth:`ArrivalBlock.arrivals`), and hands them out up to
    the end of that block — never across it, so draws, times and
    stream cuts do not depend on which view reads them.
    :meth:`next_block` hands out the parked remainder before
    generating.  The pickled state is the RNG, the counters and the
    parked block; the converted rows are rebuilt on demand.
    """

    #: The block the object view is reading, and its next row.
    _parked: "ArrivalBlock | None" = None
    _row = 0
    #: ``_parked`` in object form (derived, never pickled).
    _objects: "list[Arrival] | None" = None

    @abc.abstractmethod
    def _generate_block(self) -> "ArrivalBlock | None":
        """Draw the next block of rows; ``None`` once exhausted."""

    def next_block(self) -> "ArrivalBlock | None":
        block = self._parked
        if block is None:
            return self._generate_block()
        rest = block.rows_from(self._row)
        self._unpark()
        return rest

    def next_arrivals(self, limit: int) -> "list[Arrival]":
        return self._take(int(limit))

    def next_arrival(self) -> "Arrival | None":
        taken = self._take(1)
        return taken[0] if taken else None

    def _take(self, limit: int) -> "list[Arrival]":
        if self._parked is None:
            block = self._generate_block()
            if block is None:
                return []
            self._parked, self._row = block, 0
        objects = self._objects
        if objects is None:
            objects = self._objects = self._parked.arrivals()
        start = self._row
        taken = objects[start:start + limit]
        self._row = start + len(taken)
        if self._row >= len(objects):
            self._unpark()
        return taken

    def _unpark(self) -> None:
        self._parked, self._row, self._objects = None, 0, None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_objects", None)
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        # Builds before this one buffered Arrival objects; the
        # unconsumed tail of that buffer is this layout's parked block.
        buffer = state.pop("_buffer", None)
        cursor = state.pop("_cursor", 0)
        self.__dict__.update(state)
        if buffer is not None and cursor < len(buffer):
            rest = buffer[cursor:]
            self._parked = ArrivalBlock.of_plans(
                [arrival.time for arrival in rest],
                [arrival.query for arrival in rest])
            self._row = 0


class _SyntheticRows(_RowProcess):
    """The half Poisson and Burst share: ids, owners, costs and bids.

    Bids and costs are drawn as numpy *blocks* (one ``uniform(n)`` call
    per column instead of two scalar draws per arrival).  A
    ``Generator``'s block draw is bit-identical to the same number of
    sequential scalar draws, so block size never changes the stream —
    it only changes how draws *interleave* across columns, which is
    why the layout is fixed (a process's own time draws, then costs,
    then bids).  Rows are drawn ``block`` at a time, fewer when
    ``limit`` is near.
    """

    def __init__(self, seed: int, limit: "int | None", stream: str,
                 clients: int, prefix: str, block: int) -> None:
        if limit is not None:
            require(int(limit) >= 0, "limit must be >= 0")
        require(int(block) >= 1, "block size must be >= 1")
        self._rng = spawn_rng(seed)
        self._limit = None if limit is None else int(limit)
        self._stream = stream
        self._clients = int(clients)
        self._prefix = prefix
        self._count = 0
        self._block = int(block)

    def _rows_to_draw(self) -> int:
        count = self._block
        if self._limit is not None:
            count = min(count, self._limit - self._count)
        return max(count, 0)

    def _block_at(self, times: np.ndarray) -> ArrivalBlock:
        """The rows arriving at *times*: their query columns drawn."""
        count = len(times)
        costs = np.round(self._rng.uniform(0.5, 2.0, count), 2)
        bids = np.round(self._rng.uniform(5.0, 100.0, count), 2)
        clients = max(1, self._clients)
        base = self._count
        ids = [f"{self._prefix}{base + offset}" for offset in range(count)]
        ops = ["sel_" + query_id for query_id in ids]
        # One string per distinct owner, shared by all of its rows.
        names = [f"user_{(base + offset) % clients}"
                 for offset in range(min(count, clients))]
        owners = [names[offset % clients] for offset in range(count)]
        self._count = base + count
        return ArrivalBlock(times, ids, ops, owners, self._stream,
                            costs, 1.0, bids)


class PoissonArrivals(_SyntheticRows):
    """Poisson arrivals: exponential gaps with mean ``1/rate`` ticks.

    Rows are generated in blocks of ``block``; the parked block is
    part of the process state, so a pickled process resumes mid-block
    exactly where it stopped.
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
        super().__init__(seed, limit, stream, clients, prefix, block)
        self._rate = float(rate)
        self._time = float(start)

    def _generate_block(self) -> "ArrivalBlock | None":
        count = self._rows_to_draw()
        if not count:
            return None
        gaps = self._rng.exponential(1.0 / self._rate, count)
        gaps[0] += self._time
        # cumsum accumulates sequentially, so the running times are
        # bit-identical to a scalar `time += gap` walk.
        times = np.cumsum(gaps)
        self._time = float(times[-1])
        return self._block_at(times)


class BurstArrivals(_SyntheticRows):
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
        super().__init__(seed, limit, stream, clients, prefix, block)
        self._size = int(size)
        self._every = float(every)
        self._start = float(start)
        self._burst = 1
        self._within = 0

    def _generate_block(self) -> "ArrivalBlock | None":
        count = self._rows_to_draw()
        if not count:
            return None
        # Row i fires in burst number burst0 + (within0 + i) // size.
        offsets = self._within + np.arange(count, dtype=np.int64)
        bursts = self._burst + offsets // self._size
        times = self._start + bursts.astype(np.float64) * self._every
        total = self._within + count
        self._burst += total // self._size
        self._within = total % self._size
        return self._block_at(times)


class TraceArrivals(_RowProcess):
    """Replays the arrivals of a recorded ``repro/sim-trace`` document.

    Give it a live :class:`~repro.sim.trace.SimTrace` or a path to a
    trace file.  Entries replay with their recorded times, queries
    *and* categories, so a replayed run auctions exactly the workload
    the recorded run saw.  A block is up to 1 024 rows sliced straight
    off the trace's columns, cut before a same-time stream change.
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
        self._columns = columns = trace.columns()
        self._length = len(trace)
        self._index = 0
        self._block = 1024
        # One up-front conversion of the numeric columns (or the
        # loader's retained arrays, when the trace came off disk)
        # lets a block hand out array *views* instead of re-converting
        # a list slice per block.  float64 round-trips tolist()
        # bitwise, so blocks are identical either way.
        cache = getattr(columns, "_numeric_cache", None)
        if cache is not None and len(cache[0]) == self._length:
            self._times, self._costs, self._bids = cache
        else:
            self._times = np.asarray(columns.times, dtype=np.float64)
            self._costs = np.asarray(columns.costs, dtype=np.float64)
            self._bids = np.asarray(columns.bids, dtype=np.float64)

    def _generate_block(self) -> "ArrivalBlock | None":
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
    reproducing a specific ordering.  Any plan shape may arrive, so
    this process has no block form.
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
        start = self._index
        window = self._entries[start:start + int(limit)]
        stop = start + _cut_rows([a.time for a in window],
                                 [a.stream for a in window],
                                 0, len(window))
        self._index = stop
        return window[:stop - start]


def _cut_rows(times, streams, start: int, end: int) -> int:
    """Where the batch of rows ``[start, end)`` must stop.

    Replayed rows carry per-row stream pins; two same-time rows on
    *different* streams must not ride one pump batch, or the event
    queue's ``(time, priority, stream, sequence)`` key would re-order
    them against recorded order.  The cut keeps every batch's keys
    non-decreasing; the next pull picks up right after it.  A batch is
    never empty while rows remain.
    """
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

"""Simulation traces: record an arrival stream, replay it exactly.

A trace is the workload of an open-system run — every arrival's
virtual time, query, and requested subscription category — captured as
a versioned document (``repro/sim-trace``, written and read by
:func:`repro.io.save_sim_trace` / :func:`repro.io.load_sim_trace`).
Replaying a trace through :class:`~repro.sim.arrivals.TraceArrivals`
against an identically configured service reproduces the recorded run
byte-identically: same auctions, same bills, same reports.

One file format is written: **v2 (binary)**, the arrivals as numpy
columns (times, bids, costs, selectivities, plus interned owner/
category/stream string tables) in one ``.npz`` container that numpy
loads with object arrays disabled.  **v1 (JSON)** — one ``arrivals``
array of per-entry documents — is still read.

This module also owns what a query looks like in bytes.
:func:`encode_query` / :func:`decode_query` speak one form, the
``"select"`` row — id, bid, owner, stream, cost and selectivity of a
single-select plan over :func:`~repro.sim.arrivals.pass_all` (the
output of :func:`~repro.sim.arrivals.synthetic_query`, the CLI
workloads and :class:`~repro.sim.arrivals.SelectPlan` records) — and
the gateway wire body, the WAL op record and both trace formats all go
through them.  A plan with no select form is refused where it would
have to be written; richer plans are an in-process API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.sim.arrivals import SelectPlan, pass_all
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class TraceEntry:
    """One recorded arrival."""

    time: float
    query: ContinuousQuery
    category: "str | None" = None
    stream: int = 0


def as_select_plan(query) -> "SelectPlan | None":
    """*query* as a compact :class:`SelectPlan`, or ``None``.

    Recognizes a live :class:`SelectPlan` and any single-select
    :class:`ContinuousQuery` whose predicate is *identically* the
    public :func:`~repro.sim.arrivals.pass_all` — the only plan shape
    the ``'select'`` encoding (and therefore every byte boundary: wire,
    WAL, trace) can carry.
    """
    if type(query) is SelectPlan:
        return query
    if (isinstance(query, ContinuousQuery)
            and len(query.operators) == 1
            and type(query.operators[0]) is SelectOperator
            and query.operators[0]._predicate is pass_all):
        op = query.operators[0]
        return SelectPlan(
            query.query_id, op.op_id, op.inputs[0],
            op.cost_per_tuple, op.selectivity(),
            query.bid, query.valuation, query.owner)
    return None


def require_select_plan(query) -> SelectPlan:
    """*query* as a :class:`SelectPlan`, or a query-naming refusal."""
    plan = as_select_plan(query)
    if plan is None:
        raise ValidationError(
            f"query {getattr(query, 'query_id', query)!r} is not a "
            f"single pass-all select, the only plan shape that can be "
            f"recorded, logged or sent; richer plans are an in-process "
            f"API")
    return plan


@dataclass
class TraceColumns:
    """The columnar body of a trace: one row per arrival.

    Every arrival lives entirely in the parallel columns, so row
    order — and therefore replay order — is exactly recording order.
    """

    times: list = field(default_factory=list)
    streams: list = field(default_factory=list)
    categories: list = field(default_factory=list)
    ids: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    selectivities: list = field(default_factory=list)
    bids: list = field(default_factory=list)
    valuations: list = field(default_factory=list)
    owners: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    def append_select(
        self, time: float, plan: SelectPlan,
        category: "str | None", stream: int,
    ) -> None:
        """Append one select-encoded arrival row."""
        self.times.append(time)
        self.streams.append(stream)
        self.categories.append(category)
        self.ids.append(plan.query_id)
        self.ops.append(plan.op_id)
        self.inputs.append(plan.stream)
        self.costs.append(plan.cost)
        self.selectivities.append(plan.selectivity)
        self.bids.append(plan.bid)
        self.valuations.append(plan.valuation)
        self.owners.append(plan.owner)

    def extend_select_block(
        self, block, start: int, stop: int,
        categories, default_stream: int,
    ) -> None:
        """Append rows ``[start, stop)`` of an arrival block.

        Column-to-column bulk appends, byte-identical to calling
        :meth:`append_select` with ``block.plan(row)`` for each row
        (the numpy ``.tolist()`` items are exactly the ``float(...)``
        casts the per-row path performs).  *categories* is the
        resolved per-row category list for the slice — the driver
        records assigned categories, not requested ones, matching the
        per-event recorder calls.
        """
        count = stop - start
        self.times.extend(block.times[start:stop].tolist())
        streams = block.streams
        if streams is None:
            self.streams.extend([int(default_stream)] * count)
        elif type(streams) is int:
            self.streams.extend([streams] * count)
        else:
            self.streams.extend(
                int(streams[row]) for row in range(start, stop))
        self.categories.extend(categories)
        self.ids.extend(block.ids[start:stop])
        self.ops.extend(block.ops[start:stop])
        inputs = block.inputs
        if type(inputs) is str:
            self.inputs.extend([inputs] * count)
        else:
            self.inputs.extend(inputs[start:stop])
        self.costs.extend(block.costs[start:stop].tolist())
        selectivities = block.selectivities
        if type(selectivities) is float:
            self.selectivities.extend([selectivities] * count)
        else:
            self.selectivities.extend(
                float(selectivities[row]) for row in range(start, stop))
        self.bids.extend(block.bids[start:stop].tolist())
        valuations = block.valuations
        if valuations is None:
            self.valuations.extend([None] * count)
        else:
            self.valuations.extend(valuations[start:stop])
        self.owners.extend(block.owners[start:stop])

    def query(self, row: int) -> SelectPlan:
        """The recorded query of *row*."""
        return SelectPlan(
            self.ids[row], self.ops[row], self.inputs[row],
            self.costs[row], self.selectivities[row], self.bids[row],
            self.valuations[row], self.owners[row])

    def entries(self) -> list[TraceEntry]:
        """Every row as a :class:`TraceEntry`, in recording order."""
        return [
            TraceEntry(time=self.times[row], query=self.query(row),
                       category=self.categories[row],
                       stream=self.streams[row])
            for row in range(len(self.times))
        ]

    def copy(self) -> "TraceColumns":
        """A shallow row-snapshot (new lists, shared immutable cells)."""
        return TraceColumns(
            times=list(self.times), streams=list(self.streams),
            categories=list(self.categories), ids=list(self.ids),
            ops=list(self.ops), inputs=list(self.inputs),
            costs=list(self.costs),
            selectivities=list(self.selectivities),
            bids=list(self.bids), valuations=list(self.valuations),
            owners=list(self.owners))

    @classmethod
    def from_entries(cls, entries) -> "TraceColumns":
        """Columns for an iterable of :class:`TraceEntry` rows."""
        columns = cls()
        for entry in entries:
            columns.append_select(
                entry.time, require_select_plan(entry.query),
                entry.category, entry.stream)
        return columns


class SimTrace:
    """An ordered record of every arrival of one simulation run.

    A trace is its :class:`TraceColumns` (what the recorder produces,
    the v2 binary format stores and both readers build); ``entries``
    materializes lazily from them, so traces save and replay without
    building a million entry objects first.
    """

    def __init__(self, columns: TraceColumns):
        self._entries = None
        self._columns = columns

    @property
    def entries(self) -> tuple[TraceEntry, ...]:
        """The trace as entry records (materialized once, cached)."""
        if self._entries is None:
            self._entries = tuple(self._columns.entries())
        return self._entries

    def columns(self) -> TraceColumns:
        """The columnar body."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimTrace):
            return NotImplemented
        return self._columns == other._columns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SimTrace {len(self)} arrivals>"


class TraceRecorder:
    """Collects arrivals as the driver processes them.

    Plans append straight onto :class:`TraceColumns` — a handful of
    scalar list appends per arrival, no entry or plan objects — which
    is what keeps ``record=True`` viable on million-arrival runs.  A
    plan that is not select-shaped is refused at the arrival that
    brings it, not at save time after the run.
    """

    def __init__(self) -> None:
        self._columns = TraceColumns()

    def record(
        self,
        time: float,
        query,
        category: "str | None",
        stream: int = 0,
    ) -> None:
        """Append one arrival to the recording."""
        self._columns.append_select(
            float(time), require_select_plan(query), category,
            int(stream))

    def record_rows(
        self, block, start: int, stop: int,
        categories, default_stream: int,
    ) -> None:
        """Append one consumed row slice of an arrival block.

        The columnar pump's recorder call: whole-slice list extends
        instead of per-arrival :meth:`record` calls, producing rows
        byte-identical to recording each ``block.plan(row)``.
        """
        self._columns.extend_select_block(
            block, start, stop, categories, default_stream)

    def trace(self) -> SimTrace:
        """The recording so far, as an immutable trace."""
        return SimTrace(columns=self._columns.copy())


# ----------------------------------------------------------------------
# The query codec
# ----------------------------------------------------------------------


def encode_query(query) -> dict:
    """JSON-able ``'select'`` row of *query* (refused if it has none)."""
    plan = require_select_plan(query)
    entry: dict[str, object] = {
        "plan": "select",
        "id": plan.query_id,
        "op": plan.op_id,
        "stream": plan.stream,
        "cost": plan.cost,
        "selectivity": plan.selectivity,
        "bid": plan.bid,
    }
    if plan.valuation is not None:
        entry["valuation"] = plan.valuation
    if plan.owner is not None:
        entry["owner"] = plan.owner
    return entry


def decode_query(entry: dict) -> ContinuousQuery:
    """Rebuild a query from :func:`encode_query` output.

    The one decoder behind the socket, the WAL op replay and the v1
    trace reader, so it trusts nothing: any encoding but ``'select'``
    is refused before a byte of it is touched, and a number the
    auction cannot price (NaN, infinity) or an owner that is not a
    name is the sender's error, naming the field and the query.
    """
    try:
        plan = entry["plan"]
        if plan == "select":
            query_id = str(entry["id"])
            cost = float(entry["cost"])
            selectivity = float(entry["selectivity"])
            bid = float(entry["bid"])
            valuation = (float(entry["valuation"])
                         if "valuation" in entry else None)
            owner = entry.get("owner")
            if not (isfinite(cost) and isfinite(selectivity)
                    and isfinite(bid)
                    and (valuation is None or isfinite(valuation))):
                bad = next(
                    name for name in ("cost", "selectivity", "bid",
                                      "valuation")
                    if name in entry and not isfinite(float(entry[name])))
                raise ValidationError(
                    f"query {query_id!r}: {bad} must be a finite "
                    f"number, got {entry[bad]!r}")
            if owner is not None and type(owner) is not str:
                raise ValidationError(
                    f"query {query_id!r}: owner must be a string or "
                    f"null, got {type(owner).__name__}")
            return SelectPlan(
                query_id, str(entry["op"]), str(entry["stream"]),
                cost, selectivity, bid, valuation, owner,
            ).materialize()
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"malformed trace query entry: {exc!r}") from exc
    raise ValidationError(
        f"unknown trace plan encoding {plan!r} (query "
        f"{entry.get('id')!r}); this build reads 'select' rows only "
        f"(plans serialized as Python objects ran sender-chosen code "
        f"on load and are refused)")


def entry_from_dict(document: dict) -> TraceEntry:
    """Parse one v1 (JSON) trace entry document."""
    try:
        return TraceEntry(
            time=float(document["time"]),
            query=decode_query(document["query"]),
            category=document.get("category"),
            stream=int(document.get("stream", 0)),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed trace entry: {exc!r}") from exc

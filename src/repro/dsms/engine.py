"""The stream engine: shared execution, connection points, transition.

A discrete-tick simulator of the paper's Aurora-style query network
(Section II).  Each tick:

1. every source emits its arrivals;
2. operators execute **once each** in topological order, regardless of
   how many admitted queries share them (this is the shared processing
   that the admission mechanisms price);
3. each query's sink output is appended to its result log;
4. per-operator work (input tuples × cost) is metered for load
   measurement.

The **transition phase** (end-of-subscription-period replanning)
follows the paper: upstream *connection points* hold arriving tuples,
the in-flight tuples of the subnetworks being modified are drained
through their downstream connection points, the planner applies the
query changes, and the held tuples are input before newly arriving
ones — so continuing queries observe a gap-free stream.
"""

from __future__ import annotations

from collections.abc import Iterable, KeysView, Mapping, Sequence

from repro.dsms.backend import ScalarBackend
from repro.dsms.load import LoadMeter
from repro.dsms.metrics import EngineReport
from repro.dsms.operators import AggregateOperator
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.dsms.streams import StreamSource
from repro.dsms.tuples import StreamTuple
from repro.utils.records import deepcopy_sharing_records
from repro.utils.validation import ValidationError, require


class ConnectionPoint:
    """An ingress buffer that can hold tuples during a transition."""

    def __init__(self, stream_name: str) -> None:
        self.stream_name = stream_name
        self._held: list[StreamTuple] = []
        self.holding = False

    def accept(self, batch: Sequence[StreamTuple]) -> list[StreamTuple]:
        """Pass *batch* through, or buffer it while holding."""
        if self.holding:
            self._held.extend(batch)
            return []
        return list(batch)

    def release(self) -> list[StreamTuple]:
        """Stop holding and return everything buffered, in order."""
        self.holding = False
        held, self._held = self._held, []
        return held

    @property
    def held_count(self) -> int:
        """Number of tuples currently held."""
        return len(self._held)


class StreamEngine:
    """Executes admitted continuous queries over the sources.

    ``capacity`` (optional) is the work budget per tick in the same
    units the auction uses; the engine never refuses work — admission
    control is the auction's job — but it meters overload so tests can
    assert that admitted sets respect capacity on average.
    """

    def __init__(
        self,
        sources: Iterable[StreamSource],
        capacity: float | None = None,
    ) -> None:
        self._sources: dict[str, StreamSource] = {}
        for source in sources:
            if source.name in self._sources:
                raise ValidationError(
                    f"duplicate stream name {source.name!r}")
            self._sources[source.name] = source
        self.capacity = capacity
        self.backend = ScalarBackend()
        self.catalog = QueryPlanCatalog()
        self.meter = LoadMeter()
        self.report = EngineReport(capacity=capacity)
        self.results: dict[str, list[StreamTuple]] = {}
        self._connection_points = {
            name: ConnectionPoint(name) for name in self._sources}
        self._tick = 0
        self._in_transition = False

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written before the interpreter was an attribute
        # lack it; every checkpoint since pickles it by name, so it
        # stays in the state for older builds to find.
        self.__dict__.update(state)
        if "backend" not in state:
            self.backend = ScalarBackend()

    def __deepcopy__(self, memo: dict) -> "StreamEngine":
        """Copy the network; share the delivered (immutable) tuples."""
        return deepcopy_sharing_records(self, memo, self.results.values())

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def validate_streams(self, query: ContinuousQuery) -> None:
        """Reject *query* if its plan reads streams this engine lacks.

        Checked before any state mutates, so callers (and the
        transition phase) can rely on a failed admission leaving the
        engine untouched.  A plan that reads only this engine's sources
        is valid without looking up shared or own operators.
        """
        sources = self._sources
        if all(name in sources for op in query.operators
               for name in op.inputs):
            return
        shared, own = self.catalog.operator_ids, query.operator_ids
        missing = sorted({name for op in query.operators
                          for name in op.inputs
                          if name not in sources and name not in shared
                          and name not in own})
        if missing:
            raise ValidationError(
                f"query {query.query_id!r} references unknown "
                f"streams {missing}")

    def admit(self, query: ContinuousQuery) -> None:
        """Register *query* for execution (validates stream inputs)."""
        self.validate_streams(query)
        self.catalog.add(query)
        self.results.setdefault(query.query_id, [])

    def remove(self, query_id: str) -> ContinuousQuery:
        """Deregister a query (its result log is kept)."""
        return self.catalog.remove(query_id)

    @property
    def admitted_ids(self) -> KeysView[str]:
        """Ids of the currently admitted queries.

        A live read-only view (membership, ``len``, truthiness and set
        operators all work); copy it with ``set(...)`` before holding
        it across an :meth:`admit`/:meth:`remove`."""
        return self.catalog.query_ids

    @property
    def current_tick(self) -> int:
        """The index of the last executed tick."""
        return self._tick

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, ticks: int) -> EngineReport:
        """Execute *ticks* ticks; returns the cumulative report."""
        require(not self._in_transition,
                "cannot run while a transition is open")
        for _ in range(ticks):
            self._execute_tick()
        return self.report

    def _execute_tick(self) -> None:
        self._tick += 1
        arrivals: dict[str, list[StreamTuple]] = {}
        source_count = 0
        for name, source in self._sources.items():
            emitted = source.emit(self._tick)
            source_count += len(emitted)
            point = self._connection_points[name]
            arrivals[name] = point.accept(emitted)
        self._process(arrivals, source_count)

    def _process(
        self,
        arrivals: Mapping[str, list[StreamTuple]],
        source_count: int,
    ) -> None:
        outputs, work_by_op = self.backend.run_operators(
            self.catalog.ordered_operators(), arrivals)
        self.meter.record_tick(work_by_op)
        delivered: dict[str, int] = {}
        for query in self.catalog.iter_queries():
            produced = outputs.get(query.sink_id, [])
            self.results[query.query_id].extend(produced)
            delivered[query.query_id] = len(produced)
        self.report.merge_tick(
            source_count, sum(work_by_op.values()), delivered)

    # ------------------------------------------------------------------
    # Transition phase (Section II)
    # ------------------------------------------------------------------

    def begin_transition(self) -> None:
        """Start holding arriving tuples at the connection points."""
        require(not self._in_transition, "transition already open")
        self._in_transition = True
        for point in self._connection_points.values():
            point.holding = True

    def hold_tick(self) -> None:
        """Let one tick of arrivals accumulate at the connection points.

        Models wall-clock time passing while the planner works: sources
        emit, nothing executes, nothing is lost.
        """
        require(self._in_transition, "no open transition")
        self._tick += 1
        held = 0
        for name, source in self._sources.items():
            emitted = source.emit(self._tick)
            held += len(emitted)
            self._connection_points[name].accept(emitted)

    def drain(
        self, query_ids: Iterable[str] | None = None
    ) -> dict[str, int]:
        """Flush in-flight tuples of the (to-be-modified) subnetworks.

        Stateful operators belonging to *query_ids* (default: all
        admitted queries) emit their buffered partial results to the
        queries' logs, so nothing in their queues is silently dropped
        by the replanning.  Returns drained-tuple counts per query.
        """
        require(self._in_transition, "no open transition")
        targets = (set(self.catalog.queries) if query_ids is None
                   else set(query_ids))
        drained: dict[str, int] = {}
        flushed: dict[str, list[StreamTuple]] = {}
        for op in self.catalog.topological_order():
            if isinstance(op, AggregateOperator) and op.pending_tuples():
                used_by = set(self.catalog.queries_containing(op.op_id))
                if used_by & targets:
                    flushed[op.op_id] = op.flush_partial()
        for query_id in targets:
            query = self.catalog.queries[query_id]
            produced = flushed.get(query.sink_id, [])
            self.results[query_id].extend(produced)
            drained[query_id] = len(produced)
        return drained

    def end_transition(
        self,
        add: Sequence[ContinuousQuery] = (),
        remove: Sequence[str] = (),
    ) -> None:
        """Apply the plan changes and replay the held tuples.

        The held tuples are input *before* newly arriving tuples (they
        form the first post-transition tick), preserving stream order
        for continuing queries.
        """
        require(self._in_transition, "no open transition")
        # Validate every incoming plan before anything mutates: a bad
        # query must fail its submitter, not strand the transition
        # half-applied with the connection points holding forever.
        for query in add:
            self.validate_streams(query)
        for query_id in remove:
            self.remove(query_id)
        for query in add:
            self.admit(query)
        released = {
            name: point.release()
            for name, point in self._connection_points.items()
        }
        self._in_transition = False
        held_count = sum(len(batch) for batch in released.values())
        if held_count:
            self._tick += 1
            self._process(released, 0)

    def transition(
        self,
        add: Sequence[ContinuousQuery] = (),
        remove: Sequence[str] = (),
        hold_ticks: int = 1,
    ) -> None:
        """Convenience: the full transition-phase sequence."""
        # Fail fast, before the transition even opens: a bad plan in
        # the add set must leave the engine exactly as it was.
        for query in add:
            self.validate_streams(query)
        self.begin_transition()
        drain_targets = set(remove)
        if drain_targets:
            self.drain(drain_targets)
        for _ in range(hold_ticks):
            self.hold_tick()
        self.end_transition(add=add, remove=remove)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def held_tuples(self) -> int:
        """Tuples currently held across all connection points."""
        return sum(p.held_count
                   for p in self._connection_points.values())

    def measured_loads(self) -> dict[str, float]:
        """Mean measured work per tick for every operator."""
        return self.meter.measured_loads()

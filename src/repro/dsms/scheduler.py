"""Operator scheduling under a per-tick work budget.

The base :class:`~repro.dsms.engine.StreamEngine` executes every
operator fully each tick — fine when the admission auction keeps
aggregate load within capacity, but the Aurora-style systems the paper
builds on (and cites: Sharaf et al.'s operator-scheduling metrics)
process tuples through *bounded* CPU with queues between operators.
:class:`ScheduledEngine` models exactly that:

* each operator owns an input **queue** per input;
* each tick has a **work budget** (the capacity); a pluggable
  :class:`SchedulingPolicy` decides which operator runs next and how
  many queued tuples it may consume;
* unconsumed tuples wait — queue lengths and **tuple latency** (ticks
  from source arrival to sink emission) become measurable.

This gives the library the back-pressure story behind the paper's
admission control: an over-admitted system doesn't crash, it builds
queues and latency without bound — which is why you price admission in
the first place (``tests/dsms/test_scheduler.py`` demonstrates both
regimes).

Policies are *spec-string addressable* through the shared registry
grammar (``"fifo"``, ``"round-robin"``, ``"longest-queue-first"``,
``"cheapest-first"``), the currency of
:class:`~repro.sim.SimulationDriver`'s ``probe=`` and the CLI's
``--scheduler`` flag — direct construction keeps working, but is
no longer the only way in.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from collections.abc import Callable, Iterable, KeysView, Mapping, Sequence
from itertools import repeat

from repro.dsms.operators import StreamOperator
from repro.dsms.plan import (
    ContinuousQuery,
    QueryPlanCatalog,
    is_passthrough_network,
)
from repro.dsms.streams import StreamSource
from repro.dsms.tuples import StreamTuple
from repro.utils.records import deepcopy_sharing_records
from repro.utils.registry import RegistrySpec, SpecRegistry
from repro.utils.validation import ValidationError, require


class SchedulingPolicy(abc.ABC):
    """Orders the runnable operators within a tick."""

    name = "policy"

    @abc.abstractmethod
    def order(
        self,
        operators: Sequence[StreamOperator],
        queue_lengths: dict[str, int],
    ) -> list[StreamOperator]:
        """Operators in the order they should be offered work."""


class FifoPolicy(SchedulingPolicy):
    """Keeps the topological (pipeline) order the engine offers.

    Upstream operators are served before their consumers, so tuples
    flow through the network in arrival order — the first-in-first-out
    baseline of the operator-scheduling literature.
    """

    name = "fifo"

    def order(self, operators, queue_lengths):
        return list(operators)


class RoundRobinPolicy(SchedulingPolicy):
    """Cycles through the operators, rotating the head each tick."""

    name = "round-robin"

    def __init__(self) -> None:
        self._offset = 0

    def order(self, operators, queue_lengths):
        if not operators:
            return []
        rotation = self._offset % len(operators)
        self._offset += 1
        return list(operators[rotation:]) + list(operators[:rotation])


class LongestQueueFirstPolicy(SchedulingPolicy):
    """Serves the operator with the most queued input first."""

    name = "longest-queue-first"

    def order(self, operators, queue_lengths):
        return sorted(
            operators,
            key=lambda op: (-queue_lengths.get(op.op_id, 0), op.op_id))


class CheapestFirstPolicy(SchedulingPolicy):
    """Serves cheap operators first (max tuples drained per unit work,
    the throughput-greedy policy)."""

    name = "cheapest-first"

    def order(self, operators, queue_lengths):
        return sorted(operators,
                      key=lambda op: (op.cost_per_tuple, op.op_id))


# ----------------------------------------------------------------------
# Registry and specs (mirrors repro.core.mechanism)
# ----------------------------------------------------------------------

#: The scheduling-policy registry (shared machinery: utils.registry).
_REGISTRY = SpecRegistry("scheduling policy", param_noun="scheduling policy")


def register_policy(
    name: str, factory: Callable[..., SchedulingPolicy]
) -> None:
    """Register a policy *factory* under *name* (case-insensitive)."""
    _REGISTRY.register(name, factory)


def make_policy(name: str, **kwargs: object) -> SchedulingPolicy:
    """Instantiate a registered policy by name, validating kwargs."""
    return _REGISTRY.create(name, **kwargs)


def registered_policies() -> Mapping[str, Callable[..., SchedulingPolicy]]:
    """Read-only view of the registry (name → factory)."""
    return _REGISTRY.as_mapping()


@dataclass(frozen=True)
class PolicySpec(RegistrySpec):
    """A scheduling-policy name plus declared, validated parameters.

    Parseable from the same compact strings every other registry in
    the library uses (shared machinery:
    :class:`~repro.utils.registry.RegistrySpec`):

    >>> PolicySpec.parse("round-robin")
    PolicySpec(name='round-robin', params={})
    """

    _registry = _REGISTRY
    _what = "scheduler spec"


def resolve_policy(
    policy: "SchedulingPolicy | PolicySpec | str",
) -> SchedulingPolicy:
    """Coerce any accepted policy form to a live instance.

    Accepts a live :class:`SchedulingPolicy`, a :class:`PolicySpec`,
    or a spec string like ``"fifo"`` / ``"round-robin"``.  Specs and
    strings produce a fresh instance per resolve (policies may hold
    per-engine cursor state).
    """
    if isinstance(policy, SchedulingPolicy):
        return policy
    if isinstance(policy, PolicySpec):
        return policy.create()
    if isinstance(policy, str):
        return PolicySpec.parse(policy).create()
    raise ValidationError(
        f"cannot resolve a scheduling policy from {policy!r}; pass a "
        f"SchedulingPolicy, a PolicySpec, or a spec string like "
        f"'fifo' or 'round-robin'")


register_policy("fifo", FifoPolicy)
register_policy("round-robin", RoundRobinPolicy)
register_policy("longest-queue-first", LongestQueueFirstPolicy)
register_policy("cheapest-first", CheapestFirstPolicy)


@dataclass
class LatencyStats:
    """Accumulated sink-delivery latency in ticks."""

    total: float = 0.0
    count: int = 0
    maximum: int = 0

    def record(self, latency: int) -> None:
        self.total += latency
        self.count += 1
        self.maximum = max(self.maximum, latency)

    @property
    def mean(self) -> float:
        """Mean latency (0 when nothing was delivered)."""
        return self.total / self.count if self.count else 0.0


#: Derived attributes :meth:`ScheduledEngine._rebuild_table` makes;
#: a pickle or copy leaves them out.
_DRAIN_TABLE = ("_table", "_feeds")


class ScheduledEngine:
    """A bounded-work engine with per-operator input queues."""

    def __init__(
        self,
        sources: Iterable[StreamSource],
        capacity: float,
        policy: "SchedulingPolicy | PolicySpec | str | None" = None,
        count_mode: bool = False,
    ) -> None:
        require(capacity > 0, "capacity must be positive")
        self._sources: dict[str, StreamSource] = {}
        for source in sources:
            if source.name in self._sources:
                raise ValidationError(
                    f"duplicate stream name {source.name!r}")
            self._sources[source.name] = source
        self.capacity = float(capacity)
        self.policy = (RoundRobinPolicy() if policy is None
                       else resolve_policy(policy))
        self.catalog = QueryPlanCatalog()
        self.results: dict[str, list[StreamTuple]] = {}
        self.latency: dict[str, LatencyStats] = {}
        #: Raw per-delivery latencies (ticks) — the SLA percentiles of
        #: the open-system simulation need the distribution, not just
        #: the running mean.
        self.latency_samples: list[int] = []
        # op id -> input name -> queue of (arrival tick, tuple)
        self._queues: dict[str, dict[str, deque]] = {}
        # Count mode (latency accounting only): queues carry
        # ``[birth tick, count]`` runs instead of tuples and result
        # logs stay empty — valid only while the admitted network is a
        # passthrough network (:func:`is_passthrough_network`), over
        # sources whose origins embed the emitting tick.
        # The engine drops back to tuple queues (permanently, results
        # still skipped) the moment a non-conforming plan is admitted.
        self._keep_results = not count_mode
        self._counts = bool(count_mode) and all(
            getattr(source, "origin_tick_stamped", False)
            for source in self._sources.values())
        self._run_queues: dict[str, deque] = {}
        #: Running delivery totals across every sink query — O(1)
        #: reads for per-tick metrics (summing the per-query stats
        #: each tick is quadratic over a long run).  Latencies are
        #: integers, so the totals are exact.
        self.delivered_count = 0
        self.delivered_latency = 0
        # Derived routing/accounting state, rebuilt on admit/remove:
        # catalog views copy their dicts, far too slow per tick.
        self._order: list[StreamOperator] = []
        self._consumers: dict[str, list[StreamOperator]] = {}
        self._sinks: dict[str, list[str]] = {}
        self._stream_consumers: dict[str, list[StreamOperator]] = {}
        self._queued: dict[str, int] = {}
        self._nonempty: set[str] = set()
        self._birth_memo: dict[str, int] = {}
        self._tick = 0
        self.work_done = 0.0
        self.ticks_run = 0
        self._rebuild_table()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _DRAIN_TABLE:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_table()

    def __deepcopy__(self, memo: dict) -> "ScheduledEngine":
        """Copy the queues; share delivered tuples and latency samples."""
        return deepcopy_sharing_records(
            self, memo, [*self.results.values(), self.latency_samples])

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(self, query: ContinuousQuery) -> None:
        """Register *query* and allocate queues for its operators."""
        self.transition(add=(query,))

    def remove(self, query_id: str) -> ContinuousQuery:
        """Deregister *query_id*; orphaned operators drop their queues.

        Tuples queued for operators still shared with other queries
        stay queued; queues of operators no query references anymore
        are discarded with their contents (the subscription expired —
        nobody is paying for those results).
        """
        try:
            return self._drop(query_id)
        finally:
            self._rebuild_routing()

    def transition(
        self,
        add: Sequence[ContinuousQuery] = (),
        remove: Sequence[str] = (),
    ) -> None:
        """Change the admitted set: remove *remove*, then admit *add*,
        one at a time as :meth:`remove` and :meth:`admit` do, with the
        routing rebuilt once at the end (also when an admission is
        refused part way)."""
        try:
            for query_id in remove:
                self._drop(query_id)
            for query in add:
                self._add(query)
        finally:
            self._rebuild_routing()

    def _add(self, query: ContinuousQuery) -> None:
        catalog = self.catalog
        catalog.add(query)
        live, sources = catalog.operator_ids, self._sources
        missing = {name for op in query.operators for name in op.inputs
                   if name not in sources and name not in live}
        if missing:
            catalog.remove(query.query_id)
            raise ValidationError(
                f"query {query.query_id!r} references unknown "
                f"streams {sorted(missing)}")
        self.results.setdefault(query.query_id, [])
        self.latency.setdefault(query.query_id, LatencyStats())
        for op in query.operators:
            queues = self._queues.setdefault(op.op_id, {})
            for name in op.inputs:
                queues.setdefault(name, deque())
            self._queued.setdefault(op.op_id, 0)
            if self._counts:
                self._run_queues.setdefault(op.op_id, deque())

    def _drop(self, query_id: str) -> ContinuousQuery:
        query = self.catalog.remove(query_id)
        live = self.catalog.operator_ids
        for op_id in query.operator_ids:
            if op_id not in live:
                del self._queues[op_id]
                del self._queued[op_id]
                self._nonempty.discard(op_id)
                self._run_queues.pop(op_id, None)
        return query

    def _rebuild_routing(self) -> None:
        """Recompute the per-tick routing maps from the catalog.

        The catalog's ``operators``/``queries`` views copy their dicts
        on every access, and routing by scanning them is quadratic in
        the admitted set — both are fine at admission frequency but
        not inside the tick loop, so the loop reads these instead.
        """
        operators = self.catalog.operators
        self._order = list(self.catalog.topological_order())
        self._consumers = {op_id: [] for op_id in operators}
        self._stream_consumers = {}
        for op in operators.values():
            for name in op.inputs:
                if name in operators:
                    self._consumers[name].append(op)
                if name in self._sources:
                    self._stream_consumers.setdefault(
                        name, []).append(op)
        self._sinks = {}
        for query_id, query in self.catalog.queries.items():
            self._sinks.setdefault(query.sink_id, []).append(query_id)
        if self._counts and not is_passthrough_network(
                self.catalog, self._sources):
            self._deactivate_counts()
        self._rebuild_table()

    def _rebuild_table(self) -> None:
        """Recompute count mode's drain table from the routing maps.

        ``_table`` maps each op id, in topological order, to ``(op, op
        id, cost per tuple, run queue, the LatencyStats of the queries
        it is the sink of)``; ``_feeds`` maps each stream to ``(op id,
        run queue)`` per consumer.  Both point into this engine's own
        queues and stats, so they are never pickled or copied: a
        restored or copied engine rebuilds them."""
        self._table: dict[str, tuple] = {}
        self._feeds: dict[str, list[tuple[str, deque]]] = {}
        if not self._counts:
            return
        runs, latency = self._run_queues, self.latency
        for op in self._order:
            self._table[op.op_id] = (
                op, op.op_id, op.cost_per_tuple, runs[op.op_id],
                [latency[query_id]
                 for query_id in self._sinks.get(op.op_id, ())])
        for name, consumers in self._stream_consumers.items():
            self._feeds[name] = [(op.op_id, runs[op.op_id])
                                 for op in consumers]

    def _deactivate_counts(self) -> None:
        """One-way fallback from run-length to tuple queues.

        Queued runs materialize as placeholder tuples whose origins
        embed the recorded birth ticks, so downstream latency
        accounting is unchanged (payloads are never inspected on a
        passthrough network and results are not kept in this mode).
        """
        for op_id, runs in self._run_queues.items():
            queues = self._queues[op_id]
            name = next(iter(queues))
            queue = queues[name]
            serial = 0
            for birth, count in runs:
                for _ in range(count):
                    t = StreamTuple(
                        stream=name, tick=birth, payload={},
                        origin=(f"{name}@{birth}#cnt{serial}",))
                    queue.append((birth, t))
                    serial += 1
        self._run_queues = {}
        self._counts = False

    @property
    def admitted_ids(self) -> KeysView[str]:
        """Ids of the queries currently registered (a live view)."""
        return self.catalog.query_ids

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def queue_length(self, op_id: str) -> int:
        """Total queued tuples across an operator's inputs."""
        return self._queued.get(op_id, 0)

    def total_queued(self) -> int:
        """Tuples waiting anywhere in the network."""
        return sum(self._queued.values())

    def run(self, ticks: int) -> None:
        """Execute *ticks* budget-bounded ticks."""
        for _ in range(ticks):
            self._execute_tick()

    def _execute_tick(self) -> None:
        if self._counts:
            self._execute_tick_counts()
            return
        self._tick += 1
        self.ticks_run += 1
        self._birth_memo.clear()
        # 1. Source arrivals enter the queues of consuming operators.
        # Every source emits (emission advances its state) even when
        # nothing currently consumes it.
        queued = self._queued
        nonempty = self._nonempty
        for name, source in self._sources.items():
            tuples = source.emit(self._tick)
            if not tuples:
                continue
            for op in self._stream_consumers.get(name, ()):
                queue = self._queues[op.op_id][name]
                for t in tuples:
                    queue.append((self._tick, t))
                queued[op.op_id] += len(tuples)
                nonempty.add(op.op_id)

        # 2. Spend the work budget according to the policy.  Multiple
        # passes let downstream operators consume what upstream ones
        # emitted this same tick, until the budget or the queues run
        # out.
        budget = self.capacity
        progressed = True
        while budget > 1e-12 and progressed and nonempty:
            progressed = False
            operators = [op for op in self._order
                         if op.op_id in nonempty]
            ordered = self.policy.order(
                operators, {op.op_id: queued[op.op_id] for op in operators})
            for op in ordered:
                if budget <= 1e-12:
                    break
                consumed, emitted = self._run_operator(op, budget)
                if consumed:
                    progressed = True
                    budget -= consumed * op.cost_per_tuple
                    self.work_done += consumed * op.cost_per_tuple
                    self._route(op, emitted)

    def _run_operator(
        self, op: StreamOperator, budget: float
    ) -> tuple[int, list[StreamTuple]]:
        """Drain as much of *op*'s queues as the budget allows."""
        op_id = op.op_id
        if op.cost_per_tuple <= 0:
            affordable = self._queued.get(op_id, 0)
        else:
            affordable = int(budget / op.cost_per_tuple)
        if affordable <= 0:
            return 0, []
        batches: dict[str, list[StreamTuple]] = {}
        consumed = 0
        for name, queue in self._queues[op_id].items():
            take = min(len(queue), affordable - consumed)
            if take == len(queue):
                batch = [t for _arrival, t in queue]
                queue.clear()
            else:
                batch = []
                for _ in range(take):
                    _arrival, t = queue.popleft()
                    batch.append(t)
            batches[name] = batch
            consumed += take
            if consumed >= affordable:
                break
        if consumed == 0:
            return 0, []
        self._queued[op_id] -= consumed
        if not self._queued[op_id]:
            self._nonempty.discard(op_id)
        emitted = op.execute(batches)
        return consumed, emitted

    def _execute_tick_counts(self) -> None:
        """One budget-bounded tick over run-length queues.

        Mirrors :meth:`_execute_tick` (the reference) — same budget
        maths, same policy ordering, same latency sequence — but
        drains ``[birth tick, count]`` runs through the drain table
        (:meth:`_rebuild_table`) and delivers their latencies straight
        to the sinks.  Work and delivery totals gather in locals and
        are written back once; the float work adds in the reference's
        order, so it keeps its bits.
        """
        self._tick += 1
        self.ticks_run += 1
        tick = self._tick
        queued = self._queued
        nonempty = self._nonempty
        feeds = self._feeds
        for name, source in self._sources.items():
            n = source.emit_count(tick)
            if n is None:
                n = len(source.emit(tick))
            if not n:
                continue
            for op_id, runs in feeds.get(name, ()):
                runs.append([tick, n])
                queued[op_id] += n
                nonempty.add(op_id)

        # Count mode only runs on passthrough networks, so draining one
        # operator never refills another's queue, and an operator a
        # fifo pass left partially drained ended it with a budget
        # remainder below its own per-tuple cost: a second fifo pass can
        # never consume anything, so fifo walks the table once.
        # Stateful policies keep the reference's passes: their per-pass
        # ``order`` calls advance cursors, which *is* observable on
        # later ticks.
        table = self._table
        policy = None if type(self.policy) is FifoPolicy else self.policy
        samples = self.latency_samples
        budget = self.capacity
        work = self.work_done
        delivered = delivered_latency = 0
        progressed = True
        while budget > 1e-12 and progressed and nonempty:
            progressed = False
            if policy is None:
                entries = table.values()
            else:
                operators = [entry[0] for entry in table.values()
                             if entry[1] in nonempty]
                entries = [table[op.op_id] for op in policy.order(
                    operators,
                    {op.op_id: queued[op.op_id] for op in operators})]
            for op, op_id, cost, runs, sinks in entries:
                if budget <= 1e-12:
                    break
                backlog = queued[op_id]
                if not backlog:
                    continue
                affordable = backlog if cost <= 0 else int(budget / cost)
                if affordable <= 0:
                    continue
                take = backlog if backlog <= affordable else affordable
                head = runs[0]
                birth, count = head
                latency = tick - birth
                if count >= take:
                    # One run covers the drain: no segment list.
                    if count == take:
                        runs.popleft()
                    else:
                        head[1] = count - take
                    lat_sum = latency * take
                    lat_max = latency
                    segments = None
                else:
                    remaining = take
                    lat_sum = lat_max = 0
                    segments = []
                    while remaining:
                        head = runs[0]
                        birth, count = head
                        use = count if count <= remaining else remaining
                        if use == count:
                            runs.popleft()
                        else:
                            head[1] = count - use
                        latency = tick - birth
                        lat_sum += latency * use
                        if latency > lat_max:
                            lat_max = latency
                        segments.append((latency, use))
                        remaining -= use
                queued[op_id] = backlog - take
                if backlog == take:
                    nonempty.discard(op_id)
                op.processed_tuples += take
                op.emitted_tuples += take
                for stats in sinks:
                    stats.total += lat_sum
                    stats.count += take
                    if lat_max > stats.maximum:
                        stats.maximum = lat_max
                    delivered += take
                    delivered_latency += lat_sum
                    if segments is None:
                        samples.extend(repeat(latency, take))
                    else:
                        for latency, use in segments:
                            samples.extend(repeat(latency, use))
                progressed = True
                budget -= take * cost
                work += take * cost
            if policy is None:
                break
        self.work_done = work
        self.delivered_count += delivered
        self.delivered_latency += delivered_latency

    def _birth_tick(self, t: StreamTuple) -> int:
        """Earliest source tick in *t*'s provenance (this tick when
        the tuple carries no source origin)."""
        # Memoized on the ``stream@tick`` prefix: every tuple born the
        # same tick from the same stream shares one entry, whereas the
        # full origin string is unique per tuple.
        memo = self._birth_memo
        birth: "int | None" = None
        for origin in t.origin:
            head = origin.partition("#")[0]
            parsed = memo.get(head)
            if parsed is None:
                if "@" not in head:
                    continue
                parsed = int(head.partition("@")[2])
                memo[head] = parsed
            if birth is None or parsed < birth:
                birth = parsed
        return self._tick if birth is None else birth

    def _route(self, op: StreamOperator,
               emitted: list[StreamTuple]) -> None:
        """Deliver an operator's output to consumers and sinks."""
        if not emitted:
            return
        tick = self._tick
        count = len(emitted)
        for downstream in self._consumers.get(op.op_id, ()):
            queue = self._queues[downstream.op_id][op.op_id]
            queue.extend((tick, t) for t in emitted)
            self._queued[downstream.op_id] += count
            self._nonempty.add(downstream.op_id)
        sinks = self._sinks.get(op.op_id)
        if not sinks:
            return
        birth = self._birth_tick
        latencies = [tick - birth(t) for t in emitted]
        # Latencies are small ints, so the batched sum/max updates stay
        # exact (no float rounding) — identical to per-item record().
        lat_sum = sum(latencies)
        lat_max = max(latencies)
        samples = self.latency_samples
        keep_results = self._keep_results
        for query_id in sinks:
            stats = self.latency[query_id]
            if keep_results:
                self.results[query_id].extend(emitted)
            stats.total += lat_sum
            stats.count += count
            if lat_max > stats.maximum:
                stats.maximum = lat_max
            self.delivered_count += count
            self.delivered_latency += lat_sum
            samples.extend(latencies)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def mean_work_per_tick(self) -> float:
        """Average work actually executed per tick."""
        return self.work_done / self.ticks_run if self.ticks_run else 0.0

    def mean_latency(self, query_id: str) -> float:
        """Mean delivery latency of *query_id*'s results, in ticks."""
        return self.latency[query_id].mean

"""Continuous-query plans: operator DAGs with sharing.

A :class:`ContinuousQuery` names a sink operator and carries the
operators on its path from the source streams.  Operators are shared
**by identity of their op_id**: when two queries reference the same
op_id, they must supply equal-configured operator objects, and the
engine runs the operator once for both — the Aurora-style shared
subnetworks of Section II.

:class:`QueryPlanCatalog` validates and merges a set of queries into
the engine's executable graph (topologically ordered, sharing
de-duplicated) and exposes the sharing structure the auction layer
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Collection, Iterable, KeysView, Mapping, Sequence

from repro.dsms.operators import SelectOperator, StreamOperator
from repro.utils.validation import ValidationError, require


@dataclass(frozen=True)
class ContinuousQuery:
    """One CQ: its operators, sink, and commercial metadata.

    ``operators`` must include every operator the query needs, up from
    the source streams; ``sink_id`` is the operator whose output is the
    query's result.  ``bid`` and ``owner`` feed the admission auction.
    """

    query_id: str
    operators: tuple[StreamOperator, ...]
    sink_id: str
    bid: float = 0.0
    valuation: float | None = None
    owner: str | None = None

    def __post_init__(self) -> None:
        require(bool(self.query_id), "query id must be non-empty")
        require(len(self.operators) > 0,
                f"query {self.query_id!r} has no operators")
        ids = [op.op_id for op in self.operators]
        require(len(set(ids)) == len(ids),
                f"query {self.query_id!r} repeats an operator id")
        require(self.sink_id in ids,
                f"sink {self.sink_id!r} is not an operator of query "
                f"{self.query_id!r}")

    @cached_property
    def operator_ids(self) -> tuple[str, ...]:
        """Ids of the operators this query contains.

        Cached: the query is frozen, and admission/auction code walks
        this per period for every held query."""
        return tuple(op.op_id for op in self.operators)

    @property
    def true_value(self) -> float:
        """Private valuation, defaulting to the bid."""
        return self.bid if self.valuation is None else self.valuation

    def operator(self, op_id: str) -> StreamOperator:
        """The operator object with id *op_id*."""
        for op in self.operators:
            if op.op_id == op_id:
                return op
        raise KeyError(op_id)


def check_compatible(first: StreamOperator, second: StreamOperator) -> None:
    """Shared operators must agree on type, inputs and cost."""
    if type(first) is not type(second):
        raise ValidationError(
            f"operator {first.op_id!r} shared with conflicting types "
            f"{type(first).__name__} vs {type(second).__name__}")
    if first.inputs != second.inputs:
        raise ValidationError(
            f"operator {first.op_id!r} shared with conflicting inputs "
            f"{first.inputs} vs {second.inputs}")
    if first.cost_per_tuple != second.cost_per_tuple:
        raise ValidationError(
            f"operator {first.op_id!r} shared with conflicting costs")


def is_passthrough_network(catalog: "QueryPlanCatalog",
                           sources: Collection[str]) -> bool:
    """True when every operator of *catalog* is a stock passthrough
    select reading one of *sources* and feeding no other operator, and
    every query's sink is one of them.

    Such a network moves each source's tuples unchanged to its sinks,
    so both engines may settle it without executing an operator: the
    stream engine a period per pass, the scheduled engine's count mode
    over run-length queues.  "Stock" means ``work``, ``execute`` and
    ``_process``, which both skip, are not overridden: a select
    subclass with its own ``_process`` runs through the interpreter
    (tuple queues in count mode), and its override with it.
    """
    live = catalog.operator_ids
    for op in catalog.ordered_operators():
        kind = type(op)
        if not (isinstance(op, SelectOperator) and op._passthrough
                and kind.work is StreamOperator.work
                and kind.execute is StreamOperator.execute
                and kind._process is SelectOperator._process
                and len(op.inputs) == 1 and op.inputs[0] in sources
                and op.inputs[0] not in live):
            return False
    return all(query.sink_id in live for query in catalog.iter_queries())


class QueryPlanCatalog:
    """The merged, validated operator graph of a set of queries."""

    def __init__(self, queries: Iterable[ContinuousQuery] = ()) -> None:
        self._queries: dict[str, ContinuousQuery] = {}
        self._operators: dict[str, StreamOperator] = {}
        self._order_cache: "list[StreamOperator] | None" = None
        for query in queries:
            self.add(query)

    def __setstate__(self, state: dict) -> None:
        # Catalogs pickled before the order cache existed get an
        # (empty) cache on resume; the generation counter older builds
        # pickled has no reader, so it is dropped.
        state.pop("_generation", None)
        self.__dict__.update(state)
        self.__dict__.setdefault("_order_cache", None)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, query: ContinuousQuery) -> None:
        """Register *query*, merging shared operators by id.

        Every operator is checked before any is stored, so a refused
        query leaves the catalog as it was."""
        if query.query_id in self._queries:
            raise ValidationError(
                f"duplicate query id {query.query_id!r}")
        operators = self._operators
        for op in query.operators:
            if op.op_id in operators:
                check_compatible(operators[op.op_id], op)
        for op in query.operators:
            operators.setdefault(op.op_id, op)
        self._queries[query.query_id] = query
        self._order_cache = None

    def check_operators(self, query: ContinuousQuery,
                        dropped: Collection[str] = ()) -> None:
        """Refuse *query* if it redefines an operator this catalog
        holds, other than one only the *dropped* queries contain."""
        for op in query.operators:
            existing = self._operators.get(op.op_id)
            if existing is None:
                continue
            try:
                check_compatible(existing, op)
            except ValidationError:
                if not set(self.queries_containing(op.op_id)).issubset(
                        dropped):
                    raise

    def remove(self, query_id: str) -> ContinuousQuery:
        """Deregister a query; orphaned operators are dropped too."""
        query = self._queries.pop(query_id)
        still_used = {
            op_id
            for q in self._queries.values()
            for op_id in q.operator_ids
        }
        for op_id in query.operator_ids:
            if op_id not in still_used:
                del self._operators[op_id]
        self._order_cache = None
        return query

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def queries(self) -> Mapping[str, ContinuousQuery]:
        """Registered queries by id."""
        return dict(self._queries)

    @property
    def operators(self) -> Mapping[str, StreamOperator]:
        """Merged (shared) operators by id."""
        return dict(self._operators)

    @property
    def query_ids(self) -> KeysView[str]:
        """Live read-only view of the registered query ids."""
        return self._queries.keys()

    @property
    def operator_ids(self) -> KeysView[str]:
        """Live read-only view of the merged operator ids."""
        return self._operators.keys()

    def iter_queries(self) -> "Iterable[ContinuousQuery]":
        """Iterate registered queries without copying the table.

        The ``queries`` property copies its dict on every access —
        right for callers that hold the view across mutations, wasted
        inside per-tick loops that only walk it once."""
        return iter(self._queries.values())

    def ordered_operators(self) -> "Sequence[StreamOperator]":
        """The cached topological order, without the defensive copy.

        Callers must not mutate the returned list and must not hold it
        across :meth:`add`/:meth:`remove` (use
        :meth:`topological_order` for a private copy)."""
        if self._order_cache is None:
            self.topological_order()
        return self._order_cache

    def sharing_degree(self, op_id: str) -> int:
        """How many registered queries contain *op_id*."""
        return sum(
            1 for q in self._queries.values()
            if op_id in q.operator_ids
        )

    def queries_containing(self, op_id: str) -> list[str]:
        """Ids of queries containing *op_id*."""
        return [qid for qid, q in self._queries.items()
                if op_id in q.operator_ids]

    def topological_order(self) -> list[StreamOperator]:
        """Operators in dependency order (streams are roots).

        The order is cached between calls — the engine asks for it on
        every tick — and invalidated by any plan mutation
        (:meth:`add` / :meth:`remove`).  Raises
        :class:`ValidationError` on a cycle.
        """
        if self._order_cache is not None:
            return list(self._order_cache)
        op_ids = set(self._operators)
        dependencies = {
            op_id: [i for i in self._operators[op_id].inputs
                    if i in op_ids]
            for op_id in op_ids
        }
        order: list[StreamOperator] = []
        state: dict[str, int] = {}

        def visit(op_id: str) -> None:
            mark = state.get(op_id, 0)
            if mark == 1:
                raise ValidationError(
                    f"operator graph has a cycle through {op_id!r}")
            if mark == 2:
                return
            state[op_id] = 1
            for dep in dependencies[op_id]:
                visit(dep)
            state[op_id] = 2
            order.append(self._operators[op_id])

        for op_id in sorted(op_ids):
            visit(op_id)
        self._order_cache = order
        return list(order)

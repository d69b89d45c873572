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
from collections.abc import Iterable, KeysView, Mapping, Sequence

from repro.dsms.operators import StreamOperator
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


class QueryPlanCatalog:
    """The merged, validated operator graph of a set of queries."""

    def __init__(self, queries: Iterable[ContinuousQuery] = ()) -> None:
        self._queries: dict[str, ContinuousQuery] = {}
        self._operators: dict[str, StreamOperator] = {}
        self._order_cache: "list[StreamOperator] | None" = None
        self._generation = 0
        for query in queries:
            self.add(query)

    def __setstate__(self, state: dict) -> None:
        # Catalogs pickled before the order cache existed get an
        # (empty) cache on resume; same for the generation counter.
        self.__dict__.update(state)
        self.__dict__.setdefault("_order_cache", None)
        self.__dict__.setdefault("_generation", 0)

    @property
    def generation(self) -> int:
        """Bumped by every :meth:`add`/:meth:`remove`.

        Lets per-tick callers cache derived views (sink sets, query
        lists) and revalidate with one integer compare instead of
        rebuilding from the tables each tick.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, query: ContinuousQuery) -> None:
        """Register *query*, merging shared operators by id."""
        if query.query_id in self._queries:
            raise ValidationError(
                f"duplicate query id {query.query_id!r}")
        for op in query.operators:
            existing = self._operators.get(op.op_id)
            if existing is None:
                self._operators[op.op_id] = op
            else:
                check_compatible(existing, op)
        self._queries[query.query_id] = query
        self._order_cache = None
        self._generation += 1

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
        self._generation += 1
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

    def stream_names(self) -> set[str]:
        """External stream inputs referenced by the graph."""
        op_ids = set(self._operators)
        names: set[str] = set()
        for op in self._operators.values():
            names.update(i for i in op.inputs if i not in op_ids)
        return names

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

    def subgraph_order(
        self, query_ids: Sequence[str]
    ) -> list[StreamOperator]:
        """Topological order restricted to the given queries' operators."""
        keep: set[str] = set()
        for qid in query_ids:
            keep.update(self._queries[qid].operator_ids)
        return [op for op in self.topological_order()
                if op.op_id in keep]

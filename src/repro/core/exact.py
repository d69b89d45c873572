"""Exact optimal winner selection — the benchmark greedy cannot be.

Section III explains why optimal admission with shared operators is
hard: even a special case reduces to the densest-subgraph problem, so
no polynomial algorithm is known.  For *small* instances, though, the
optimum is computable by branch-and-bound, which gives the library two
things the paper's discussion implies but cannot plot:

* the **social-welfare optimum** ``max Σ bids`` over fitting sets —
  an upper bound on any mechanism's winner-set value; and
* the **price of greedy**: how far the CAF/CAT winner sets fall short
  of that optimum (``tests/core/test_exact.py`` checks they keep more
  than half of it).

The search branches on queries in decreasing bid order, bounding with
the remaining queries' total bid sum, and prunes by marginal load.
Exponential worst case — guarded by ``max_queries``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import AuctionInstance, Query
from repro.utils.validation import require


@dataclass(frozen=True)
class ExactSolution:
    """An optimal fitting winner set and its total bid value."""

    winner_ids: tuple[str, ...]
    total_value: float
    explored_nodes: int


def optimal_winner_set(
    instance: AuctionInstance,
    max_queries: int = 24,
) -> ExactSolution:
    """Maximum-total-bid fitting subset, by branch-and-bound.

    Raises :class:`ValidationError` when the instance exceeds
    *max_queries* (the search is exponential; the guard keeps callers
    honest about where "exact" is affordable).
    """
    require(instance.num_queries <= max_queries,
            f"exact search limited to {max_queries} queries "
            f"(instance has {instance.num_queries})")
    queries = sorted(instance.queries, key=lambda q: (-q.bid, q.query_id))
    suffix_value = [0.0] * (len(queries) + 1)
    for index in range(len(queries) - 1, -1, -1):
        suffix_value[index] = suffix_value[index + 1] + queries[index].bid

    best_value = 0.0
    best_set: tuple[str, ...] = ()
    explored = 0
    capacity = instance.capacity
    operators = instance.operators

    def marginal(query: Query, running: set[str]) -> float:
        return sum(operators[op_id].load
                   for op_id in query.operator_ids
                   if op_id not in running)

    def search(index: int, value: float, used: float,
               running: set[str], chosen: list[str]) -> None:
        nonlocal best_value, best_set, explored
        explored += 1
        if value > best_value:
            best_value = value
            best_set = tuple(sorted(chosen))
        if index == len(queries):
            return
        if value + suffix_value[index] <= best_value:
            return  # even taking everything left cannot improve
        query = queries[index]
        margin = marginal(query, running)
        if used + margin <= capacity + 1e-9:
            added = [op for op in query.operator_ids
                     if op not in running]
            running.update(added)
            chosen.append(query.query_id)
            search(index + 1, value + query.bid, used + margin,
                   running, chosen)
            chosen.pop()
            running.difference_update(added)
        search(index + 1, value, used, running, chosen)

    search(0, 0.0, 0.0, set(), [])
    return ExactSolution(
        winner_ids=best_set,
        total_value=best_value,
        explored_nodes=explored,
    )


def greedy_value_gap(
    instance: AuctionInstance,
    mechanism_winner_ids: "frozenset[str] | set[str]",
    max_queries: int = 24,
) -> tuple[float, float]:
    """(greedy value, optimal value) for a mechanism's winner set."""
    greedy_value = sum(
        instance.query(qid).bid for qid in mechanism_winner_ids)
    optimum = optimal_winner_set(instance, max_queries=max_queries)
    return greedy_value, optimum.total_value

"""Unit tests for the shared greedy admission scheme."""

import math

from repro.core.greedy import (
    greedy_admit,
    priority_of,
    priority_order,
)
from repro.core.loads import static_fair_share_load, total_load
from repro.core.model import AuctionInstance, Operator, Query


def chain_instance(loads, bids, capacity):
    """n queries with disjoint single operators."""
    operators = {f"o{i}": Operator(f"o{i}", load)
                 for i, load in enumerate(loads)}
    queries = tuple(
        Query(f"q{i}", (f"o{i}",), bid=bid)
        for i, bid in enumerate(bids))
    return AuctionInstance(operators, queries, capacity)


class TestPriorityOf:
    def test_plain_density(self):
        assert priority_of(10.0, 4.0) == 2.5

    def test_zero_load_is_infinite(self):
        assert priority_of(5.0, 0.0) == math.inf

    def test_zero_bid(self):
        assert priority_of(0.0, 4.0) == 0.0


class TestPriorityOrder:
    def test_orders_by_density_descending(self):
        instance = chain_instance([1, 2, 1], [5, 20, 7], capacity=10)
        order = priority_order(instance, total_load)
        assert [q.query_id for q in order] == ["q1", "q2", "q0"]

    def test_tie_break_by_query_id(self):
        instance = chain_instance([1, 1], [5, 5], capacity=10)
        order = priority_order(instance, total_load)
        assert [q.query_id for q in order] == ["q0", "q1"]

    def test_fair_share_changes_order(self):
        # Shared operator halves q0's fair-share load, boosting it.
        operators = {"s": Operator("s", 4.0), "p": Operator("p", 4.0),
                     "x": Operator("x", 4.0)}
        queries = (
            Query("q0", ("s",), bid=10.0),
            Query("q1", ("s",), bid=1.0),   # shares s
            Query("q2", ("p",), bid=11.0),
            Query("q3", ("x",), bid=18.0),
        )
        instance = AuctionInstance(operators, queries, capacity=12.0)
        total_order = [q.query_id for q in
                       priority_order(instance, total_load)]
        fair_order = [q.query_id for q in
                      priority_order(instance, static_fair_share_load)]
        assert total_order.index("q0") > total_order.index("q2")
        assert fair_order.index("q0") < fair_order.index("q2")


class TestGreedyAdmit:
    def test_stop_at_first(self):
        instance = chain_instance([5, 6, 1], [50, 30, 5], capacity=10)
        order = sorted(instance.queries, key=lambda q: -q.bid)
        selection = greedy_admit(instance, order, skip_over=False)
        assert [q.query_id for q in selection.winners] == ["q0"]
        assert selection.first_loser.query_id == "q1"

    def test_skip_over_finds_lighter_queries(self):
        instance = chain_instance([5, 6, 1], [50, 30, 5], capacity=10)
        order = sorted(instance.queries, key=lambda q: -q.bid)
        selection = greedy_admit(instance, order, skip_over=True)
        assert [q.query_id for q in selection.winners] == ["q0", "q2"]
        assert selection.first_loser.query_id == "q1"

    def test_everything_fits(self):
        instance = chain_instance([1, 1], [5, 4], capacity=10)
        selection = greedy_admit(
            instance, list(instance.queries), skip_over=False)
        assert len(selection.winners) == 2
        assert selection.first_loser is None

    def test_marginal_cost_admission(self):
        # Shared operator: second query adds only its private part.
        operators = {"big": Operator("big", 8.0),
                     "p1": Operator("p1", 1.0),
                     "p2": Operator("p2", 1.0)}
        queries = (
            Query("q0", ("big", "p1"), bid=20.0),
            Query("q1", ("big", "p2"), bid=10.0),
        )
        instance = AuctionInstance(operators, queries, capacity=10.0)
        selection = greedy_admit(
            instance, list(instance.queries), skip_over=False)
        # q0 uses 9; q1's marginal is only 1 thanks to sharing.
        assert {q.query_id for q in selection.winners} == {"q0", "q1"}

    def test_capacity_never_exceeded(self):
        instance = chain_instance([3, 3, 3, 3], [9, 8, 7, 6], capacity=7)
        selection = greedy_admit(
            instance, list(instance.queries), skip_over=True)
        used = instance.union_load(q.query_id for q in selection.winners)
        assert used <= instance.capacity + 1e-9

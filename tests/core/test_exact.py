"""Exact optimal winner selection tests."""

import pytest
from hypothesis import given, settings

from repro.core import make_mechanism
from repro.core.exact import greedy_value_gap, optimal_winner_set
from repro.core.model import AuctionInstance, Operator, Query
from repro.utils.rng import derive_seed
from repro.utils.validation import ValidationError
from repro.workload import example1
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from tests.strategies import auction_instances


def brute_force_optimum(instance):
    """Reference: enumerate all subsets."""
    from itertools import combinations

    best = 0.0
    ids = [q.query_id for q in instance.queries]
    for size in range(len(ids) + 1):
        for subset in combinations(ids, size):
            if instance.fits(subset):
                value = sum(instance.query(qid).bid for qid in subset)
                best = max(best, value)
    return best


class TestOptimalWinnerSet:
    def test_example1(self):
        solution = optimal_winner_set(example1())
        assert solution.winner_ids == ("q1", "q2")
        assert solution.total_value == pytest.approx(127.0)

    def test_sharing_exploited(self):
        """The optimum picks the sharing pair over the single big bid
        when their combined value wins."""
        operators = {"s": Operator("s", 8.0), "a": Operator("a", 1.0),
                     "b": Operator("b", 1.0), "x": Operator("x", 10.0)}
        queries = (
            Query("q0", ("s", "a"), bid=40.0),
            Query("q1", ("s", "b"), bid=40.0),
            Query("q2", ("x",), bid=70.0),
        )
        instance = AuctionInstance(operators, queries, capacity=10.0)
        solution = optimal_winner_set(instance)
        assert set(solution.winner_ids) == {"q0", "q1"}

    def test_guard_on_large_instances(self):
        operators = {f"o{i}": Operator(f"o{i}", 1.0) for i in range(30)}
        queries = tuple(Query(f"q{i}", (f"o{i}",), bid=1.0)
                        for i in range(30))
        instance = AuctionInstance(operators, queries, capacity=10.0)
        with pytest.raises(ValidationError):
            optimal_winner_set(instance, max_queries=24)

    @settings(max_examples=30, deadline=None)
    @given(instance=auction_instances(max_queries=7))
    def test_matches_brute_force(self, instance):
        solution = optimal_winner_set(instance)
        assert solution.total_value == pytest.approx(
            brute_force_optimum(instance))
        assert instance.fits(solution.winner_ids)

    @settings(max_examples=30, deadline=None)
    @given(instance=auction_instances(max_queries=7))
    def test_upper_bounds_greedy(self, instance):
        """No mechanism's winner set can out-value the optimum."""
        for name in ("CAF", "CAT", "GV"):
            outcome = make_mechanism(name).run(instance)
            greedy, optimum = greedy_value_gap(
                instance, outcome.winner_ids)
            assert greedy <= optimum + 1e-6

    @pytest.mark.parametrize("index", range(6))
    def test_greedy_is_not_pathological(self, index):
        """The price of greedy on small Table III instances: CAF or CAT
        keeps more than half the optimal winner-set value (0.82 at
        worst over these six)."""
        config = WorkloadConfig(num_queries=18, max_sharing=5,
                                capacity=18 * 7.5)
        instance = WorkloadGenerator(
            config=config, seed=derive_seed(2010, "exact", index),
        ).instance(max_sharing=4, capacity=60.0)
        greedy, optimum = max(
            greedy_value_gap(instance,
                             make_mechanism(name).run(instance).winner_ids)
            for name in ("CAF", "CAT"))
        assert greedy > 0.5 * optimum

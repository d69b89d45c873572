"""Unit tests for the OPT_C constant-pricing benchmark."""

from repro.core import make_mechanism
from repro.core.model import AuctionInstance, Operator, Query
from repro.core.optc import optimal_constant_pricing


def chain(loads, bids, capacity):
    operators = {f"o{i}": Operator(f"o{i}", load)
                 for i, load in enumerate(loads)}
    queries = tuple(Query(f"q{i}", (f"o{i}",), bid=bid)
                    for i, bid in enumerate(bids))
    return AuctionInstance(operators, queries, capacity)


class TestOptimalConstantPricing:
    def test_unconstrained_optimum(self):
        pricing = optimal_constant_pricing(
            chain([1, 1, 1, 1], [10, 6, 5, 1], capacity=100))
        assert pricing.price == 5
        assert pricing.profit == 15
        assert set(pricing.winner_ids) == {"q0", "q1", "q2"}

    def test_capacity_invalidates_low_prices(self):
        # Price 5 needs 3 queries (3 units); capacity 2 forbids it.
        pricing = optimal_constant_pricing(
            chain([1, 1, 1, 1], [10, 6, 5, 1], capacity=2))
        assert pricing.price == 6
        assert pricing.profit == 12

    def test_tie_packing_at_price(self):
        # All bid 10; capacity fits two of three.
        pricing = optimal_constant_pricing(
            chain([1, 1, 1], [10, 10, 10], capacity=2))
        assert pricing.price == 10
        assert pricing.profit == 20
        assert len(pricing.winner_ids) == 2

    def test_empty_instance_degenerate(self):
        instance = chain([5], [0.0], capacity=3)
        pricing = optimal_constant_pricing(instance)
        assert pricing.profit == 0.0

    def test_sharing_lets_more_winners_fit(self):
        operators = {"s": Operator("s", 4.0), "a": Operator("a", 1.0),
                     "b": Operator("b", 1.0)}
        queries = (
            Query("q0", ("s", "a"), bid=10.0),
            Query("q1", ("s", "b"), bid=10.0),
        )
        shared = AuctionInstance(operators, queries, capacity=6.0)
        pricing = optimal_constant_pricing(shared)
        # Union load 6 fits both; without sharing 10 would not.
        assert pricing.profit == 20.0

    def test_mechanism_wrapper(self):
        outcome = make_mechanism("OPT_C").run(
            chain([1, 1, 1, 1], [10, 6, 5, 1], capacity=100))
        assert outcome.profit == 15
        assert outcome.details["price"] == 5

    def test_dominates_gv_and_two_price(self):
        """OPT_C is an upper bound for uniform-price mechanisms."""
        from repro.core.two_price import TwoPrice

        instance = chain([2] * 8, [40, 35, 30, 25, 20, 15, 10, 5],
                         capacity=10)
        opt = optimal_constant_pricing(instance).profit
        gv = make_mechanism("GV").run(instance).profit
        assert opt >= gv - 1e-9
        for seed in range(10):
            tp = TwoPrice(seed=seed).run(instance).profit
            assert opt >= tp - 1e-9

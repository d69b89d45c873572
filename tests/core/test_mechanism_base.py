"""Mechanism base-class behavior: sealing, registry extension."""

import pytest

from repro.core import mechanism as mechanism_module
from repro.core.mechanism import Mechanism, make_mechanism, register_mechanism
from repro.core.model import AuctionInstance, Operator, Query


class PeekingMechanism(Mechanism):
    """Admits exactly the queries whose *valuation* exceeds 10 — if it
    could see valuations, which sealing prevents."""

    name = "peeker"

    def _select(self, instance):
        payments = {
            q.query_id: 0.0
            for q in instance.queries
            if q.true_value > 10.0 and instance.fits([q.query_id])
        }
        return payments, {}


class TestSealing:
    def test_mechanism_sees_bids_not_valuations(self):
        operators = {"a": Operator("a", 1.0)}
        queries = (
            # valuation 99, bid 1: a peeker would admit it if it could
            # read the truth; sealed, it sees true_value == bid == 1.
            Query("hidden", ("a",), bid=1.0, valuation=99.0),
        )
        instance = AuctionInstance(operators, queries, capacity=10.0)
        outcome = PeekingMechanism().run(instance)
        assert not outcome.is_winner("hidden")

    def test_outcome_still_uses_real_valuations(self):
        """Sealing is internal: payoffs on the outcome use the truth."""
        operators = {"a": Operator("a", 1.0)}
        queries = (Query("q", ("a",), bid=20.0, valuation=30.0),)
        instance = AuctionInstance(operators, queries, capacity=10.0)
        outcome = PeekingMechanism().run(instance)
        assert outcome.is_winner("q")
        assert outcome.payoff("q") == pytest.approx(30.0)


class TestRegistryExtension:
    @pytest.fixture(autouse=True)
    def _restore_registry(self, monkeypatch):
        """The mechanisms registered here leave with the test: a later
        test that runs every registered mechanism must not meet them."""
        registry = mechanism_module._REGISTRY
        monkeypatch.setattr(registry, "_factories", dict(registry._factories))

    def test_register_custom_mechanism(self):
        register_mechanism("peeker-test", PeekingMechanism)
        mechanism = make_mechanism("PEEKER-TEST")
        assert isinstance(mechanism, PeekingMechanism)

    def test_factory_kwargs_forwarded(self):
        class Configurable(Mechanism):
            name = "configurable"

            def __init__(self, threshold=5.0):
                self.threshold = threshold

            def _select(self, instance):
                return {}, {}

        register_mechanism("configurable-test", Configurable)
        mechanism = make_mechanism("configurable-test", threshold=9.0)
        assert mechanism.threshold == 9.0


class TestCapacityEnforcement:
    def test_over_admitting_mechanism_rejected(self):
        class Greedy(Mechanism):
            name = "overfull"

            def _select(self, instance):
                return {q.query_id: 0.0 for q in instance.queries}, {}

        operators = {"a": Operator("a", 5.0), "b": Operator("b", 5.0)}
        queries = (Query("q1", ("a",), bid=1.0),
                   Query("q2", ("b",), bid=1.0))
        instance = AuctionInstance(operators, queries, capacity=6.0)
        from repro.utils.validation import ValidationError
        with pytest.raises(ValidationError):
            Greedy().run(instance)

"""A period's auction input costs what changed: counted, not timed.

Time is noise on a shared box; constructions are not.  A candidate's
auction row and its operators' prices are made once, when it arrives;
``prepare_period`` then builds no ``Query``, no ``Operator`` and no
``QueryPlanCatalog`` however many winners it carries over — and what
``submit`` entered, rejection and withdrawal take out again, so a shard
that rejects for a living does not grow.
"""

from collections import Counter

import pytest

from repro.core.model import Operator, Query
from repro.dsms.plan import QueryPlanCatalog
from repro.dsms.streams import SyntheticStream
from repro.service import ServiceBuilder
from tests.strategies import PlanRecipe, plan_from_recipe, select_query

WINNERS, ARRIVALS = 12, 40


@pytest.fixture
def built(monkeypatch):
    """Counts every way the three classes come into being."""
    counts = Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def construct(*args, **kwargs):
            counts[cls.__name__] += 1
            return original(*args, **kwargs)

        # ``original`` of a classmethod is already bound to the class.
        bound = isinstance(cls.__dict__[name], classmethod)
        monkeypatch.setattr(
            cls, name, staticmethod(construct) if bound else construct)

    for cls in (Query, Operator):
        counting(cls, "__post_init__")
        counting(cls, "_trusted")
    counting(QueryPlanCatalog, "__init__")
    return counts


def build_service(capacity=2.0 * WINNERS):
    """Room for exactly WINNERS unit-cost selects over the rate-2 stream."""
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=2.0, seed=3))
            .with_capacity(capacity)
            .with_mechanism("CAT")
            .with_ticks_per_period(2)
            .build())


def carrying_winners():
    """A service with WINNERS running queries and an empty queue."""
    service = build_service()
    for n in range(WINNERS):
        service.submit(select_query(f"w{n}", "w", bid=90.0, cost=1.0))
    assert len(service.run_period().admitted) == WINNERS
    return service


class TestPricedAtArrivalAssembledAtTheTick:
    def test_prepare_constructs_nothing(self, built):
        service = carrying_winners()
        for n in range(ARRIVALS):
            service.submit(select_query(f"a{n}", "a", bid=1.0, cost=1.0))
        built.clear()
        preparation = service.prepare_period()
        assert built == Counter()
        assert len(preparation.instance.queries) == WINNERS + ARRIVALS

    def test_submit_constructs_one_row_and_the_new_operators(self, built):
        service = carrying_winners()
        built.clear()
        for n in range(ARRIVALS):
            service.submit(select_query(f"a{n}", "a", bid=1.0, cost=1.0))
        assert built == Counter(Query=ARRIVALS, Operator=ARRIVALS)

    def test_a_shared_operator_is_priced_once(self, built):
        service = carrying_winners()
        built.clear()
        for n in range(ARRIVALS):
            service.submit(plan_from_recipe(PlanRecipe(
                query_id=f"a{n}", bid=1.0, valuation=None, owner="a",
                shared=(("parse", 0.5), ("clean", 0.5)),
                private_cost=1.0)))
        # Two library operators, once; one private select per arrival.
        assert built == Counter(Query=ARRIVALS, Operator=2 + ARRIVALS)
        built.clear()
        service.prepare_period()
        assert built == Counter()

    def test_the_table_is_rebuilt_lazily_after_restore(self, built):
        service = carrying_winners()
        snapshot = service.snapshot()
        built.clear()
        restored = type(service).restore(snapshot)
        assert built == Counter()
        restored.prepare_period()
        assert built == Counter(Query=WINNERS, Operator=WINNERS)


class TestTheTableHoldsOnlyLiveOperators:
    def sizes(self, service):
        coordinator = service.coordinator
        return (len(coordinator._rows), len(coordinator._live),
                len(coordinator._readers))

    def test_fifty_periods_of_arrive_then_reject(self):
        service = carrying_winners()
        for period in range(50):
            for n in range(ARRIVALS):
                service.submit(select_query(
                    f"p{period}a{n}", "a", bid=1.0, cost=1.0))
            report = service.run_period()
            assert len(report.rejected) == ARRIVALS
            # One row and one private select per winner; all read "s".
            assert self.sizes(service) == (WINNERS, WINNERS, 1)

    def test_withdrawals_leave_nothing_behind(self):
        service = build_service()
        for n in range(ARRIVALS):
            service.submit(plan_from_recipe(PlanRecipe(
                query_id=f"a{n}", bid=1.0, valuation=None, owner="a",
                shared=(("parse", 0.5 if n % 2 else 1.0),),
                private_cost=1.0)))
        assert self.sizes(service) == (ARRIVALS, 1 + ARRIVALS, 2)
        for n in range(ARRIVALS):
            service.withdraw(f"a{n}")
        assert self.sizes(service) == (0, 0, 0)

"""The maintained auction input ≡ the from-scratch construction.

The coordinator prices a candidate when it arrives and assembles the
period's instance by copying pointers; the oracle it must always equal
is :func:`repro.dsms.load.auction_instance_from_catalog`, which rebuilds
catalog, topological order, loads, queries and operators from nothing.
Two services take the same random history — one real, one whose
coordinator builds from scratch — and have to agree on every instance
(``==``, operator order, sharing index) and on every report, to the
pickled byte.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.rebalance import Rebalancer
from repro.dsms.load import auction_instance_from_catalog
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.dsms.streams import SyntheticStream
from repro.service import AdmissionService, AuctionCoordinator, ServiceBuilder
from repro.utils.validation import ValidationError
from tests.strategies import (
    PlanRecipe,
    accept_all,
    plan_from_recipe,
    plan_recipes,
)

RATES = {"s": 2.0}


def from_scratch(candidates, stream_rates, capacity):
    if not candidates:
        raise ValidationError("no queries to auction")
    return auction_instance_from_catalog(
        QueryPlanCatalog(candidates.values()), stream_rates, capacity)


class FromScratch(AuctionCoordinator):
    """The oracle: same queue, the period's input rebuilt every tick."""

    def build(self, candidates, stream_rates):
        return from_scratch(candidates, stream_rates, self.capacity)


def build_service(capacity, oracle=False):
    service = (ServiceBuilder()
               .with_sources(SyntheticStream("s", rate=2.0, seed=5))
               .with_capacity(capacity)
               .with_mechanism("CAT")
               .with_ticks_per_period(2)
               .build())
    if oracle:
        service.coordinator = FromScratch(capacity)
    return service


def restored(service, oracle):
    copy = AdmissionService.restore(service.snapshot())
    if oracle:
        queue = copy.coordinator.pending
        copy.coordinator = FromScratch(copy.capacity)
        copy.coordinator.restore_pending(queue)
    return copy


def first_appearance(candidates):
    """Operator ids in the order the candidates first name them."""
    order = {}
    for query in candidates.values():
        order.update(dict.fromkeys(query.operator_ids))
    return list(order)


def assert_matches_oracle(service):
    candidates = service.coordinator.collect(service.engine.catalog.queries)
    expected = from_scratch(
        candidates, service._stream_rates(), service.capacity)
    built = service.build_auction()
    assert built == expected
    assert list(built.operators) == list(expected.operators)
    assert list(built.operators) == first_appearance(candidates)
    assert built._sharing == expected._sharing
    assert list(built._sharing) == list(expected._sharing)
    assert [q.query_id for q in built.queries] == list(candidates)
    assert pickle.dumps(built) == pickle.dumps(expected)


@st.composite
def histories(draw):
    """Capacity plus a sequence of steps over fresh query ids."""
    capacity = draw(st.sampled_from([1.5, 4.0, 9.0, 30.0]))
    steps = []
    for index in range(draw(st.integers(1, 18))):
        kind = draw(st.sampled_from(
            ["submit"] * 5 + ["settle"] * 3
            + ["withdraw", "migrate", "restore", "rate"]))
        if kind in ("submit", "migrate"):
            steps.append((kind, draw(plan_recipes(f"q{index}"))))
        elif kind == "withdraw":
            steps.append((kind, draw(st.integers(0, 50))))
        elif kind == "rate":
            steps.append((kind, draw(st.sampled_from([0.0, 1.0, 3.5]))))
        else:
            steps.append((kind, None))
    steps.append(("settle", None))
    return capacity, steps


def apply(step, argument, service):
    """One step on one service; returns the report of a settle."""
    if step == "submit":
        service.submit(plan_from_recipe(argument))
    elif step == "migrate":
        # What Rebalancer.rebalance does to its target shard: the plan
        # goes straight into the engine, past the coordinator.
        Rebalancer._migrate(service, plan_from_recipe(argument))
    elif step == "withdraw":
        pending = sorted(service.pending_ids)
        if pending:
            service.withdraw(pending[argument % len(pending)])
    elif step == "rate":
        service.sources[0]._rate = argument
    elif step == "settle":
        if not service.pending_ids and not service.engine.admitted_ids:
            with pytest.raises(ValidationError):
                service.run_period()
            return None
        return service.run_period()
    return None


class TestMaintainedEqualsRebuilt:
    @settings(max_examples=120, deadline=None)
    @given(histories())
    def test_random_histories(self, history):
        capacity, steps = history
        real = build_service(capacity)
        oracle = build_service(capacity, oracle=True)
        for step, argument in steps:
            if step == "restore":
                real, oracle = restored(real, False), restored(oracle, True)
                continue
            if step == "settle" and (real.pending_ids
                                     or real.engine.admitted_ids):
                assert_matches_oracle(real)
            ours = apply(step, argument, real)
            theirs = apply(step, argument, oracle)
            assert pickle.dumps(ours) == pickle.dumps(theirs)
        assert real.coordinator._rows.keys() == real.engine.admitted_ids

    def test_representative_changes_between_periods(self):
        """Two holders of ``lib_parse`` disagree on its selectivity;
        whoever comes first in pending-then-running order sets the load
        of everything downstream — and that changes every period."""

        def recipe(qid, bid, selectivity):
            return PlanRecipe(
                query_id=qid, bid=bid, valuation=None, owner=qid,
                shared=(("parse", selectivity), ("clean", 1.0)),
                private_cost=0.25)

        real = build_service(30.0)
        oracle = build_service(30.0, oracle=True)
        loads = []
        history = [
            [recipe("a", 50.0, 0.25), recipe("b", 40.0, 1.0)],  # a first
            [recipe("c", 60.0, 0.5)],        # the newcomer, then a, b
            [],                              # a, b, c running: a again
        ]
        for arrivals in history:
            for service in (real, oracle):
                for arrival in arrivals:
                    service.submit(plan_from_recipe(arrival))
            assert_matches_oracle(real)
            loads.append(real.build_auction().operators["lib_clean"].load)
            assert (pickle.dumps(real.run_period())
                    == pickle.dumps(oracle.run_period()))
        assert loads == [2.0 * 0.25 * 0.25, 2.0 * 0.5 * 0.25,
                         2.0 * 0.25 * 0.25]
        # The loser of the seat leaves: b's estimate now prices it.
        real.engine.remove("a")
        real.engine.remove("c")
        assert_matches_oracle(real)
        assert (real.build_auction().operators["lib_clean"].load
                == 2.0 * 1.0 * 0.25)


def select(op_id, source, cost=1.0, selectivity=0.5):
    return SelectOperator(op_id, source, accept_all, cost_per_tuple=cost,
                          selectivity_estimate=selectivity)


def plan(qid, *operators, bid=1.0):
    return ContinuousQuery(qid, operators, sink_id=operators[-1].op_id,
                           bid=bid)


class TestTableBookkeeping:
    """Plans the engine would refuse, straight at the coordinator: the
    price memo has to notice an input chain changing under it."""

    def check(self, coordinator, running=()):
        candidates = coordinator.collect({q.query_id: q for q in running})
        built = coordinator.build(candidates, RATES)
        assert built == from_scratch(candidates, RATES, coordinator.capacity)
        return built

    def test_a_bare_name_becomes_a_live_operator(self):
        coordinator = AuctionCoordinator(10.0)
        coordinator.submit(plan("reader", select("tail", "head")))
        assert self.check(coordinator).operators["tail"].load == 0.0
        coordinator.submit(plan("feeder", select("head", "s")))
        assert self.check(coordinator).operators["tail"].load == 1.0

    def test_a_live_operator_becomes_a_bare_name(self):
        coordinator = AuctionCoordinator(10.0)
        coordinator.submit(plan("feeder", select("head", "s")))
        coordinator.submit(plan("reader", select("tail", "head")))
        assert self.check(coordinator).operators["tail"].load == 1.0
        coordinator.withdraw("feeder")
        assert self.check(coordinator).operators["tail"].load == 0.0

    def test_an_operator_shadows_the_stream_of_its_name(self):
        coordinator = AuctionCoordinator(10.0)
        coordinator.submit(plan("shadow", select("s2", "s")))
        coordinator.submit(plan("reader", select("tail", "s2", cost=3.0)))
        rates = {"s": 2.0, "s2": 100.0}
        candidates = coordinator.collect({})
        assert (coordinator.build(candidates, rates)
                == from_scratch(candidates, rates, 10.0))

    def test_a_cycle_is_the_submitters_error(self):
        coordinator = AuctionCoordinator(10.0)
        coordinator.submit(plan("ab", select("a", "b")))
        with pytest.raises(ValidationError, match="cycle"):
            coordinator.submit(plan("ba", select("b", "a")))
        assert set(coordinator.pending_ids) == {"ab"}
        assert self.check(coordinator).operators["a"].load == 0.0

    def test_withdraw_then_resubmit_under_the_same_id(self):
        coordinator = AuctionCoordinator(10.0)
        coordinator.submit(plan("q", select("x", "s", cost=1.0)))
        coordinator.withdraw("q")
        coordinator.submit(plan("q", select("x", "s", cost=4.0)))
        assert self.check(coordinator).operators["x"].load == 8.0

    def test_a_plan_replaced_behind_the_coordinators_back(self):
        coordinator = AuctionCoordinator(10.0)
        first = plan("q", select("x", "s", cost=1.0), bid=3.0)
        assert self.check(coordinator, running=[first]).query("q").bid == 3.0
        second = plan("q", select("x", "s", cost=2.0), bid=5.0)
        built = self.check(coordinator, running=[second])
        assert built.query("q").bid == 5.0
        assert built.operators["x"].load == 4.0
        assert list(coordinator._rows) == ["q"]

    def test_a_reused_id_evicts_its_stale_row(self):
        """The engine dropped ``q`` and took ``r`` behind our back — the
        candidate count did not move — and ``q`` is submitted anew."""
        coordinator = AuctionCoordinator(10.0)
        self.check(coordinator, running=[plan("q", select("x", "s"))])
        moved_in = plan("r", select("y", "s"))
        coordinator.submit(plan("q", select("z", "s")),
                           QueryPlanCatalog([moved_in]))
        self.check(coordinator, running=[moved_in])
        assert ({op_id: entry[1] for op_id, entry in coordinator._live.items()}
                == {"y": 1, "z": 1})


class TestAClashBetweenTwoOtherCandidates:
    """A plan migrated in past the coordinator redefines an operator of
    a queued one: the tick's error, as ever, and nobody else's."""

    def test_is_adopted_once_and_leaks_nothing(self, monkeypatch):
        service = build_service(30.0)
        service.submit(plan("queued", select("shared", "s", cost=1.0)))
        Rebalancer._migrate(
            service, plan("moved", select("shared", "s", cost=2.0), bid=5.0))
        adoptions = []
        sync = AuctionCoordinator._sync
        monkeypatch.setattr(
            AuctionCoordinator, "_sync",
            lambda self, candidates: (adoptions.append(len(candidates)),
                                      sync(self, candidates))[1])
        for n in range(4):
            service.submit(plan(f"n{n}", select(f"own{n}", "s"), bid=2.0))
        assert adoptions == [2]  # by the first submit, not by every one
        with pytest.raises(ValidationError, match="conflicting costs"):
            service.run_period()
        assert len(service.pending_ids) == 5
        service.withdraw("queued")
        report = service.run_period()
        assert sorted(report.admitted) == ["moved", "n0", "n1", "n2", "n3"]
        coordinator = service.coordinator
        assert coordinator._rows.keys() == service.engine.admitted_ids
        assert ({op_id: entry[1] for op_id, entry in coordinator._live.items()}
                == {"shared": 1, "own0": 1, "own1": 1, "own2": 1, "own3": 1})



class TestBadSubmitDoesNotWedgeTheAuction:
    """Each of these used to be accepted at submit and then fail every
    later ``prepare_period`` — one client's mistake, everyone's period."""

    def service(self):
        service = build_service(30.0)
        service.submit(plan("good", select("shared", "s", cost=1.0),
                            bid=9.0))
        return service

    def assert_settles(self, service, *admitted):
        report = service.run_period()
        assert report.admitted == admitted
        assert not service.pending_ids

    @pytest.mark.parametrize("redefined", [
        select("shared", "s", cost=2.0),
        select("shared", "other"),
    ], ids=["cost", "inputs"])
    def test_conflicting_operator_is_refused_at_submit(self, redefined):
        service = self.service()
        with pytest.raises(ValidationError, match="'shared' shared with"):
            service.submit(plan("bad", redefined))
        assert set(service.pending_ids) == {"good"}
        service.submit(plan("also", select("mine", "s"), bid=2.0))
        self.assert_settles(service, "also", "good")

    def test_conflict_with_a_running_query_is_refused_at_submit(self):
        service = self.service()
        self.assert_settles(service, "good")
        with pytest.raises(ValidationError, match="conflicting costs"):
            service.submit(plan("bad", select("shared", "s", cost=2.0)))
        self.assert_settles(service, "good")

    def test_conflict_is_refused_after_a_restore(self):
        service = self.service()
        service.run_period()
        service.submit(plan("queued", select("other", "s"), bid=2.0))
        service = AdmissionService.restore(service.snapshot())
        for op_id in ("shared", "other"):
            with pytest.raises(ValidationError, match="conflicting costs"):
                service.submit(plan("bad", select(op_id, "s", cost=7.0)))
        self.assert_settles(service, "good", "queued")

    def test_negative_valuation_is_refused_at_submit(self):
        service = self.service()
        bad = ContinuousQuery("v", (select("sel_v", "s"),), sink_id="sel_v",
                              bid=1.0, valuation=-1.0)
        with pytest.raises(
                ValidationError,
                match="valuation of query 'v' must be >= 0, got -1.0"):
            service.submit(bad)
        assert set(service.pending_ids) == {"good"}
        self.assert_settles(service, "good")

    def test_a_refused_submit_leaves_no_operator_behind(self):
        service = self.service()
        with pytest.raises(ValidationError):
            service.submit(plan("bad", select("fresh", "s"),
                                select("shared", "s", cost=2.0)))
        assert set(service.coordinator._live) == {"shared"}
        service.submit(plan("ok", select("fresh", "s", cost=5.0), bid=1.0))
        assert service.build_auction().operators["fresh"].load == 10.0

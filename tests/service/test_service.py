"""AdmissionService facade: the center cycle and its builder."""

import pytest

from repro.core import CAT, AuctionInstance, AuctionOutcome, Query
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.service import AdmissionService, ServiceBuilder
from repro.utils.validation import ValidationError


def make_query(qid, bid, cost, owner=None, shared_id=None):
    op_id = shared_id or f"sel_{qid}"
    sel = SelectOperator(op_id, "s", lambda t: True,
                         cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (sel,), sink_id=op_id, bid=bid,
                           owner=owner)


def build_service(**overrides):
    builder = (ServiceBuilder()
               .with_sources(SyntheticStream("s", rate=5, poisson=False,
                                             seed=0))
               .with_capacity(overrides.get("capacity", 30.0))
               .with_mechanism(overrides.get("mechanism", CAT()))
               .with_ticks_per_period(overrides.get("ticks", 10)))
    return builder.build()


class TestFacadeParity:
    """The facade reproduces the paper's DSMS-center cycle exactly."""

    def test_admits_within_capacity(self):
        service = build_service()
        for i, bid in enumerate([50, 40, 30, 20]):
            service.submit(make_query(f"q{i}", bid, 2.0))
        report = service.run_period()
        assert report.admitted == ("q0", "q1", "q2")
        assert report.rejected == ("q3",)
        assert report.revenue > 0
        assert report.engine_utilization == pytest.approx(1.0)

    def test_running_queries_reauctioned(self):
        service = build_service()
        service.submit(make_query("q1", 30.0, 2.0))
        service.run_period()
        for i, bid in enumerate([90, 80, 70]):
            service.submit(make_query(f"new{i}", bid, 2.0))
        report = service.run_period()
        assert "q1" not in report.admitted
        assert service.engine.admitted_ids == {"new0", "new1", "new2"}

    def test_builder_matches_direct_construction(self):
        service = build_service()
        direct = AdmissionService(
            sources=[SyntheticStream("s", rate=5, poisson=False,
                                     seed=0)],
            capacity=30.0,
            mechanism=CAT(),
            ticks_per_period=10,
        )
        for target in (service, direct):
            for i, bid in enumerate([50, 40, 30, 20]):
                target.submit(make_query(f"q{i}", bid, 2.0))
        ours, theirs = service.run_period(), direct.run_period()
        assert ours.admitted == theirs.admitted
        assert ours.revenue == theirs.revenue
        assert ours.engine_ticks == theirs.engine_ticks
        assert ours.engine_utilization == theirs.engine_utilization

    def test_empty_auction_rejected(self):
        with pytest.raises(ValidationError):
            build_service().run_period()

    def test_withdraw_unknown_id_names_pending(self):
        service = build_service()
        service.submit(make_query("q1", 10.0, 1.0))
        with pytest.raises(ValidationError, match="q1"):
            service.withdraw("ghost")
        assert service.pending_ids == {"q1"}

    def test_withdraw_unknown_id_names_only_the_first_few(self):
        service = build_service()
        for n in range(40):
            service.submit(make_query(f"q{n:02d}", 10.0, 1.0))
        with pytest.raises(ValidationError) as excinfo:
            service.withdraw("ghost")
        message = str(excinfo.value)
        assert "q00, q01, q02, q03, q04, ... (40 pending)" in message
        assert "q05" not in message

    def test_run_periods_batches(self):
        service = build_service()
        reports = service.run_periods([
            [make_query("a", 10.0, 1.0)],
            [make_query("b", 20.0, 1.0)],
        ])
        assert [r.period for r in reports] == [1, 2]
        assert service.period == 2


class TestPeriodPhases:
    """run_period decomposes into prepare/settle/execute — the seams
    the repro.cluster federation interleaves across shards."""

    def test_phases_match_run_period(self):
        whole, phased = build_service(), build_service()
        for service in (whole, phased):
            for i, bid in enumerate([50, 40, 30, 20]):
                service.submit(make_query(f"q{i}", bid, 2.0))
        expected = whole.run_period()

        preparation = phased.prepare_period()
        assert preparation.period == 1
        assert set(preparation.candidates) == {"q0", "q1", "q2", "q3"}
        outcome = phased.mechanism.run(preparation.instance)
        settlement = phased.settle_period(preparation, outcome)
        assert settlement.admitted == expected.admitted
        assert settlement.rejected == expected.rejected
        report = phased.execute_period(settlement)
        assert report.revenue == expected.revenue
        assert report.engine_ticks == expected.engine_ticks
        assert report.engine_utilization == expected.engine_utilization

    def test_settle_rolls_back_on_planless_winner(self):
        from repro.core import AuctionInstance, Operator, Query

        service = build_service()
        service.submit(make_query("q0", 10.0, 2.0))
        preparation = service.prepare_period()
        ghost = AuctionInstance(
            {"op": Operator("op", 1.0)},
            (Query("ghost", ("op",), bid=5.0),), capacity=30.0)
        outcome = service.mechanism.run(ghost)
        with pytest.raises(ValidationError, match="ghost"):
            service.settle_period(preparation, outcome)
        assert service.period == 0
        assert service.total_revenue() == 0.0

    def test_settle_refuses_a_forged_planless_winner(self):
        """An outcome admitting an id beside the real candidates, over
        an operator they share, is refused before billing: nothing is
        invoiced or transitioned, and the period can be run again."""
        service = build_service()
        service.submit(make_query("q0", 10.0, 2.0))
        preparation = service.prepare_period()
        instance = preparation.instance
        forged = AuctionInstance(
            instance.operators,
            instance.queries + (Query("ghost", ("sel_q0",), bid=1000.0),),
            instance.capacity)
        outcome = AuctionOutcome(forged, {"q0": 0.0, "ghost": 10.0})
        with pytest.raises(ValidationError, match="ghost"):
            service.settle_period(preparation, outcome)
        assert service.total_revenue() == 0.0  # nothing was billed
        assert service.period == 0
        assert service.pending_ids == {"q0"}
        assert service.engine.admitted_ids == set()
        assert service.run_period().admitted == ("q0",)

    def test_idle_period_advances_engine_without_auction(self):
        service = build_service()
        report = service.run_idle_period()
        assert report.period == 1
        assert report.revenue == 0.0
        assert report.admitted == () and report.rejected == ()
        assert report.outcome.mechanism == "idle"
        assert report.engine_ticks == 10
        assert service.period == 1
        assert service.reports == [report]

    def test_idle_report_serializes(self):
        from repro.io import report_from_dict, report_to_dict

        service = build_service()
        document = report_to_dict(service.run_idle_period())
        again = report_from_dict(document)
        assert again.outcome.mechanism == "idle"
        assert again.revenue == 0.0


class TestCoordinatorCapacityValidation:
    """Regression: capacity must be validated on every mutation, not
    just in the constructor."""

    def test_constructor_still_validates(self):
        from repro.service import AuctionCoordinator

        with pytest.raises(ValidationError, match="positive"):
            AuctionCoordinator(0.0)
        with pytest.raises(ValidationError, match="positive"):
            AuctionCoordinator(-3.0)

    def test_mutation_validates(self):
        from repro.service import AuctionCoordinator

        coordinator = AuctionCoordinator(10.0)
        for bogus in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError, match="positive"):
                coordinator.capacity = bogus
        assert coordinator.capacity == 10.0  # unchanged after rejects

    def test_valid_mutation_flows_into_built_auctions(self):
        service = build_service()
        service.submit(make_query("q0", 10.0, 1.0))
        service.coordinator.capacity = 17.0
        assert service.build_auction().capacity == 17.0


class TestBuilderAndConfig:
    def test_builder_requires_sources_capacity_mechanism(self):
        with pytest.raises(ValidationError, match="sources"):
            ServiceBuilder().with_capacity(1.0).with_mechanism("CAT").build()
        with pytest.raises(ValidationError, match="capacity"):
            (ServiceBuilder()
             .with_sources(SyntheticStream("s", rate=1))
             .with_mechanism("CAT").build())
        with pytest.raises(ValidationError, match="mechanism"):
            (ServiceBuilder()
             .with_sources(SyntheticStream("s", rate=1))
             .with_capacity(1.0).build())

    def test_mechanism_spec_string(self):
        service = (ServiceBuilder()
                   .with_sources(SyntheticStream("s", rate=1))
                   .with_capacity(5.0)
                   .with_mechanism("two-price:seed=7")
                   .build())
        assert service.mechanism.name == "Two-price"

    def test_build_validates_what_the_config_front_door_used_to(self):
        import repro.service

        def build(capacity, mechanism):
            return (ServiceBuilder()
                    .with_sources(SyntheticStream("s", rate=1))
                    .with_capacity(capacity).with_mechanism(mechanism)
                    .build())

        with pytest.raises(KeyError):
            build(5.0, "no-such-mechanism")
        with pytest.raises(ValidationError, match="accepted parameters"):
            build(5.0, "CAT:volume=11")
        with pytest.raises(ValidationError):
            build(-1.0, "CAT")
        assert not hasattr(repro.service, "ServiceConfig")
        assert not hasattr(repro.service, "service_from_config")
        assert not hasattr(ServiceBuilder(), "with_config")
        with pytest.raises(TypeError):
            ServiceBuilder(object())

    def test_a_period_below_one_tick_is_refused(self):
        def build(ticks):
            return (ServiceBuilder()
                    .with_sources(SyntheticStream("s", rate=5))
                    .with_capacity(30.0)
                    .with_mechanism("CAT")
                    .with_ticks_per_period(ticks)
                    .build())

        for ticks in (0, -2):
            with pytest.raises(ValidationError,
                               match=f"ticks_per_period must be >= 1, "
                                     f"got {ticks}"):
                build(ticks)
        assert build(1).ticks_per_period == 1

    def test_builds_are_independent(self):
        builder = (ServiceBuilder()
                   .with_sources(SyntheticStream("s", rate=5,
                                                 poisson=False, seed=0))
                   .with_capacity(30.0)
                   .with_mechanism("CAT")
                   .with_ticks_per_period(5))
        first, second = builder.build(), builder.build()
        first.submit(make_query("q1", 10.0, 1.0))
        assert second.pending_ids == set()

    def test_builds_do_not_share_source_state(self):
        """Running one built service must not advance another's source
        RNGs — sources are deep-copied per build."""
        builder = (ServiceBuilder()
                   .with_sources(SyntheticStream("s", rate=5, seed=3))
                   .with_capacity(30.0)
                   .with_mechanism("CAT")
                   .with_ticks_per_period(10))
        first, second = builder.build(), builder.build()
        first.submit(make_query("q1", 10.0, 1.0))
        first.run_period()
        second.submit(make_query("q1", 10.0, 1.0))
        report = second.run_period()
        fresh = builder.build()
        fresh.submit(make_query("q1", 10.0, 1.0))
        assert fresh.run_period().engine_utilization == \
            report.engine_utilization

    def test_backend_option_is_gone(self):
        assert not hasattr(ServiceBuilder(), "with_backend")

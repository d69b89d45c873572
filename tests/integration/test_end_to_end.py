"""Cross-package integration tests.

These exercise the full pipeline the library exists for: stream plans
→ load estimation → admission auction → engine execution → billing,
and the workload generator → mechanisms → metrics path the experiments
use.
"""

import pytest

from repro.core import CAT, make_mechanism
from repro.dsms import (
    ContinuousQuery,
    SelectOperator,
    auction_instance_from_catalog,
    estimate_operator_loads,
)
from repro.dsms.plan import QueryPlanCatalog
from repro.dsms.streams import SyntheticStream
from repro.service import AdmissionService
from repro.workload import WorkloadConfig, WorkloadGenerator


class TestPlansToAuctionToEngine:
    def test_auction_on_estimated_loads_matches_engine_reality(self):
        """Admission decisions made on analytic load estimates keep the
        engine within capacity when the estimates are exact."""
        center = AdmissionService(
            sources=[SyntheticStream("s", rate=4, poisson=False,
                                     seed=0)],
            capacity=20.0,
            mechanism=CAT(),
            ticks_per_period=15,
        )
        for i, bid in enumerate([60, 50, 40, 30, 20]):
            sel = SelectOperator(
                f"sel{i}", "s", lambda t: True,
                cost_per_tuple=1.5, selectivity_estimate=1.0)
            center.submit(ContinuousQuery(
                f"q{i}", (sel,), sink_id=f"sel{i}", bid=float(bid)))
        report = center.run_period()
        # Each query loads 4 × 1.5 = 6; capacity 20 admits 3.
        assert len(report.admitted) == 3
        assert report.engine_utilization == pytest.approx(18 / 20)
        assert center.engine.report.overload_ticks == 0

    def test_estimates_agree_with_measured_loads(self):
        """The paper's premise that loads 'can be reasonably
        approximated': analytic estimates equal measured work for
        deterministic streams."""
        source = SyntheticStream("s", rate=5, poisson=False, seed=0)
        sel = SelectOperator("a", "s", lambda t: True,
                             cost_per_tuple=2.0,
                             selectivity_estimate=1.0)
        catalog = QueryPlanCatalog(
            [ContinuousQuery("q", (sel,), sink_id="a", bid=1.0)])
        estimated = estimate_operator_loads(catalog, {"s": 5.0})

        from repro.dsms.engine import StreamEngine
        engine = StreamEngine([source])
        engine.admit(ContinuousQuery(
            "q", (SelectOperator("a", "s", lambda t: True,
                                 cost_per_tuple=2.0),),
            sink_id="a"))
        engine.run(10)
        assert engine.measured_loads()["a"] == pytest.approx(
            estimated["a"])

    def test_auction_instance_round_trip(self):
        """Catalog → AuctionInstance keeps sharing structure intact."""
        shared = SelectOperator("hot", "s", lambda t: True,
                                cost_per_tuple=1.0)
        shared2 = SelectOperator("hot", "s", lambda t: True,
                                 cost_per_tuple=1.0)
        catalog = QueryPlanCatalog([
            ContinuousQuery("q1", (shared,), sink_id="hot", bid=9.0),
            ContinuousQuery("q2", (shared2,), sink_id="hot", bid=7.0),
        ])
        instance = auction_instance_from_catalog(
            catalog, {"s": 3.0}, capacity=10.0)
        assert instance.sharing_degree("hot") == 2
        assert instance.union_load(["q1", "q2"]) == pytest.approx(3.0)


class TestWorkloadToMechanisms:
    @pytest.fixture(scope="class")
    def instance(self):
        config = WorkloadConfig(num_queries=120, max_sharing=10,
                                capacity=700.0)
        return WorkloadGenerator(config=config, seed=77).instance(
            max_sharing=8)

    def test_all_mechanisms_complete_and_respect_capacity(self, instance):
        for name in ("CAR", "CAF", "CAF+", "CAT", "CAT+", "GV",
                     "OPT_C"):
            outcome = make_mechanism(name).run(instance)
            assert outcome.used_capacity <= instance.capacity + 1e-6
        outcome = make_mechanism("Two-price", seed=1).run(instance)
        assert outcome.used_capacity <= instance.capacity + 1e-6

    def test_profit_sandwich(self, instance):
        """GV ≤ OPT_C: GV is a valid uniform pricing; OPT_C optimizes
        over all of them."""
        gv = make_mechanism("GV").run(instance).profit
        opt = make_mechanism("OPT_C").run(instance).profit
        assert gv <= opt + 1e-6

    def test_stop_at_first_profit_within_winner_bids(self, instance):
        outcome = make_mechanism("CAT").run(instance)
        total_bids = sum(instance.query(q).bid
                         for q in outcome.winner_ids)
        assert outcome.profit <= total_bids + 1e-6


class TestMultiPeriodBusiness:
    def test_three_period_lifecycle(self):
        """Submissions across periods, evictions, cumulative billing."""
        center = AdmissionService(
            sources=[SyntheticStream("s", rate=3, poisson=False,
                                     seed=1)],
            capacity=9.0,  # room for three 3-unit queries
            mechanism=CAT(),
            ticks_per_period=8,
        )

        def query(qid, bid):
            sel = SelectOperator(f"op_{qid}", "s", lambda t: True,
                                 cost_per_tuple=1.0,
                                 selectivity_estimate=1.0)
            return ContinuousQuery(qid, (sel,), sink_id=f"op_{qid}",
                                   bid=bid, owner=qid)

        center.submit(query("early_low", 10.0))
        center.submit(query("early_high", 50.0))
        first = center.run_period()
        assert set(first.admitted) == {"early_low", "early_high"}

        center.submit(query("rich1", 90.0))
        center.submit(query("rich2", 80.0))
        second = center.run_period()
        assert "early_low" not in second.admitted
        assert center.engine.admitted_ids == set(second.admitted)

        third = center.run_period()
        assert third.admitted == second.admitted
        assert center.total_revenue() == pytest.approx(
            sum(r.revenue for r in center.reports))
        # The engine kept running through both transitions: 24 period
        # ticks plus one held-tuple replay tick per transition.
        assert center.engine.report.ticks == 26

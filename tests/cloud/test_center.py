"""DSMS-center integration tests: auction → engine → billing.

One :class:`repro.service.AdmissionService` is the paper's DSMS
center; these tests drive its submit → auction → engine → billing
cycle end to end.
"""

import pytest

from repro.core import CAT
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.service import AdmissionService
from repro.utils.validation import ValidationError


def make_query(qid, bid, cost, owner=None, shared_id=None):
    op_id = shared_id or f"sel_{qid}"
    sel = SelectOperator(op_id, "s", lambda t: True,
                         cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (sel,), sink_id=op_id, bid=bid,
                           owner=owner)


@pytest.fixture
def center():
    return AdmissionService(
        sources=[SyntheticStream("s", rate=5, poisson=False, seed=0)],
        capacity=30.0,
        mechanism=CAT(),
        ticks_per_period=10,
    )


class TestSubmission:
    def test_submit_and_withdraw(self, center):
        center.submit(make_query("q1", 10.0, 1.0))
        assert center.pending_ids == {"q1"}
        center.withdraw("q1")
        assert center.pending_ids == set()

    def test_withdraw_unknown_id_raises_validation_error(self, center):
        """An unknown id must fail with the pending ids, not KeyError."""
        center.submit(make_query("q1", 10.0, 1.0))
        center.submit(make_query("q2", 12.0, 1.0))
        with pytest.raises(ValidationError) as excinfo:
            center.withdraw("missing")
        message = str(excinfo.value)
        assert "missing" in message
        assert "q1" in message and "q2" in message
        assert center.pending_ids == {"q1", "q2"}

    def test_duplicate_rejected(self, center):
        center.submit(make_query("q1", 10.0, 1.0))
        with pytest.raises(ValidationError):
            center.submit(make_query("q1", 5.0, 1.0))

    def test_empty_auction_rejected(self, center):
        with pytest.raises(ValidationError):
            center.run_period()


class TestPeriodCycle:
    def test_admits_within_capacity(self, center):
        # Loads are rate 5 × cost: 5·2=10 each; capacity 30 fits 3.
        for i, bid in enumerate([50, 40, 30, 20]):
            center.submit(make_query(f"q{i}", bid, 2.0))
        report = center.run_period()
        assert report.admitted == ("q0", "q1", "q2")
        assert report.rejected == ("q3",)
        assert report.revenue > 0
        assert report.engine_utilization == pytest.approx(1.0)

    def test_engine_runs_admitted_queries(self, center):
        center.submit(make_query("q1", 10.0, 1.0))
        center.run_period()
        assert len(center.engine.results["q1"]) == 50  # 5/tick × 10

    def test_running_queries_reauctioned(self, center):
        center.submit(make_query("q1", 30.0, 2.0))
        center.run_period()
        # A flood of higher bidders evicts q1 next period.
        for i, bid in enumerate([90, 80, 70]):
            center.submit(make_query(f"new{i}", bid, 2.0))
        report = center.run_period()
        assert "q1" not in report.admitted
        assert center.engine.admitted_ids == {"new0", "new1", "new2"}

    def test_billing_accumulates(self, center):
        for i, bid in enumerate([50, 40, 30, 20]):
            center.submit(make_query(f"q{i}", bid, 2.0))
        center.run_period()
        assert center.total_revenue() == pytest.approx(
            center.reports[0].revenue)

    def test_shared_operator_priced_once(self, center):
        """Two queries sharing one operator both fit where two private
        copies would not."""
        center.submit(make_query("qa", 50.0, 5.0, shared_id="hot"))
        center.submit(make_query("qb", 40.0, 5.0, shared_id="hot"))
        report = center.run_period()
        # Shared load = 25 ≤ 30 (two private copies would need 50).
        assert set(report.admitted) == {"qa", "qb"}

    def test_measured_loads_close_to_estimates(self, center):
        center.submit(make_query("q1", 10.0, 2.0))
        center.run_period()
        assert center.measured_loads()["sel_q1"] == pytest.approx(
            10.0, rel=0.01)

"""Subscription lifecycles: the Hypothesis invariant suite.

Pins the four lifecycle guarantees of the open-system runtime:

1. capacity is reclaimed *exactly* on expiry (shared operators only
   once nobody holds them, engine runs exactly the active book);
2. no double billing across renewals (one invoice per admission,
   never two for the same query in one period);
3. per-category auctions stay bid-strategyproof (misreporting never
   beats truth within a category);
4. a replayed trace reproduces the live run byte-identically;
5. the columnar boundary settles exactly as the object boundary does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.subscriptions import SubscriptionCategory
from repro.dsms.operators import ProjectOperator, SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.service import ServiceBuilder
from repro.sim import (
    SimulationDriver,
    SubscriptionManager,
    SubscriptionOptions,
    TraceArrivals,
)
from repro.sim.arrivals import ArrivalBlock, SelectPlan, pass_all
from repro.sim.columnar import RowChunk
from repro.utils.validation import ValidationError

lifecycle_settings = settings(max_examples=30, deadline=None)


def _keep(_t):
    return True


def build_service(capacity=35.0, rate=4.0, ticks=8, mechanism="CAT"):
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=rate, seed=2))
            .with_capacity(capacity)
            .with_mechanism(mechanism)
            .with_ticks_per_period(ticks)
            .build())


def category_mixes():
    return st.sampled_from([
        (SubscriptionCategory("day", 1, 0.5),
         SubscriptionCategory("week", 3, 0.5)),
        (SubscriptionCategory("day", 1, 0.4),
         SubscriptionCategory("week", 2, 0.35),
         SubscriptionCategory("month", 4, 0.25)),
        (SubscriptionCategory("only", 2, 1.0),),
    ])


def plan(qid, cost=1.0, bid=10.0, valuation=None, owner=None,
         op_id=None):
    op = SelectOperator(op_id or f"sel_{qid}", "s", _keep,
                        cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id, bid=bid,
                           valuation=valuation, owner=owner)


# ----------------------------------------------------------------------
# 1. Capacity reclaimed exactly on expiry
# ----------------------------------------------------------------------


class TestCapacityReclamation:
    def test_shared_operator_reclaimed_only_when_last_holder_expires(self):
        service = build_service(capacity=100.0, rate=4.0)
        options = SubscriptionOptions(
            categories=(SubscriptionCategory("day", 1, 0.5),
                        SubscriptionCategory("week", 3, 0.5)))
        manager = SubscriptionManager(options, service.mechanism)
        rates = {"s": 4.0}
        shared = plan("day1", cost=2.0, bid=30.0, op_id="shared_op")
        twin = plan("week1", cost=2.0, bid=30.0, op_id="shared_op")
        solo = plan("day2", cost=1.0, bid=20.0)
        manager.run_period(service, 1, [
            (shared, "day"), (twin, "week"), (solo, "day")])
        assert set(manager.active) == {"day1", "week1", "day2"}
        # shared_op counted once: 2×4 + 1×4
        assert manager.held_capacity(rates) == pytest.approx(12.0)

        # The day subscriptions expire; shared_op is still held by the
        # week subscription, so only solo's operator is reclaimed from
        # the shared one's point of view.
        _entries, reclaimed = manager.expire(service, ["day2"], rates)
        assert reclaimed == pytest.approx(4.0)
        _entries, reclaimed = manager.expire(service, ["day1"], rates)
        assert reclaimed == pytest.approx(0.0)  # twin still holds it
        assert manager.held_capacity(rates) == pytest.approx(8.0)
        _entries, reclaimed = manager.expire(service, ["week1"], rates)
        assert reclaimed == pytest.approx(8.0)
        assert manager.held_capacity(rates) == 0.0
        assert service.engine.admitted_ids == set()

    def test_two_holders_of_a_shared_operator_expiring_together(self):
        """Three subscriptions hold operator ``a``; two expire in one
        call.  Only ``x`` stops running, so the capacity reclaimed is
        the drop in held capacity (5 → 4), not the sum of the expired
        plans' loads (5 + 4)."""
        service = build_service(capacity=100.0, rate=1.0)
        options = SubscriptionOptions(
            categories=(SubscriptionCategory("day", 1, 0.5),
                        SubscriptionCategory("week", 3, 0.5)))
        manager = SubscriptionManager(options, service.mechanism)
        rates = {"s": 1.0}
        a = SelectOperator("a", "s", _keep, cost_per_tuple=4.0,
                           selectivity_estimate=1.0)
        x = SelectOperator("x", "s", _keep, cost_per_tuple=1.0,
                           selectivity_estimate=1.0)
        manager.run_period(service, 1, [
            (ContinuousQuery("d1", (a, x), sink_id="x", bid=30.0), "day"),
            (ContinuousQuery("d2", (a,), sink_id="a", bid=30.0), "day"),
            (ContinuousQuery("w1", (a,), sink_id="a", bid=30.0), "week"),
        ])
        assert set(manager.active) == {"d1", "d2", "w1"}
        before = manager.held_capacity(rates)
        assert before == pytest.approx(5.0)

        entries, reclaimed = manager.expire(service, ["d1", "d2"], rates)
        after = manager.held_capacity(rates)
        assert [entry.query.query_id for entry in entries] == ["d1", "d2"]
        assert after == pytest.approx(4.0)
        assert reclaimed == pytest.approx(before - after)
        assert service.engine.admitted_ids == {"w1"}

    def test_expiring_unknown_subscription_raises(self):
        service = build_service()
        manager = SubscriptionManager(SubscriptionOptions(),
                                      service.mechanism)
        with pytest.raises(ValidationError):
            manager.expire(service, ["ghost"], {"s": 4.0})

    @given(seed=st.integers(0, 500), categories=category_mixes())
    @lifecycle_settings
    def test_engine_runs_exactly_the_active_book(self, seed, categories):
        service = build_service()
        driver = SimulationDriver(
            service,
            arrivals=f"poisson:rate=1.2,seed={seed}",
            subscriptions=SubscriptionOptions(categories=categories,
                                              seed=seed))
        for _ in range(4):
            driver.run(1)
            manager = driver.managers[0]
            assert service.engine.admitted_ids == set(manager.active)
            # Held capacity is exactly the union load of the active
            # book, recomputed independently.
            rates = {"s": 4.0}
            # Union load recomputed independently: each active plan is
            # one select whose load is cost × stream rate, deduplicated
            # by operator id.
            loads_by_op = {
                entry.query.operators[0].op_id:
                    entry.query.operators[0].cost_per_tuple * 4.0
                for entry in manager.active.values()
            }
            assert manager.held_capacity(rates) == pytest.approx(
                sum(loads_by_op.values()))


# ----------------------------------------------------------------------
# 2. No double billing across renewals
# ----------------------------------------------------------------------


class TestBilling:
    @given(seed=st.integers(0, 500), categories=category_mixes())
    @lifecycle_settings
    def test_one_invoice_per_admission_never_two_per_period(
            self, seed, categories):
        service = build_service()
        driver = SimulationDriver(
            service,
            arrivals=f"poisson:rate=1.5,seed={seed}",
            subscriptions=SubscriptionOptions(categories=categories,
                                              seed=seed))
        reports = driver.run(5)
        invoices = service.ledger.invoices
        # Never two invoices for the same query in the same period.
        keys = [(i.period, i.query_id) for i in invoices]
        assert len(keys) == len(set(keys))
        # Exactly one invoice per admission event (renewals re-bill
        # only when re-admitted).
        admissions = [(r.period, qid) for r in reports
                      for qid in r.admitted]
        assert sorted(admissions) == sorted(keys)
        # Ledger total equals the reported revenue.
        assert service.total_revenue() == pytest.approx(
            sum(r.revenue for r in reports))

    @given(seed=st.integers(0, 200))
    @lifecycle_settings
    def test_invoices_tag_the_category(self, seed):
        service = build_service()
        driver = SimulationDriver(
            service, arrivals=f"poisson:rate=1.5,seed={seed}",
            subscriptions=True)
        driver.run(4)
        for invoice in service.ledger.invoices:
            assert "@" in invoice.mechanism
            assert invoice.mechanism.split("@")[1] in (
                "day", "week", "month")

    def test_max_renewals_bounds_resubmission(self):
        service = build_service(capacity=100.0)
        driver = SimulationDriver(
            service, arrivals="poisson:rate=0.4,seed=3,limit=4",
            subscriptions=SubscriptionOptions(
                categories=(SubscriptionCategory("day", 1, 1.0),),
                max_renewals=1, seed=3))
        reports = driver.run(8)
        renewed = [qid for r in reports for qid in r.renewed]
        # Each query renews at most max_renewals times.
        from collections import Counter

        assert all(count <= 1 for count in Counter(renewed).values())

    def test_no_renew_lets_subscriptions_lapse(self):
        service = build_service(capacity=100.0)
        driver = SimulationDriver(
            service, arrivals="poisson:rate=0.5,seed=3,limit=5",
            subscriptions=SubscriptionOptions(
                categories=(SubscriptionCategory("day", 1, 1.0),),
                auto_renew=False, seed=3))
        reports = driver.run(8)
        assert all(not r.renewed for r in reports)
        assert not driver.managers[0].active  # everything lapsed


# ----------------------------------------------------------------------
# 3. Per-category strategyproofness
# ----------------------------------------------------------------------


class TestPerCategoryAuctions:
    CATEGORIES = (SubscriptionCategory("day", 1, 0.5),
                  SubscriptionCategory("week", 7, 0.5))

    def run_boundary(self, capacity, pending):
        service = build_service(capacity=capacity, rate=1.0)
        manager = SubscriptionManager(
            SubscriptionOptions(categories=self.CATEGORIES),
            service.mechanism)
        return manager.run_period(service, 1, pending)

    def test_a_candidate_larger_than_its_slice_is_rejected(self):
        # Capacity 10 splits 5 / 5: the 6-unit day candidate cannot fit
        # its slice even though the week slice admits.
        result = self.run_boundary(10.0, [
            (plan("big", cost=6.0, bid=100.0), "day"),
            (plan("ok", cost=4.0, bid=10.0), "week"),
        ])
        assert result.admitted == ("ok",)
        assert result.rejected == ("big",)

    def test_prices_are_set_within_a_category(self):
        # Capacity 16 splits 8 / 8: one 5-unit day query fits, so d2
        # loses and prices d1; w1 is alone in its slice and pays 0.
        result = self.run_boundary(16.0, [
            (plan("d1", cost=5.0, bid=50.0), "day"),
            (plan("d2", cost=5.0, bid=30.0), "day"),
            (plan("w1", cost=5.0, bid=5.0), "week"),
        ])
        assert result.admitted == ("d1", "w1")
        assert result.rejected == ("d2",)
        day, week = result.outcomes["day"], result.outcomes["week"]
        assert day.payment("d1") == pytest.approx(30.0)
        assert week.payment("w1") == 0.0
        assert result.revenue == pytest.approx(30.0)

    def test_an_id_pending_in_two_categories_runs_its_own_plan(self):
        # "x" asks for both slices with different plans; only the day
        # plan fits its slice, so the day auction admits "x" and the
        # book and the engine run the day plan, not the week one.
        service = build_service(capacity=10.0, rate=1.0)
        manager = SubscriptionManager(
            SubscriptionOptions(categories=self.CATEGORIES),
            service.mechanism)
        day = plan("x", cost=1.0, bid=10.0, op_id="op_day")
        week = plan("x", cost=100.0, bid=10.0, op_id="op_week")
        result = manager.run_period(service, 1, [(day, "day"),
                                                 (week, "week")])
        assert result.admitted == ("x",) and result.rejected == ("x",)
        assert manager.active["x"].category == "day"
        assert manager.active["x"].query is day
        assert service.engine.admitted_ids == {"x"}

    def test_a_duplicate_id_is_rejected_once_when_the_book_is_full(self):
        # A 1-load subscription fills capacity 1: the boundary after it
        # has no free slice.  The two requests for "b" are one
        # candidate (the last wins), so "b" is reported rejected once,
        # as it is listed once when the slice is free.
        service = build_service(capacity=1.0, rate=1.0)
        manager = SubscriptionManager(
            SubscriptionOptions(
                categories=(SubscriptionCategory("only", 2, 1.0),)),
            service.mechanism)
        first = manager.run_period(
            service, 1, [(plan("a", cost=1.0, bid=10.0), "only")])
        assert first.admitted == ("a",)
        result = manager.run_period(service, 2, [
            (plan("b", cost=0.5, bid=5.0), "only"),
            (plan("b", cost=0.5, bid=9.0), "only"),
        ])
        assert result.held_capacity == pytest.approx(1.0)
        assert result.outcomes == {}
        assert result.rejected == ("b",)


def _category_utility(requests, manipulator_bid):
    """The manipulator's utility when bidding *manipulator_bid*."""
    service = build_service(capacity=30.0, mechanism="CAT")
    manager = SubscriptionManager(
        SubscriptionOptions(
            categories=(SubscriptionCategory("day", 1, 0.6),
                        SubscriptionCategory("week", 2, 0.4))),
        service.mechanism)
    pending = []
    valuation = None
    for qid, cost, bid, category, is_manipulator in requests:
        if is_manipulator:
            valuation = bid
            pending.append((plan(qid, cost=cost, bid=manipulator_bid,
                                 valuation=bid), category))
        else:
            pending.append((plan(qid, cost=cost, bid=bid), category))
    result = manager.run_period(service, 1, pending)
    manipulator = next(r for r in requests if r[4])
    qid, category = manipulator[0], manipulator[3]
    outcome = result.outcomes.get(category)
    if outcome is None or not outcome.is_winner(qid):
        return 0.0
    return valuation - outcome.payment(qid)


@st.composite
def request_sets(draw):
    count = draw(st.integers(3, 8))
    requests = []
    manipulator_index = draw(st.integers(0, count - 1))
    for index in range(count):
        cost = draw(st.floats(0.5, 3.0, allow_nan=False))
        bid = draw(st.floats(1.0, 50.0, allow_nan=False))
        category = draw(st.sampled_from(["day", "week"]))
        requests.append((f"q{index}", round(cost, 2), round(bid, 2),
                         category, index == manipulator_index))
    lie = draw(st.floats(0.0, 80.0, allow_nan=False))
    return requests, round(lie, 2)


class TestStrategyproofness:
    @given(request_sets())
    @lifecycle_settings
    def test_misreporting_never_beats_truth_within_a_category(
            self, generated):
        requests, lie = generated
        manipulator = next(r for r in requests if r[4])
        truthful = _category_utility(requests, manipulator[2])
        lying = _category_utility(requests, lie)
        assert lying <= truthful + 1e-9


# ----------------------------------------------------------------------
# 4. Replayed trace ≡ live run
# ----------------------------------------------------------------------


def _report_fingerprint(reports):
    return [
        (r.period, tuple(r.admitted), tuple(r.rejected),
         tuple(r.expired), tuple(r.renewed), r.revenue,
         r.reclaimed_capacity, r.engine_utilization)
        for r in reports
    ]


class TestTraceReplay:
    @given(seed=st.integers(0, 500), categories=category_mixes(),
           rate=st.sampled_from([0.8, 1.5, 3.0]))
    @lifecycle_settings
    def test_replay_reproduces_the_live_run(self, seed, categories,
                                            rate):
        options = SubscriptionOptions(categories=categories, seed=seed)
        live = SimulationDriver(
            build_service(),
            arrivals=f"poisson:rate={rate},seed={seed}",
            subscriptions=options, record=True)
        live_reports = live.run(4)

        replay = SimulationDriver(
            build_service(),
            arrivals=TraceArrivals(trace=live.trace()),
            subscriptions=options)
        replay_reports = replay.run(4)
        assert _report_fingerprint(live_reports) == \
            _report_fingerprint(replay_reports)

    def test_replay_via_trace_file_is_identical(self, tmp_path):
        from repro.io import load_sim_trace, save_sim_trace

        live = SimulationDriver(
            build_service(), arrivals="poisson:rate=1.5,seed=9",
            subscriptions=True, record=True)
        live_reports = live.run(4)
        path = tmp_path / "run.trace.npz"
        save_sim_trace(live.trace(), path)

        replay = SimulationDriver(
            build_service(),
            arrivals=TraceArrivals(trace=load_sim_trace(path)),
            subscriptions=True)
        assert _report_fingerprint(live_reports) == \
            _report_fingerprint(replay.run(4))
        # The round-trip preserves every bid/cost bit-exactly.
        assert load_sim_trace(path) == live.trace()


# ----------------------------------------------------------------------
# 5. Row boundary ≡ object boundary
# ----------------------------------------------------------------------

TWIN_CATEGORIES = (SubscriptionCategory("day", 1, 0.5),
                   SubscriptionCategory("week", 3, 0.3),
                   SubscriptionCategory("month", 4, 0.2))


def select_plan(qid, cost, bid):
    """A single pass-all select: the shape the row boundary scores."""
    op = SelectOperator(f"sel_{qid}", "s", pass_all, cost_per_tuple=cost,
                        selectivity_estimate=1.0)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id, bid=bid,
                           owner=f"o_{qid}")


def project_plan(qid, cost, bid):
    """A single project: a plan the row boundary cannot score."""
    op = ProjectOperator(f"proj_{qid}", "s", ("v",), cost_per_tuple=cost)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id, bid=bid)


#: Capacity 20 over a rate-2 stream: (id, cost, bid, category) rows.
#: "r1" overflows (2 × 1e308), and neither month row fits its slice.
TWIN_ROWS = (("r0", 1.0, 10.0, "day"), ("r1", 1e308, 50.0, "day"),
             ("r2", 3.0, 30.0, "month"), ("r3", 1.5, 20.0, "day"),
             ("r4", 1.0, 15.0, "week"), ("r5", 2.5, 7.0, "month"))


def twin_pending(renewal):
    """Two row chunks of one block with *renewal* parked between them."""
    block = ArrivalBlock.of_plans(
        [float(row) for row in range(len(TWIN_ROWS))],
        [SelectPlan(qid, f"sel_{qid}", "s", cost, 1.0, bid, None,
                    f"o_{qid}") for qid, cost, bid, _name in TWIN_ROWS])
    names = [name for *_row, name in TWIN_ROWS]
    return [RowChunk(block, 0, 3, names[:3]), (renewal, "week"),
            RowChunk(block, 3, 6, names[3:])]


def expanded(pending):
    """*pending* with every row chunk as its (plan, category) pairs."""
    pairs = []
    for item in pending:
        if type(item) is RowChunk:
            pairs.extend((item.block.plan(row), name) for row, name in
                         zip(range(item.start, item.stop), item.categories))
        else:
            pairs.append(item)
    return pairs


class TestRowsSettleAsObjects:
    """``run_period_rows`` only builds its candidates from columns; the
    one settle they share with ``run_period`` must leave the same
    result, invoices, book and engine either way."""

    def twin_boundary(self, held, renewal):
        books = []
        for _twin in range(2):
            service = build_service(capacity=20.0, rate=2.0)
            manager = SubscriptionManager(
                SubscriptionOptions(categories=TWIN_CATEGORIES),
                service.mechanism)
            first = manager.run_period(service, 1, held)
            assert first.admitted == tuple(sorted(
                query.query_id for query, _name in held))
            books.append((service, manager))
        pending = twin_pending(renewal)
        (ref_service, reference), (row_service, rows) = books
        want = reference.run_period(ref_service, 2, expanded(pending))
        got, stats = rows.run_period_rows(row_service, 2, pending)
        assert repr(got) == repr(want)
        assert (repr(row_service.ledger.invoices)
                == repr(ref_service.ledger.invoices))
        assert repr(rows.active) == repr(reference.active)
        assert (row_service.engine.admitted_ids
                == ref_service.engine.admitted_ids)
        assert stats == {"winners": len(got.admitted),
                         "fell_back": stats["fell_back"]}
        return got, stats

    def test_free_capacity(self):
        result, stats = self.twin_boundary(
            [(select_plan("h", cost=2.0, bid=40.0), "week")],
            select_plan("renew", cost=0.5, bid=12.0))
        assert not stats["fell_back"]
        assert "r1" in result.rejected            # overflowed, left out
        assert "renew" in result.admitted         # the object row won
        month = result.outcomes["month"]
        assert month.payments == {}               # a category, no winner
        assert {"r2", "r5"} <= set(result.rejected)

    def test_full_book(self):
        # Three subscriptions fill each slice exactly: no capacity is
        # free at the next boundary, so every candidate is rejected.
        result, stats = self.twin_boundary(
            [(select_plan("hd", cost=5.0, bid=40.0), "day"),
             (select_plan("hw", cost=3.0, bid=40.0), "week"),
             (select_plan("hm", cost=2.0, bid=40.0), "month")],
            select_plan("renew", cost=0.5, bid=12.0))
        assert not stats["fell_back"]
        assert result.held_capacity == 20.0
        assert result.outcomes == {} and result.admitted == ()
        assert len(result.rejected) == len(TWIN_ROWS) + 1

    def test_a_non_select_renewal_falls_back_to_objects(self):
        result, stats = self.twin_boundary(
            [(select_plan("h", cost=2.0, bid=40.0), "week")],
            project_plan("renew", cost=0.5, bid=12.0))
        assert stats["fell_back"]
        assert "renew" in result.admitted
        assert "r1" in result.rejected


# ----------------------------------------------------------------------
# Options validation
# ----------------------------------------------------------------------


class TestOptions:
    def test_fraction_overflow_names_categories(self):
        with pytest.raises(ValidationError) as excinfo:
            SubscriptionOptions(categories=(
                SubscriptionCategory("day", 1, 0.7),
                SubscriptionCategory("week", 7, 0.6)))
        assert "day=0.7" in str(excinfo.value)
        assert "week=0.6" in str(excinfo.value)

    def test_max_renewals_must_be_non_negative(self):
        with pytest.raises(ValidationError):
            SubscriptionOptions(max_renewals=-1)

    def test_unknown_requested_category_rejected_at_the_driver(self):
        from repro.sim.arrivals import Arrival, ScheduledArrivals
        from repro.sim import SimulationDriver

        service = build_service()
        driver = SimulationDriver(
            service,
            arrivals=ScheduledArrivals([
                Arrival(1.0, plan("q1"), category="decade")]),
            subscriptions=True)
        with pytest.raises(ValidationError) as excinfo:
            driver.run(2)
        assert "decade" in str(excinfo.value)

    def test_assign_category_is_deterministic_per_seed(self):
        service = build_service()
        options = SubscriptionOptions(seed=13)
        a = SubscriptionManager(options, service.mechanism)
        b = SubscriptionManager(options, service.mechanism)
        queries = [plan(f"q{i}") for i in range(20)]
        assert [a.assign_category(q) for q in queries] == \
            [b.assign_category(q) for q in queries]

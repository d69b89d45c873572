"""Columnar-pump equivalence: numpy rows, identical bytes.

The arrival pump (``SimulationDriver(pump=True)``) pulls whole numpy
row-blocks from the arrival processes and admits boundary slices
through the columnar twin, materializing plan objects for winners
only.  It is only admissible because every observable — period
reports, ``events_processed``, recorder rows, RNG streams, checkpoint
round-trips — is byte-identical to per-event dispatch.  This suite
pins that across open-system, subscription, and cluster-routed runs,
plus the edges: bursts, near-empty blocks, mid-run checkpoint
stitching, and trace record/replay — and rows a gateway hands the
driver are admitted as the same rows pushed as per-event arrivals
would be.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FederatedAdmissionService
from repro.dsms.operators import ProjectOperator, SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.io import save_sim_trace
from repro.serve.gateway import DriverBackend, report_document
from repro.service import ServiceBuilder
from repro.sim import SimulationDriver, SubscriptionOptions
from repro.sim.arrivals import (
    Arrival,
    ArrivalBlock,
    ScheduledArrivals,
    TraceArrivals,
    synthetic_query,
)
from repro.sim.driver import LOOKAHEAD
from repro.sim.events import ArrivalEvent
from repro.sim.trace import (
    SimTrace,
    TraceColumns,
    TraceRecorder,
    as_select_plan,
)
from repro.utils.validation import ValidationError

from tests.sim.test_equivalence import (
    build_cluster,
    build_service,
    report_bytes,
)


def run_driver(host, periods=4, pump=False, batch_arrivals=True,
               arrivals=None, subscriptions=None, record=False,
               route="placement"):
    driver = SimulationDriver(
        host,
        arrivals=(arrivals if arrivals is not None
                  else "poisson:rate=3,seed=11"),
        subscriptions=subscriptions,
        batch_arrivals=batch_arrivals,
        pump=pump,
        record=record,
        route=route,
    )
    reports = driver.run(periods)
    return driver, reports


def assert_all_paths_identical(make_host, **kwargs):
    """Pump ≡ the default path ≡ per-event on fresh hosts from
    *make_host*."""
    pumped, pumped_reports = run_driver(make_host(), pump=True,
                                        **kwargs)
    batched, batched_reports = run_driver(make_host(), **kwargs)
    legacy, legacy_reports = run_driver(make_host(),
                                        batch_arrivals=False, **kwargs)
    expected = report_bytes(batched_reports)
    assert report_bytes(pumped_reports) == expected
    assert report_bytes(legacy_reports) == expected
    assert (pumped.events_processed == batched.events_processed
            == legacy.events_processed)
    assert (pumped.total_revenue() == batched.total_revenue()
            == legacy.total_revenue())
    return pumped


class TestPumpEqualsObjectPaths:
    def test_open_system_identical(self):
        pumped = assert_all_paths_identical(build_service)
        pump = pumped.metrics_snapshot()["pump"]
        assert pump["enabled"] is True
        assert pump["rows"] > 0
        assert 0 <= pump["winners"] <= pump["rows"]
        assert pump["blocks"] > 0

    def test_subscription_mode_identical(self):
        assert_all_paths_identical(
            build_service,
            subscriptions=SubscriptionOptions(seed=3))

    def test_cluster_stream_routing_identical(self):
        assert_all_paths_identical(
            build_cluster,
            arrivals=["poisson:rate=2,seed=5,prefix=a",
                      "poisson:rate=3,seed=9,prefix=b"],
            route="stream",
            subscriptions=SubscriptionOptions(seed=1))

    def test_cluster_placement_routing_identical(self):
        """Placement routing, open system: rows are submitted one by
        one and the host places each."""
        assert_all_paths_identical(
            build_cluster,
            arrivals="poisson:rate=4,seed=17",
            route="placement")

    def test_burst_arrivals_identical(self):
        """Simultaneous arrivals: block slicing must respect ties."""
        assert_all_paths_identical(
            build_service,
            arrivals="burst:size=20,every=2,seed=7")

    def test_near_empty_blocks_identical(self):
        """A rate so low most pump pulls yield zero or one row."""
        assert_all_paths_identical(
            build_service,
            arrivals="poisson:rate=0.05,seed=13",
            periods=6)

    def test_recorder_rows_identical(self):
        pumped, _ = run_driver(
            build_service(), pump=True, record=True,
            subscriptions=SubscriptionOptions(seed=3))
        legacy, _ = run_driver(
            build_service(), record=True, batch_arrivals=False,
            subscriptions=SubscriptionOptions(seed=3))
        assert ([repr(e) for e in pumped.trace().entries]
                == [repr(e) for e in legacy.trace().entries])

    def test_pump_off_reports_disabled_counters(self):
        driver, _ = run_driver(build_service(), periods=2)
        pump = driver.metrics_snapshot()["pump"]
        assert pump["enabled"] is False
        assert pump["rows"] == 0
        assert pump["winners"] == 0

    @given(rate=st.floats(min_value=0.5, max_value=8.0),
           seed=st.integers(min_value=0, max_value=2**16),
           subscriptions=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_property_pump_equals_batched(self, rate, seed,
                                          subscriptions):
        arrivals = f"poisson:rate={rate},seed={seed}"
        options = (SubscriptionOptions(seed=seed) if subscriptions
                   else None)
        pumped, pumped_reports = run_driver(
            build_service(seed=seed % 7), periods=3, pump=True,
            arrivals=arrivals, subscriptions=options)
        batched, batched_reports = run_driver(
            build_service(seed=seed % 7), periods=3,
            arrivals=arrivals, subscriptions=options)
        assert report_bytes(pumped_reports) == report_bytes(
            batched_reports)
        assert pumped.events_processed == batched.events_processed


class TestPumpCheckpointing:
    def test_mid_run_checkpoint_stitches_identically(self):
        """Snapshot between periods: a pump driver resumes mid-block.

        The restored run's remaining periods must match both an
        uninterrupted pump run and the per-event reference — the
        snapshot carries block cursors, so rows consumed before the
        checkpoint are never re-admitted after it.
        """
        def spec():
            return dict(arrivals="poisson:rate=4,seed=23",
                        subscriptions=SubscriptionOptions(seed=5))

        whole, whole_reports = run_driver(build_service(), periods=4,
                                          pump=True, **spec())
        reference, reference_reports = run_driver(
            build_service(), periods=4, batch_arrivals=False, **spec())

        first = SimulationDriver(build_service(), pump=True, **spec())
        head = first.run(2)
        restored = SimulationDriver.restore(first.snapshot())
        assert restored.pump is True
        tail = restored.run(2)

        stitched = report_bytes(head + tail)
        assert stitched == report_bytes(whole_reports)
        assert stitched == report_bytes(reference_reports)
        assert (whole.events_processed
                == first.events_processed + (
                    restored.events_processed - first.events_processed)
                == restored.events_processed)

    def test_snapshot_roundtrip_preserves_pump_counters(self):
        driver, _ = run_driver(build_service(), periods=2, pump=True)
        restored = SimulationDriver.restore(driver.snapshot())
        assert (restored.metrics_snapshot()["pump"]
                == driver.metrics_snapshot()["pump"])


class TestPumpTraceReplay:
    @pytest.mark.parametrize("replay_pump", [False, True])
    def test_pump_recording_replays_identically(self, tmp_path,
                                                replay_pump):
        """A trace recorded under the pump replays byte-identically —
        whether the replay itself pumps numpy blocks or not."""
        live, live_reports = run_driver(
            build_service(), pump=True, record=True,
            arrivals="poisson:rate=4,seed=21",
            subscriptions=SubscriptionOptions(seed=2))
        path = tmp_path / "pumped.trace.npz"
        save_sim_trace(live.trace(), path)

        replay = SimulationDriver(
            build_service(),
            arrivals=f"trace:path={path}",
            subscriptions=SubscriptionOptions(seed=2),
            pump=replay_pump,
        )
        replayed = replay.run(4)
        assert report_bytes(replayed) == report_bytes(live_reports)
        assert replay.events_processed == live.events_processed

    def test_overflowing_rows_clear_as_if_they_never_came(self, tmp_path):
        """Every fifth recorded row re-costed to 1e308 (an infinite
        load at this rate) and bidding far above the rest: the columnar
        boundary and the object one both leave those rows out of their
        category's auction and report them rejected, and everyone else
        clears as in a trace without them.  GV meets the poisoned rows
        first: taken in, they would stop each auction they enter."""
        live, _ = run_driver(
            build_service(), record=True,
            arrivals="poisson:rate=4,seed=21",
            subscriptions=SubscriptionOptions(seed=2))
        columns = live.trace().columns()
        clean = TraceColumns(**{
            name.name: [value for row, value in
                        enumerate(getattr(columns, name.name)) if row % 5]
            for name in dataclasses.fields(TraceColumns)})
        poisoned = columns.copy()
        for row in range(0, len(poisoned), 5):
            poisoned.costs[row] = 1e308
            poisoned.bids[row] = 1e6

        def build_gv_service():
            return (ServiceBuilder()
                    .with_sources(SyntheticStream("s", rate=5.0, seed=0))
                    .with_capacity(40.0)
                    .with_mechanism("GV")
                    .with_ticks_per_period(5)
                    .build())

        def replay(trace_columns, name):
            path = tmp_path / f"{name}.trace.npz"
            save_sim_trace(SimTrace(trace_columns), path)
            return assert_all_paths_identical(
                build_gv_service, arrivals=f"trace:path={path}",
                subscriptions=SubscriptionOptions(seed=2))

        expected = replay(clean, "clean")
        pumped = replay(poisoned, "poisoned")
        assert pumped.metrics_snapshot()["pump"]["fallbacks"] == 0
        assert ([report.admitted for report in pumped.reports]
                == [report.admitted for report in expected.reports])
        assert pumped.total_revenue() == expected.total_revenue()
        # Rows arriving after the last boundary are never auctioned.
        dropped = set(poisoned.ids[::5])
        rejected = {query_id for report in pumped.reports
                    for query_id in report.rejected}
        assert dropped & rejected
        assert rejected - dropped == {
            query_id for report in expected.reports
            for query_id in report.rejected}


PLACEMENTS = ["round-robin", "least-loaded", "consistent-hash"]


def build_placed_cluster(placement, shards=4):
    return FederatedAdmissionService.build(
        num_shards=shards,
        sources=[SyntheticStream("s", rate=5.0, seed=0)],
        capacity=40.0,
        mechanism="CAT",
        ticks_per_period=5,
        placement=placement,
    )


def trace_rows(driver):
    return [repr(entry) for entry in driver.trace().entries]


class TestPlacementRoutedSubscriptions:
    """Subscription mode over a placement-routed federation: the row
    body routes each row in pop order (round-robin keeps a cursor,
    least-loaded reads the shards' queues) and parks same-shard runs
    as chunks on several shards' pending lists."""

    def spec(self):
        return dict(arrivals="poisson:rate=4,seed=17",
                    subscriptions=SubscriptionOptions(seed=4),
                    record=True)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_rows_equal_per_event(self, placement):
        pumped = assert_all_paths_identical(
            lambda: build_placed_cluster(placement), **self.spec())
        legacy, _ = run_driver(build_placed_cluster(placement),
                               batch_arrivals=False, **self.spec())
        assert trace_rows(pumped) == trace_rows(legacy)
        pump = pumped.metrics_snapshot()["pump"]
        assert pump["enabled"] is True
        assert pump["rows"] == len(pumped.trace())
        assert pump["fallbacks"] == 0
        served = {shard for report in pumped.reports
                  for shard, result in enumerate(report.shard_results)
                  if result.admitted or result.rejected}
        assert len(served) > 1

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_mid_period_checkpoint_stitches(self, placement):
        """Stopped halfway through a period, with chunks parked and a
        block cursor mid-block, the restored driver finishes the run
        as the per-event reference does."""
        reference, reference_reports = run_driver(
            build_placed_cluster(placement), periods=4,
            batch_arrivals=False, **self.spec())
        first = SimulationDriver(build_placed_cluster(placement),
                                 **self.spec())
        while first.clock < 2.5 * first.host.shards[0].ticks_per_period:
            first._step()
        assert first.period == 3 and first.pending_count() > 0
        restored = SimulationDriver.restore(first.snapshot())
        restored.run(1)

        assert report_bytes(restored.reports) == report_bytes(
            reference_reports)
        assert restored.events_processed == reference.events_processed
        assert trace_rows(restored) == trace_rows(reference)


def build_hashed_cluster():
    return FederatedAdmissionService.build(
        num_shards=4,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=30.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="consistent-hash",
    )


def settle_both(make_driver, ticks):
    """Run *ticks* — each a list of ``("submit", query, category)`` /
    ``("withdraw", query_id)`` ops — through a :class:`DriverBackend`
    over a row-admitting driver, and through a per-event driver fed
    the surviving submissions as :class:`ArrivalEvent` s at the same
    boundary times; returns both drivers and both report lists."""
    backend = DriverBackend(make_driver(batch_arrivals=True))
    oracle = make_driver(batch_arrivals=False)
    rows, expected = [], []
    for ops in ticks:
        inbox = {}
        for op in ops:
            if op[0] == "submit":
                _, query, category = op
                backend.submit(query, category=category)
                inbox[query.query_id] = (query, category)
            else:
                backend.withdraw(op[1])
                del inbox[op[1]]
        boundary = float(
            oracle.period * oracle.host.shards[0].ticks_per_period)
        for query, category in inbox.values():
            oracle.queue.push(ArrivalEvent(
                time=boundary, query=as_select_plan(query),
                category=category))
        rows.append(backend.tick())
        expected.append(oracle.run(1)[0])
    return backend.driver, oracle, rows, expected


def assert_settled_alike(driver, oracle, rows, expected):
    assert report_bytes(rows) == report_bytes(expected)
    assert ([json.dumps(report_document(report), sort_keys=True)
             for report in rows]
            == [json.dumps(report_document(report), sort_keys=True)
                for report in expected])
    assert driver.events_processed == oracle.events_processed
    assert trace_rows(driver) == trace_rows(oracle)


class TestGatewayRows:
    """A :class:`DriverBackend` hands the driver its inbox as one row
    block per tick; the driver admits it as the same rows pushed as
    per-event arrivals at the boundary time."""

    def test_ticks_equal_per_event_arrivals(self):
        rng = np.random.default_rng(3)
        serial = iter(range(10 ** 6))

        def fresh():
            return synthetic_query(rng, next(serial), prefix="g",
                                   clients=11)

        ticks = []
        for _ in range(5):
            ops = [("submit", fresh(), None) for _ in range(12)]
            ops += [("submit", fresh(), name)
                    for name in ("day", "day", "week", "month")]
            ops.append(("withdraw", ops[3][1].query_id))
            ticks.append(ops)

        def make_driver(batch_arrivals):
            return SimulationDriver(
                build_hashed_cluster(),
                subscriptions=SubscriptionOptions(seed=7),
                record=True, batch_arrivals=batch_arrivals)

        driver, oracle, rows, expected = settle_both(make_driver, ticks)
        assert_settled_alike(driver, oracle, rows, expected)
        # Day subscriptions auto-renew: later ticks' rows sat in the
        # pending lists beside renewals.
        assert any(report.renewed for report in rows[1:])
        assert driver.pump is True and oracle.pump is False

    @pytest.mark.parametrize("count", [5, LOOKAHEAD + 6, 2 * LOOKAHEAD + 6])
    @pytest.mark.parametrize("kind", ["trace", "scheduled"])
    def test_process_rows_share_the_first_ticks_queue_key(self, kind,
                                                         count):
        """A fresh driver's process has *count* rows at time 0 on
        stream 0 — the key of rows submitted before the first tick.
        Per-event dispatch pops the process rows it queued at
        construction (one lookahead batch) first, then the submits,
        then the rest; the row body keeps that order whether the
        process hands out blocks (trace) or objects (scheduled)."""
        def process():
            rng = np.random.default_rng(5)
            arrivals = [
                Arrival(0.0 if index < count else 0.5 + index / 10,
                        synthetic_query(rng, index, prefix="p"))
                for index in range(count + 20)]
            if kind == "scheduled":
                return ScheduledArrivals(arrivals)
            recorder = TraceRecorder()
            for arrival in arrivals:
                recorder.record(arrival.time, arrival.query, None, 0)
            return TraceArrivals(trace=recorder.trace())

        rng = np.random.default_rng(9)
        submits = [("submit", synthetic_query(rng, index, prefix="g"),
                    "day" if index % 3 == 0 else None)
                   for index in range(10)]

        def make_driver(batch_arrivals):
            return SimulationDriver(
                build_hashed_cluster(), arrivals=process(),
                subscriptions=SubscriptionOptions(seed=3),
                record=True, batch_arrivals=batch_arrivals)

        driver, oracle, rows, expected = settle_both(
            make_driver, [submits, [], []])
        assert_settled_alike(driver, oracle, rows, expected)
        order = [entry.query.query_id for entry in driver.trace().entries]
        first_submit = order.index("g0")
        assert order[first_submit - 1] == f"p{min(count, LOOKAHEAD) - 1}"

    def test_inbox_refuses_a_plan_with_no_select_form(self):
        """No wire body or WAL op can carry such a plan, and the inbox
        holds select rows: it is refused at submit, by name."""
        backend = DriverBackend(SimulationDriver(build_hashed_cluster()))
        select = SelectOperator("sel", "s", keep_all)
        project = ProjectOperator("proj", "sel", ("a",))
        fancy = ContinuousQuery("fancy", (select, project),
                                sink_id="proj", bid=9.0)
        with pytest.raises(ValidationError,
                           match="'fancy' is not a single pass-all"):
            backend.submit(fancy)
        assert backend.pending_count() == 0

    def test_arrive_takes_one_pinned_block_at_a_time(self):
        driver = SimulationDriver(build_service())
        rng = np.random.default_rng(1)
        plans = [as_select_plan(synthetic_query(rng, index))
                 for index in range(3)]
        with pytest.raises(ValidationError, match="pinned to a stream"):
            driver.arrive(ArrivalBlock.of_plans([0.0] * 3, plans))
        driver.arrive(ArrivalBlock.of_plans([0.0] * 3, plans, stream=0))
        with pytest.raises(ValidationError, match="one non-empty block"):
            driver.arrive(ArrivalBlock.of_plans([0.0] * 3, plans,
                                                stream=0))
        report = driver.run(1)[0]
        assert driver.events_processed == 3 + 1    # rows + the boundary
        assert {query_id for query_id in report.admitted + report.rejected
                } == {plan.query_id for plan in plans}


def keep_all(_tuple):
    return True

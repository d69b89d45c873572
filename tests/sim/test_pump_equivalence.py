"""Columnar-pump equivalence: numpy rows, identical bytes.

The arrival pump (``SimulationDriver(pump=True)``) pulls whole numpy
row-blocks from the arrival processes and admits boundary slices
through the columnar twin, materializing plan objects for winners
only.  It is only admissible because every observable — period
reports, ``events_processed``, recorder rows, RNG streams, checkpoint
round-trips — is byte-identical to the batched and per-event object
paths.  This suite pins that across open-system, subscription, and
cluster-routed runs, plus the edges: bursts, near-empty blocks,
mid-run checkpoint stitching, and trace record/replay.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import save_sim_trace
from repro.sim import SimulationDriver, SubscriptionOptions
from repro.sim.trace import SimTrace, TraceColumns

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
    """Pump ≡ batched ≡ per-event on fresh hosts from *make_host*."""
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
        """Placement routing admits per-row (pump falls back cleanly)."""
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

        def replay(trace_columns, name):
            path = tmp_path / f"{name}.trace.npz"
            save_sim_trace(SimTrace(trace_columns), path)
            return assert_all_paths_identical(
                build_service, arrivals=f"trace:path={path}",
                subscriptions=SubscriptionOptions(seed=2, mechanism="GV"))

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

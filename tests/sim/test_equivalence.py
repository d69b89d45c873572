"""Fast-layer equivalence: every shortcut must be invisible.

The simulation runtime's throughput work — row admission of arrivals
(the default), the v2 binary trace columns, the probe's count-mode
engine — is only admissible because each fast path produces
*byte-identical* results to the reference path it replaced.  This
suite pins that:

* the default arrival path ≡ per-event dispatch (reports,
  ``events_processed``, recorder rows);
* trace-v2 (binary) replay ≡ trace-v1 (JSON) replay ≡ the live run;
* the property-based sweep covers arrival rates, seeds, subscription
  lifecycles, and sharded stream routing.

The probe's count-mode engine is pinned to its tuple queues in
``tests/dsms/test_count_mode.py``.
"""

import dataclasses
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import (
    load_sim_trace,
    report_to_dict,
    save_sim_trace,
)
from repro.service import ServiceBuilder
from repro.sim import SimulationDriver, SubscriptionOptions

DATA = Path(__file__).parent.parent / "data"


def build_service(seed=0, capacity=40.0):
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=5.0, seed=seed))
            .with_capacity(capacity)
            .with_mechanism("CAT")
            .with_ticks_per_period(5)
            .build())


def build_cluster(seed=0):
    return FederatedAdmissionService.build(
        num_shards=2,
        sources=[SyntheticStream("s", rate=5.0, seed=seed)],
        capacity=40.0,
        mechanism="CAT",
        ticks_per_period=5,
        placement="round-robin",
    )


def report_bytes(reports) -> str:
    """A canonical byte string over any host's period reports."""
    rendered = []
    for report in reports:
        if dataclasses.is_dataclass(report):
            # SimPeriodReport / ClusterReport: deterministic dataclass
            # reprs recurse through every field.
            rendered.append(repr(report))
        else:
            rendered.append(json.dumps(report_to_dict(report),
                                       sort_keys=True))
    return "\x1e".join(rendered)


def run_driver(host, periods=4, batch_arrivals=True, arrivals=None,
               subscriptions=None, record=False, route="placement",
               probe=None):
    driver = SimulationDriver(
        host,
        arrivals=(arrivals if arrivals is not None
                  else "poisson:rate=3,seed=11"),
        subscriptions=subscriptions,
        batch_arrivals=batch_arrivals,
        record=record,
        route=route,
        probe=probe,
    )
    reports = driver.run(periods)
    return driver, reports


class TestBatchedEqualsPerEvent:
    def test_open_system_reports_identical(self):
        batched, batched_reports = run_driver(build_service())
        legacy, legacy_reports = run_driver(build_service(),
                                            batch_arrivals=False)
        assert report_bytes(batched_reports) == report_bytes(
            legacy_reports)
        assert batched.events_processed == legacy.events_processed

    def test_subscription_mode_identical(self):
        batched, batched_reports = run_driver(
            build_service(), subscriptions=SubscriptionOptions(seed=3))
        legacy, legacy_reports = run_driver(
            build_service(), subscriptions=SubscriptionOptions(seed=3),
            batch_arrivals=False)
        assert report_bytes(batched_reports) == report_bytes(
            legacy_reports)
        assert batched.events_processed == legacy.events_processed

    def test_cluster_stream_routing_identical(self):
        arrivals = ["poisson:rate=2,seed=5,prefix=a",
                    "poisson:rate=3,seed=9,prefix=b"]
        batched, batched_reports = run_driver(
            build_cluster(), arrivals=arrivals, route="stream",
            subscriptions=SubscriptionOptions(seed=1))
        legacy, legacy_reports = run_driver(
            build_cluster(), arrivals=arrivals, route="stream",
            subscriptions=SubscriptionOptions(seed=1),
            batch_arrivals=False)
        assert report_bytes(batched_reports) == report_bytes(
            legacy_reports)
        assert batched.events_processed == legacy.events_processed

    def test_recorder_rows_identical(self):
        batched, _ = run_driver(
            build_service(), record=True,
            subscriptions=SubscriptionOptions(seed=3))
        legacy, _ = run_driver(
            build_service(), record=True,
            subscriptions=SubscriptionOptions(seed=3),
            batch_arrivals=False)
        assert ([repr(e) for e in batched.trace().entries]
                == [repr(e) for e in legacy.trace().entries])

    @given(rate=st.floats(min_value=0.5, max_value=8.0),
           seed=st.integers(min_value=0, max_value=2**16),
           subscriptions=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_property_batched_equals_per_event(self, rate, seed,
                                               subscriptions):
        arrivals = f"poisson:rate={rate},seed={seed}"
        options = (SubscriptionOptions(seed=seed) if subscriptions
                   else None)
        batched, batched_reports = run_driver(
            build_service(seed=seed % 7), periods=3,
            arrivals=arrivals, subscriptions=options)
        legacy, legacy_reports = run_driver(
            build_service(seed=seed % 7), periods=3,
            arrivals=arrivals, subscriptions=options,
            batch_arrivals=False)
        assert report_bytes(batched_reports) == report_bytes(
            legacy_reports)
        assert batched.events_processed == legacy.events_processed


class TestTraceReplayEquivalence:
    def _record(self, subscriptions=True):
        options = SubscriptionOptions(seed=2) if subscriptions else None
        driver, reports = run_driver(
            build_service(), record=True,
            arrivals="poisson:rate=4,seed=21",
            subscriptions=options)
        return driver, reports, options

    def _replay(self, path, options, periods=4):
        driver = SimulationDriver(
            build_service(),
            arrivals=f"trace:path={path}",
            subscriptions=(SubscriptionOptions(seed=2)
                           if options else None),
        )
        return driver, driver.run(periods)

    def test_v1_and_v2_replays_match_the_live_run(self, tmp_path):
        live, live_reports, options = self._record()
        trace = live.trace()

        # Written by the parent commit from _record()'s configuration:
        # the v1 JSON document this build no longer writes, and a v2
        # container still carrying the two (empty) pickled-plan arrays.
        v1 = DATA / "run.trace.v1.json"
        old_v2 = DATA / "run.trace.v2.npz"
        v2 = tmp_path / "run.trace.json"  # the name picks nothing
        save_sim_trace(trace, v2)
        assert v2.read_bytes()[:2] == b"PK"  # actually binary
        assert load_sim_trace(v1) == trace
        assert load_sim_trace(old_v2) == trace

        expected = report_bytes(live_reports)
        for path in (v1, old_v2, v2):
            _, reports = self._replay(path, options)
            assert report_bytes(reports) == expected

    def test_v2_roundtrip_preserves_every_entry(self, tmp_path):
        live, _reports, _options = self._record()
        trace = live.trace()
        path = tmp_path / "run.trace.npz"
        save_sim_trace(trace, path)
        loaded = load_sim_trace(path)
        assert ([repr(e) for e in loaded.entries]
                == [repr(e) for e in trace.entries])

    def test_open_system_without_subscriptions_replays(self, tmp_path):
        live, live_reports, _ = self._record(subscriptions=False)
        path = tmp_path / "plain.trace.npz"
        save_sim_trace(live.trace(), path)
        _, replayed = self._replay(path, options=None)
        assert report_bytes(replayed) == report_bytes(live_reports)

"""The simulation driver: lockstep equivalence, open system, resume."""

import json

import numpy as np
import pytest

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import report_to_dict
from repro.service import ServiceBuilder
from repro.sim import ScheduledArrivals, SimulationDriver
from repro.sim.arrivals import synthetic_query
from repro.sim.events import PeriodEvent
from repro.utils.validation import ValidationError


def build_service(mechanism="CAT", ticks=10, capacity=40.0, rate=5.0):
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=rate, seed=0))
            .with_capacity(capacity)
            .with_mechanism(mechanism)
            .with_ticks_per_period(ticks)
            .build())


def build_cluster(num_shards=2, ticks=10):
    return FederatedAdmissionService.build(
        num_shards=num_shards,
        sources=[SyntheticStream("s", rate=5.0, seed=0)],
        capacity=40.0,
        mechanism="CAT",
        ticks_per_period=ticks,
        placement="consistent-hash:seed=3",
    )


def batches(periods=3, count=5, seed=0):
    out = []
    for period in range(1, periods + 1):
        rng = np.random.default_rng([seed, period])
        out.append([synthetic_query(rng, i, prefix=f"p{period}q")
                    for i in range(count)])
    return out


def reports_json(reports):
    return json.dumps([report_to_dict(r) for r in reports],
                      sort_keys=True)


class TestLockstepEquivalence:
    def test_run_periods_matches_manual_loop_byte_identically(self):
        manual = build_service()
        manual_reports = []
        for batch in batches():
            for query in batch:
                manual.submit(query)
            manual_reports.append(manual.run_period())

        delegated = build_service()
        delegated_reports = delegated.run_periods(batches())

        assert reports_json(manual_reports) == \
            reports_json(delegated_reports)
        assert manual.total_revenue() == delegated.total_revenue()

    def test_run_periods_with_randomized_mechanism(self):
        manual = build_service(mechanism="two-price:seed=9")
        manual_reports = []
        for batch in batches():
            for query in batch:
                manual.submit(query)
            manual_reports.append(manual.run_period())
        delegated = build_service(mechanism="two-price:seed=9")
        assert reports_json(manual_reports) == \
            reports_json(delegated.run_periods(batches()))

    def test_run_periods_accepts_a_lazy_generator(self):
        service = build_service()
        consumed = []

        def lazy():
            for index, batch in enumerate(batches()):
                consumed.append(index)
                yield batch

        reports = service.run_periods(lazy())
        assert len(reports) == 3
        assert consumed == [0, 1, 2]

    def test_empty_batch_with_no_candidates_still_raises(self):
        service = build_service()
        with pytest.raises(ValidationError):
            service.run_periods([[]])

    def test_batches_are_auctioned_and_billed_in_period_order(self):
        service = build_service(ticks=5)
        reports = service.run_periods(batches(periods=2, count=2))
        assert [report.period for report in reports] == [1, 2]
        assert sorted(reports[0].admitted + reports[0].rejected) == [
            "p1q0", "p1q1"]
        invoices = [(invoice.period, invoice.query_id)
                    for invoice in service.ledger.invoices]
        assert invoices == [(report.period, query_id)
                            for report in reports
                            for query_id in report.admitted]
        assert {period for period, _ in invoices} == {1, 2}

    def test_cluster_run_periods_matches_manual_loop(self):
        manual = build_cluster()
        manual_reports = []
        for batch in batches():
            for query in batch:
                manual.submit(query)
            manual_reports.append(manual.run_period())

        delegated = build_cluster()
        delegated_reports = delegated.run_periods(batches())
        from repro.io import cluster_report_to_dict

        a = json.dumps([cluster_report_to_dict(r)
                        for r in manual_reports], sort_keys=True)
        b = json.dumps([cluster_report_to_dict(r)
                        for r in delegated_reports], sort_keys=True)
        assert a == b


class TestOpenSystem:
    def test_poisson_arrivals_reach_the_auction(self):
        driver = SimulationDriver(
            build_service(), arrivals="poisson:rate=1.5,seed=4")
        reports = driver.run(4)
        assert [r.period for r in reports] == [1, 2, 3, 4]
        assert sum(len(r.admitted) for r in reports) > 0

    def test_first_period_is_idle_when_nothing_arrived_yet(self):
        driver = SimulationDriver(
            build_service(), arrivals="poisson:rate=0.5,seed=4")
        report = driver.run(1)[0]
        assert report.outcome.mechanism == "idle"
        assert report.revenue == 0.0

    def test_multiple_processes_merge_deterministically(self):
        def make():
            return SimulationDriver(
                build_service(),
                arrivals=["poisson:rate=1,seed=1,prefix=x",
                          "poisson:rate=1,seed=2,prefix=y"],
                record=True)

        a, b = make(), make()
        a.run(3)
        b.run(3)
        ids_a = [e.query.query_id for e in a.trace().entries]
        ids_b = [e.query.query_id for e in b.trace().entries]
        assert ids_a == ids_b
        assert any(i.startswith("x") for i in ids_a)
        assert any(i.startswith("y") for i in ids_a)

    def test_scheduled_arrivals_compete_at_the_right_boundary(self):
        from repro.sim.arrivals import Arrival

        rng = np.random.default_rng(0)
        early = synthetic_query(rng, 0, prefix="early")
        late = synthetic_query(rng, 1, prefix="late")
        driver = SimulationDriver(
            build_service(ticks=10),
            arrivals=ScheduledArrivals([
                Arrival(2.0, early),
                Arrival(15.0, late),
            ]))
        first, second, third = driver.run(3)
        # Arrival at t=2 competes at the period-2 boundary (t=10);
        # arrival at t=15 at the period-3 boundary (t=20).
        assert "early0" not in first.admitted + first.rejected
        assert "early0" in second.admitted + second.rejected
        assert "late1" in third.admitted + third.rejected

    def test_run_drains_up_to_the_next_boundary(self):
        driver = SimulationDriver(
            build_service(), arrivals="poisson:rate=1,seed=4",
            probe="fifo")
        driver.run(2)
        # Everything before the next PeriodEvent is processed.
        assert isinstance(driver.queue.peek(), PeriodEvent)
        # Probe ticked once per virtual tick of both periods.
        assert len(driver.tick_metrics()) == 2 * 10

    def test_route_stream_pins_processes_to_shards(self):
        cluster = build_cluster()
        driver = SimulationDriver(
            cluster,
            arrivals=["poisson:rate=1,seed=1,prefix=s0",
                      "poisson:rate=1,seed=2,prefix=s1"],
            route="stream")
        driver.run(3)
        shard0 = cluster.shards[0].ledger.invoices
        shard1 = cluster.shards[1].ledger.invoices
        assert all(i.query_id.startswith("s0") for i in shard0)
        assert all(i.query_id.startswith("s1") for i in shard1)
        assert shard0 and shard1

    def test_multi_stream_recording_replays_onto_recorded_shards(self):
        from repro.sim import TraceArrivals

        def shard_invoices(cluster):
            return [sorted(i.query_id for i in shard.ledger.invoices)
                    for shard in cluster.shards]

        live_cluster = build_cluster()
        live = SimulationDriver(
            live_cluster,
            arrivals=["poisson:rate=1,seed=1,prefix=s0",
                      "poisson:rate=1,seed=2,prefix=s1"],
            route="stream", record=True)
        live.run(3)

        replay_cluster = build_cluster()
        replay = SimulationDriver(
            replay_cluster,
            arrivals=TraceArrivals(trace=live.trace()),
            route="stream")
        replay.run(3)
        # Every arrival lands on its *recorded* stream's shard, even
        # though the replay runs through a single trace process.
        assert shard_invoices(replay_cluster) == \
            shard_invoices(live_cluster)
        assert any(shard_invoices(live_cluster)[1])

    def test_pinned_stream_out_of_range_is_rejected(self):
        from repro.sim.arrivals import Arrival, ScheduledArrivals

        rng = np.random.default_rng(0)
        driver = SimulationDriver(
            build_service(),
            arrivals=ScheduledArrivals([
                Arrival(1.0, synthetic_query(rng, 0), stream=3)]),
            route="stream")
        with pytest.raises(ValidationError) as excinfo:
            driver.run(2)
        assert "stream 3" in str(excinfo.value)

    def test_route_stream_requires_enough_shards(self):
        with pytest.raises(ValidationError):
            SimulationDriver(
                build_service(),
                arrivals=["poisson:rate=1", "poisson:rate=1"],
                route="stream")

    def test_unknown_route_rejected(self):
        with pytest.raises(ValidationError):
            SimulationDriver(build_service(), route="teleport")


ONE = "poisson:rate=5,seed=1"
TWO = ["poisson:rate=2,seed=1,prefix=a", "poisson:rate=3,seed=2,prefix=b"]


def four_shards():
    return build_cluster(4)


@pytest.mark.parametrize("build,kwargs,pump", [
    (build_service, dict(arrivals=ONE), True),
    (build_service, dict(arrivals=TWO), True),
    (build_service, dict(), True),
    (build_service, dict(arrivals=ONE, batch_arrivals=False), False),
    (build_service, dict(arrivals=ONE, pump=False), False),
    (four_shards, dict(arrivals=ONE), True),
    (four_shards, dict(arrivals=ONE, route="stream"), True),
    (four_shards, dict(arrivals=TWO, route="stream"), True),
    (four_shards, dict(arrivals=TWO, batch_arrivals=False, pump=True),
     True),
])
def test_driver_takes_the_arrival_path_it_observes(build, kwargs, pump):
    """``pump=None`` resolves to ``batch_arrivals``: every process that
    hands out blocks is pumped, placement-routed or not; a keyword
    names a path; a restore keeps the stored bool (the ``pump=False``
    row's would resolve the other way)."""
    driver = SimulationDriver(build(), **kwargs)
    assert driver.pump is pump
    driver.run(1)
    assert SimulationDriver.restore(driver.snapshot()).pump is pump


class TestProbe:
    def test_metrics_cover_every_tick(self):
        driver = SimulationDriver(
            build_service(ticks=8), arrivals="poisson:rate=1,seed=2",
            probe="fifo")
        driver.run(3)
        metrics = driver.tick_metrics()
        assert [m.time for m in metrics] == list(range(1, 25))

    def test_percentiles_empty_without_probe(self):
        driver = SimulationDriver(build_service(),
                                  arrivals="poisson:rate=1,seed=2")
        driver.run(2)
        assert driver.tick_metrics() == []
        assert driver.latency_percentiles() == {50.0: 0.0, 95.0: 0.0,
                                                99.0: 0.0}

    def test_probe_work_respects_the_budget(self):
        driver = SimulationDriver(
            build_service(capacity=20.0),
            arrivals="poisson:rate=2,seed=2", probe="fifo")
        driver.run(3)
        assert all(m.work <= 20.0 + 1e-9
                   for m in driver.tick_metrics())

    def test_probe_runs_its_own_copy_of_the_shard_plans(self):
        """A stateful operator's window is advanced by the shard's
        engine alone: the shard's results are the same with a probe
        attached and after a restore, and no probe operator is a shard
        operator."""
        from repro.dsms.operators import AggregateOperator
        from repro.dsms.plan import ContinuousQuery
        from repro.sim.arrivals import Arrival

        def run(probe, periods=3):
            op = AggregateOperator("agg", "s", "v", len, window=4)
            query = ContinuousQuery("q", (op,), sink_id="agg", bid=50.0)
            driver = SimulationDriver(
                build_service(ticks=10),
                arrivals=ScheduledArrivals([Arrival(1.0, query)]),
                probe=probe)
            driver.run(periods)
            return driver

        def windows(driver):
            [shard] = driver.host.shards
            return {query_id: [t.payload for t in tuples]
                    for query_id, tuples in shard.engine.results.items()}

        probed = run("fifo")
        assert "q" in probed.reports[-1].admitted
        assert probed.probes[0].engine.admitted_ids == {"q"}
        assert windows(probed) == windows(run(None))
        resumed = SimulationDriver.restore(run("fifo", periods=2).snapshot())
        resumed.run(1)
        assert windows(resumed) == windows(probed)
        [shard] = probed.host.shards
        shard_ops = {id(op) for op in shard.engine.catalog.operators.values()}
        assert not any(
            id(op) in shard_ops
            for op in probed.probes[0].engine.catalog.operators.values())


class TestCheckpointing:
    @staticmethod
    def fingerprint(driver):
        """Exact value fingerprint (every float must match bitwise)."""
        return [
            [(r.period, tuple(r.admitted), tuple(r.rejected), r.revenue)
             for r in driver.reports],
            [(m.time, m.shard, m.queued, m.delivered, m.mean_latency,
              m.work) for m in driver.tick_metrics()],
            sorted(driver.latency_percentiles().items()),
            [(i.period, i.query_id, i.owner, i.amount, i.mechanism)
             for s in driver.host.shards for i in s.ledger.invoices],
            driver.events_processed,
        ]

    def test_resume_is_byte_identical(self, tmp_path):
        def make():
            return SimulationDriver(
                build_service(mechanism="two-price:seed=3"),
                arrivals="poisson:rate=1.5,seed=6", probe="fifo",
                record=True)

        uninterrupted = make()
        uninterrupted.run(6)

        interrupted = make()
        interrupted.run(2)
        path = tmp_path / "sim.ckpt"
        interrupted.save_checkpoint(path)
        resumed = SimulationDriver.load_checkpoint(path)
        resumed.run(4)

        assert self.fingerprint(uninterrupted) == \
            self.fingerprint(resumed)
        assert uninterrupted.trace() == resumed.trace()

    def test_snapshot_restores_twice(self, tmp_path):
        driver = SimulationDriver(build_service(),
                                  arrivals="poisson:rate=1,seed=6")
        driver.run(1)
        snapshot = driver.snapshot()
        a = SimulationDriver.restore(snapshot)
        b = SimulationDriver.restore(snapshot)
        a.run(2)
        b.run(2)
        assert self.fingerprint(a) == self.fingerprint(b)

    def test_version_mismatch_rejected(self):
        driver = SimulationDriver(build_service(),
                                  arrivals="poisson:rate=1")
        snapshot = driver.snapshot()
        from dataclasses import replace

        with pytest.raises(ValidationError):
            SimulationDriver.restore(replace(snapshot, version=99))

    def test_snapshot_requires_every_state_field(self):
        from repro.sim.driver import SimSnapshot

        with pytest.raises(ValidationError):
            SimSnapshot(version=1, state={"clock": 0.0})

    def test_cluster_resume_is_byte_identical(self, tmp_path):
        def make():
            return SimulationDriver(
                build_cluster(), arrivals="poisson:rate=2,seed=6")

        uninterrupted = make()
        uninterrupted.run(5)
        interrupted = make()
        interrupted.run(2)
        path = tmp_path / "cluster-sim.ckpt"
        interrupted.save_checkpoint(path)
        resumed = SimulationDriver.load_checkpoint(path)
        resumed.run(3)
        a = [(type(r).__name__, r.period, r.total_revenue)
             for r in uninterrupted.reports]
        b = [(type(r).__name__, r.period, r.total_revenue)
             for r in resumed.reports]
        assert a == b


class TestDriverAssembly:
    def test_probe_policy_and_recording(self):
        driver = SimulationDriver(
            build_service(), arrivals="poisson:rate=1,seed=2",
            probe="longest-queue-first", record=True)
        assert driver.probes[0].engine.policy.name == \
            "longest-queue-first"
        driver.run(2)
        assert len(driver.trace().entries) > 0

    def test_unknown_probe_policy_names_the_known_ones(self):
        with pytest.raises(KeyError, match="fifo.*round-robin"):
            SimulationDriver(build_service(), probe="warp-speed")
        driver = SimulationDriver(build_service(), probe="fifo")
        assert driver.probes[0].engine.policy.name == "fifo"

    def test_unwrappable_host_rejected(self):
        with pytest.raises(ValidationError):
            SimulationDriver(object())

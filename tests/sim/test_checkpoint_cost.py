"""A checkpoint costs what the live state costs: measured by identity.

Time is noise on a shared box; object identity and allocation are not.
History records (reports, outcomes, invoices, probe ticks, delivered
tuples) are immutable, so ``snapshot()`` and ``restore()`` share them
and copy only the containers a running system appends to.  The first
half pins the sharing — a restored system holds the *same* records as
the snapshot, the host state is copied once, and restoring a long run
allocates barely more than restoring a short one.  The second half pins
the other side of the bargain: one snapshot still restores any number
of times, and neither the source nor any restored system can disturb
the snapshot or each other.
"""

import pickle

import pytest

from repro.dsms.engine import StreamEngine
from repro.sim import SimulationDriver
from tests.checkpoints import TIERS, advance, build_cluster, build_driver
from tests.serve.test_submit_cost import peak_bytes

BY_NAME = {tier.name: tier for tier in TIERS}
tiers = pytest.mark.parametrize("tier", TIERS, ids=lambda tier: tier.name)


def snapshot_reports(snapshot):
    """The report history a snapshot of any tier carries."""
    state = getattr(snapshot, "state", None)
    return snapshot.reports if state is None else state["reports"]


def services(system):
    """The admission services under a driver, service or cluster."""
    if isinstance(system, SimulationDriver):
        return system.host.shards
    return getattr(system, "shards", (system,))


class TestHistoryIsShared:
    @tiers
    def test_restored_reports_are_the_snapshots_reports(self, tier):
        system = tier.build()
        advance(system, 4)
        snapshot = system.snapshot()
        restored = tier.restore(snapshot)
        held = snapshot_reports(snapshot)
        assert len(held) == 4
        for k in range(4):
            assert restored.reports[k] is held[k]
            assert system.reports[k] is held[k]
        assert restored.reports is not held

    @tiers
    def test_invoices_and_delivered_tuples_are_shared(self, tier):
        system = tier.build()
        advance(system, 4)
        restored = tier.restore(system.snapshot())
        shared = 0
        for live, copy in zip(services(system), services(restored)):
            assert copy.engine is not live.engine
            assert copy.ledger.invoices is not live.ledger.invoices
            for ours, theirs in zip(live.ledger.invoices,
                                    copy.ledger.invoices):
                assert ours is theirs
                shared += 1
            for query_id, rows in live.engine.results.items():
                assert copy.engine.results[query_id] is not rows
                for ours, theirs in zip(rows,
                                        copy.engine.results[query_id]):
                    assert ours is theirs
                    shared += 1
        assert shared > 0

    def test_cluster_and_shard_histories_hold_one_report(self, tmp_path):
        """Before: snapshot and restore each split a shard report in
        two, and the file pickled both."""
        cluster = build_cluster()
        advance(cluster, 3)
        tier = BY_NAME["cluster"]
        tier.save(cluster.snapshot(), tmp_path / "cluster.bin")
        for snapshot in (cluster.snapshot(),
                         tier.load(tmp_path / "cluster.bin")):
            restored = tier.restore(snapshot)
            for i, report in enumerate(restored.reports):
                for j, shard in enumerate(restored.shards):
                    assert report.shard_reports[j] is shard.reports[i]

    @pytest.mark.parametrize("host", [BY_NAME["service"].build,
                                      build_cluster],
                             ids=["service", "cluster"])
    def test_host_state_is_copied_exactly_once(self, host, monkeypatch):
        driver = SimulationDriver(host(), arrivals="poisson:rate=1,seed=6")
        driver.run(2)
        snapshot = driver.snapshot()
        copied = []
        original = StreamEngine.__deepcopy__

        def counting(engine, memo):
            copied.append(engine)
            return original(engine, memo)

        monkeypatch.setattr(StreamEngine, "__deepcopy__", counting)
        restored = SimulationDriver.restore(snapshot)
        host_snapshot = snapshot.state["host"]
        held = [shard.state["engine"] for shard in
                getattr(host_snapshot, "shards", (host_snapshot,))]
        assert len(copied) == len(held)
        for engine, source in zip(copied, held):
            assert engine is source
        for service, source in zip(restored.host.shards, held):
            assert service.engine is not source


class TestRestoreAllocatesNoHistoryCopy:
    #: Restoring period 60 may allocate this much more than restoring
    #: period 15: the shallow containers grow one pointer per record
    #: (measured ~65 KB); a deep copy of the same history grew 1.3 MB.
    BUDGET = 128 * 1024

    @pytest.fixture(scope="class")
    def snapshots(self):
        driver = build_driver()
        advance(driver, 15)
        short = driver.snapshot()
        advance(driver, 45)
        return short, driver.snapshot()

    def test_the_yardstick(self, snapshots):
        """What the budget is measured against: an unshared copy of the
        45 periods of history, which is what unpickling builds."""
        short, long = (pickle.dumps(snapshot) for snapshot in snapshots)
        grown = (peak_bytes(lambda: pickle.loads(long))
                 - peak_bytes(lambda: pickle.loads(short)))
        assert grown > 4 * self.BUDGET

    def test_restore(self, snapshots):
        short, long = snapshots
        base = peak_bytes(lambda: SimulationDriver.restore(short))
        assert (peak_bytes(lambda: SimulationDriver.restore(long))
                < base + self.BUDGET)

    def test_snapshot(self, snapshots):
        short, long = snapshots
        base = peak_bytes(SimulationDriver.restore(short).snapshot)
        assert (peak_bytes(SimulationDriver.restore(long).snapshot)
                < base + self.BUDGET)


class TestIsolationStillHolds:
    @tiers
    def test_running_the_source_and_two_restores_leaves_the_bytes(
            self, tier):
        system = tier.build()
        advance(system, 3)
        snapshot = system.snapshot()
        before = pickle.dumps(snapshot)
        first, second = tier.restore(snapshot), tier.restore(snapshot)
        continued = advance(system, 5)
        assert advance(first, 5) == continued
        assert pickle.dumps(snapshot) == before
        assert advance(second, 5) == continued
        assert pickle.dumps(snapshot) == before
        assert advance(tier.restore(snapshot), 5) == continued

    @tiers
    def test_appends_to_one_restore_reach_nobody_else(self, tier):
        system = tier.build()
        advance(system, 4)
        snapshot = system.snapshot()
        first, second = tier.restore(snapshot), tier.restore(snapshot)
        others = (system, second, tier.restore(snapshot))

        def lengths(candidate):
            sizes = [len(candidate.reports)]
            for service in services(candidate):
                sizes.append(len(service.reports))
                sizes.append(len(service.ledger.invoices))
                sizes.extend(len(rows) for _, rows in
                             sorted(service.engine.results.items()))
            for probe in getattr(candidate, "probes", ()):
                sizes.append(len(probe.metrics))
                sizes.append(len(probe.engine.latency_samples))
            return sizes

        expected = lengths(first)
        assert all(lengths(other) == expected for other in others)
        held = len(snapshot_reports(snapshot))

        first.reports.append(first.reports[-1])
        for service in services(first):
            service.reports.append(None)
            service.ledger.invoices.append(service.ledger.invoices[0]
                                           if service.ledger.invoices
                                           else None)
            for rows in service.engine.results.values():
                rows.append(None)
        for probe in getattr(first, "probes", ()):
            probe.metrics.append(probe.metrics[0])
            probe.engine.latency_samples.append(0)

        assert all(size > was for size, was in
                   zip(lengths(first), expected))
        assert all(lengths(other) == expected for other in others)
        assert len(snapshot_reports(snapshot)) == held
        assert lengths(tier.restore(snapshot)) == expected

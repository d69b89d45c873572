"""Crash recovery ≡ the uninterrupted run, property-tested.

The contract under test: for ANY workload and ANY crash instant, the
recovered run's observable state — period reports, cumulative revenue,
billing ledger — is identical to a run that never crashed.  Crashes
are simulated physically (truncating segment bytes, exactly what
``kill -9`` mid-``write`` leaves) and logically (abandoning a live log
mid-run without closing it).
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.utils.validation import ValidationError
from repro.wal import WriteAheadLog, list_segments, records as rec
from repro.wal.recovery import recover_sim_driver
from tests.wal.workloads import (
    assert_no_duplicate_invoices,
    build_driver,
    driver_fingerprint,
)

pytestmark = pytest.mark.wal


def wal_driver(directory, *, compact_every=0, **kwargs):
    driver = build_driver(**kwargs)
    log = WriteAheadLog.create(
        directory, driver.snapshot(), fsync="never",
        compact_every=compact_every)
    driver.attach_wal(log)
    return driver, log


def rewrite_last_receipt(directory, **changes):
    """Re-frame the final (trailing) period record with *changes*
    applied — a CRC-clean record that says something else."""
    seq, segment = list_segments(directory)[-1]
    blob = segment.read_bytes()
    kind, body, start, end = list(rec.iter_frames(blob))[-1]
    assert kind == rec.RECORD_PERIOD and end == len(blob)
    document = rec.decode_json(body, "period")
    for field, change in changes.items():
        document[field] = change(document[field])
    segment.write_bytes(blob[:start] + rec.encode_frame(
        rec.RECORD_PERIOD, rec.encode_json(document)))


def odd_ticks(item) -> bool:
    """A filtering predicate (module-level: snapshots pickle plans)."""
    return item.tick % 2 == 1


def filtering_query(n: int):
    from repro.dsms import ContinuousQuery, SelectOperator

    op = SelectOperator(f"sel_f{n}", "s", odd_ticks, cost_per_tuple=1.0,
                        selectivity_estimate=0.5)
    return ContinuousQuery(f"f{n}", (op,), sink_id=op.op_id,
                           bid=5.0 + n % 7, owner=f"owner{n}")


class TestRecoveryEquivalence:
    def test_wal_attachment_does_not_perturb_the_run(self, tmp_path):
        # Plain; GV with subscriptions and a fifo probe on the batched
        # object path; and the same on the pump.  No arrival reaches
        # the log on either — only each boundary's receipt does.
        logged = {"mechanism": "GV", "subscriptions": True,
                  "probe": "fifo"}
        for index, options in enumerate(
                ({}, logged, {**logged, "pump": True})):
            reference = build_driver(**options)
            reference.run(5)
            driver, log = wal_driver(tmp_path / f"wal{index}", **options)
            driver.run(5)
            log.close()
            assert driver_fingerprint(driver) == \
                driver_fingerprint(reference)

    def test_abandoned_log_recovers_and_converges(self, tmp_path):
        reference = build_driver()
        reference.run(6)

        driver, _ = wal_driver(tmp_path / "wal", compact_every=2)
        driver.run(4)
        # No close(), no sync: the process just stops existing.
        recovered, log = recover_sim_driver(tmp_path / "wal",
                                            fsync="never")
        assert recovered.period == 4
        recovered.run(6 - recovered.period)
        log.close()
        fingerprint = driver_fingerprint(recovered)
        assert fingerprint == driver_fingerprint(reference)
        assert_no_duplicate_invoices(fingerprint["invoices"])

    def test_replay_mismatch_is_a_hard_error(self, tmp_path):
        driver, log = wal_driver(tmp_path / "wal")
        driver.run(3)
        log.close()
        # Tamper with the logged revenue of the final period record.
        directory = tmp_path / "wal"
        seq, segment = list_segments(directory)[-1]
        frames = list(rec.iter_frames(segment.read_bytes()))
        kind, body, start, _ = [f for f in frames
                                if f[0] == rec.RECORD_PERIOD][-1]
        document = rec.decode_json(body, "period")
        document["revenue"] = document["revenue"] + 1.0
        blob = segment.read_bytes()[:start] + rec.encode_frame(
            rec.RECORD_PERIOD, rec.encode_json(document))
        segment.write_bytes(blob)
        with pytest.raises(ValidationError, match="revenue"):
            recover_sim_driver(directory, fsync="never")

    def test_tampered_events_count_is_a_hard_error(self, tmp_path):
        driver, log = wal_driver(tmp_path / "wal")
        driver.run(3)
        log.close()
        rewrite_last_receipt(tmp_path / "wal", events=lambda n: n + 1)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ValidationError) as failed:
            recover_sim_driver(tmp_path / "wal", fsync="never")
        # The failed replay closed the log it had reopened.
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert "events" in str(failed.value)

    def test_filtering_plans_are_logged_and_recovered(self, tmp_path):
        # The log never needed an arrival's bytes — recovery restores
        # the plans from the snapshot — so a plan with no byte form
        # (anything but a pass-all select) runs under a log like any
        # other.
        from repro.sim import SimulationDriver
        from repro.sim.arrivals import Arrival, ScheduledArrivals
        from tests.wal.workloads import build_service

        def build():
            return SimulationDriver(
                build_service(), arrivals=ScheduledArrivals([
                    Arrival(time=2.0 * n, query=filtering_query(n))
                    for n in range(30)]))

        reference = build()
        reference.run(6)
        assert reference.total_revenue() > 0

        driver = build()
        driver.attach_wal(WriteAheadLog.create(
            tmp_path / "wal", driver.snapshot(), fsync="never",
            compact_every=2))
        driver.run(3)  # abandoned mid-run: no close(), no sync
        recovered, log = recover_sim_driver(tmp_path / "wal",
                                            fsync="never")
        assert recovered.period == 3
        recovered.run(6 - recovered.period)
        log.close()
        assert driver_fingerprint(recovered) == \
            driver_fingerprint(reference)

    def test_recovery_across_a_compaction_boundary(self, tmp_path):
        reference = build_driver()
        reference.run(7)
        driver, log = wal_driver(tmp_path / "wal", compact_every=3)
        driver.run(7)
        assert log.stats["compactions"] >= 2
        recovered, log2 = recover_sim_driver(tmp_path / "wal",
                                             fsync="never")
        log2.close()
        assert driver_fingerprint(recovered) == \
            driver_fingerprint(reference)

    def test_subscription_renewals_bill_exactly_once(self, tmp_path):
        from repro.sim import SimulationDriver, SubscriptionOptions
        from tests.wal.workloads import build_service

        def build(wal=None):
            driver = SimulationDriver(
                build_service(seed=11),
                arrivals="poisson:rate=2,seed=11",
                subscriptions=SubscriptionOptions(),
            )
            if wal is not None:
                driver.attach_wal(wal)
            return driver

        reference = build()
        reference.run(6)

        driver = build()
        log = WriteAheadLog.create(tmp_path / "wal", driver.snapshot(),
                                   fsync="never", compact_every=2)
        driver.attach_wal(log)
        driver.run(4)  # crash between two renewal cycles
        recovered, log2 = recover_sim_driver(tmp_path / "wal",
                                             fsync="never")
        recovered.run(6 - recovered.period)
        log2.close()
        fingerprint = driver_fingerprint(recovered)
        assert fingerprint == driver_fingerprint(reference)
        assert_no_duplicate_invoices(fingerprint["invoices"])


def truncated_run(tmp_path, *, periods, crash_after, chop, seed,
                  compact_every):
    """Run to *crash_after* periods, then chop *chop* bytes of tail."""
    # tmp_path is function-scoped but hypothesis runs many examples
    # through one function call — each example gets its own WAL dir.
    directory = (tmp_path
                 / f"wal-{seed}-{crash_after}-{chop}-{compact_every}")
    driver, log = wal_driver(directory, seed=seed,
                             compact_every=compact_every)
    driver.run(crash_after)
    # Abandon the live log, then tear the final segment mid-frame the
    # way a crashed kernel write would.
    seq, segment = list_segments(directory)[-1]
    blob = segment.read_bytes()
    segment.write_bytes(blob[:len(blob) - min(chop, len(blob))])
    return directory


class TestCrashOffsetProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000),
           crash_after=st.integers(1, 5),
           chop=st.integers(0, 4096),
           compact_every=st.sampled_from([0, 2, 3]))
    def test_any_crash_offset_converges_byte_identically(
            self, tmp_path, seed, crash_after, chop, compact_every):
        periods = 6
        reference = build_driver(seed=seed)
        reference.run(periods)
        reference_fingerprint = driver_fingerprint(reference)

        directory = truncated_run(
            tmp_path, periods=periods, crash_after=crash_after,
            chop=chop, seed=seed, compact_every=compact_every)
        recovered, log = recover_sim_driver(directory, fsync="never")
        assert recovered.period <= crash_after
        recovered.run(periods - recovered.period)
        log.close()
        fingerprint = driver_fingerprint(recovered)
        assert fingerprint == reference_fingerprint
        assert_no_duplicate_invoices(fingerprint["invoices"])

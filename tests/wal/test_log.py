"""The segmented log: scan, torn-tail truncation, compaction, crashpoints."""

import os

import pytest

from repro.utils.validation import ValidationError
from repro.wal import (
    WriteAheadLog,
    crashpoints,
    list_segments,
    list_snapshots,
    records as rec,
    scan_wal,
    segment_name,
    wal_exists,
)
from repro.wal.log import _parse_fsync

pytestmark = pytest.mark.wal


def fresh_log(tmp_path, state="genesis-state", **kwargs):
    kwargs.setdefault("fsync", "never")
    return WriteAheadLog.create(tmp_path / "wal", state, **kwargs)


class TestLifecycle:
    def test_create_writes_genesis_snapshot_and_checkpoint(self, tmp_path):
        log = fresh_log(tmp_path)
        log.close()
        directory = tmp_path / "wal"
        assert wal_exists(directory)
        assert [seq for seq, _ in list_segments(directory)] == [0]
        assert [period for period, _ in list_snapshots(directory)] == [0]
        scan = scan_wal(directory)
        assert [r.kind for r in scan.records] == [rec.RECORD_CHECKPOINT]

    def test_create_refuses_an_existing_wal(self, tmp_path):
        fresh_log(tmp_path).close()
        with pytest.raises(ValidationError, match="resume"):
            fresh_log(tmp_path)

    def test_segment_only_directory_does_not_count_as_a_wal(self, tmp_path):
        # A crash during genesis leaves a segment but no snapshot —
        # nothing was acknowledged, so the owner starts fresh over it.
        directory = tmp_path / "wal"
        directory.mkdir()
        (directory / segment_name(0)).write_bytes(b"torn genesis")
        assert not wal_exists(directory)
        log = fresh_log(tmp_path)
        log.append_op({"op": "x"})
        log.close()
        assert len(scan_wal(directory).records) == 2

    def test_appends_scan_back_in_order(self, tmp_path):
        log = fresh_log(tmp_path)
        log.append_op({"op": "submit", "n": 1})
        log.append_period(period=1, events=10, revenue=2.5)
        log.append_op({"op": "withdraw", "n": 2})
        log.close()
        scan = scan_wal(tmp_path / "wal")
        kinds = [r.kind for r in scan.records]
        assert kinds == [rec.RECORD_CHECKPOINT, rec.RECORD_OP,
                         rec.RECORD_PERIOD, rec.RECORD_OP]
        period = rec.decode_json(scan.records[2].body, "period")
        assert period["period"] == 1
        assert period["revenue"] == 2.5

    def test_segments_roll_at_the_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.wal.log.DEFAULT_SEGMENT_BYTES", 256)
        log = fresh_log(tmp_path)
        for n in range(20):
            log.append_op({"op": "submit", "pad": "x" * 64, "n": n})
        log.close()
        directory = tmp_path / "wal"
        assert len(list_segments(directory)) > 1
        scan = scan_wal(directory)
        ops = [r for r in scan.records if r.kind == rec.RECORD_OP]
        assert [rec.decode_json(r.body, "op")["n"] for r in ops] == \
            list(range(20))


class TestTornTail:
    def append_three_ops(self, tmp_path):
        log = fresh_log(tmp_path)
        for n in range(3):
            log.append_op({"n": n})
        log.close()
        return tmp_path / "wal"

    def test_resume_discards_a_torn_trailing_write(self, tmp_path):
        directory = self.append_three_ops(tmp_path)
        segment = list_segments(directory)[-1][1]
        whole = segment.read_bytes()
        segment.write_bytes(whole[:-4])

        log, scan = WriteAheadLog.resume(directory, fsync="never")
        tail = scan.tail()
        assert [rec.decode_json(r.body, "op")["n"] for r in tail] == [0, 1]
        assert log.stats["torn_tail"] is True
        assert log.stats["discarded_bytes"] > 0
        # The physical file was truncated back to the last good record.
        log.append_op({"n": "post-recovery"})
        log.close()
        reread = [rec.decode_json(r.body, "op").get("n")
                  for r in scan_wal(directory).records
                  if r.kind == rec.RECORD_OP]
        assert reread == [0, 1, "post-recovery"]

    def test_interior_corruption_is_a_hard_error(self, tmp_path):
        directory = self.append_three_ops(tmp_path)
        first = list_segments(directory)[0][1]
        # Flip a byte in the middle of the FIRST of two segments.
        second = directory / segment_name(1)
        second.write_bytes(rec.encode_frame(rec.RECORD_OP, b"{}"))
        blob = bytearray(first.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        first.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="corrupt"):
            scan_wal(directory)


class TestCompaction:
    def test_compact_prunes_segments_and_snapshots(self, tmp_path):
        log = fresh_log(tmp_path, compact_every=1)
        for period in range(1, 4):
            log.append_period(period=period, events=1, revenue=0.0)
            assert log.due_for_compaction(period)
            log.compact(f"state-{period}", period)
        log.close()
        directory = tmp_path / "wal"
        assert [p for p, _ in list_snapshots(directory)] == [3]
        segments = list_segments(directory)
        assert len(segments) == 1
        assert segments[0][0] == log.stats_snapshot()["segment"]
        scan = scan_wal(directory)
        assert [r.kind for r in scan.records] == [rec.RECORD_CHECKPOINT]
        assert log.stats["compactions"] == 3

    def test_compact_sweeps_orphaned_tmp_files(self, tmp_path):
        log = fresh_log(tmp_path, compact_every=1)
        stale = tmp_path / "wal" / "snapshot-00000009.ckpt.abc.tmp"
        stale.write_bytes(b"interrupted atomic save")
        log.append_period(period=1, events=1, revenue=0.0)
        log.compact("state", 1)
        log.close()
        assert not stale.exists()

    def test_recovery_replays_only_past_the_checkpoint(self, tmp_path):
        log = fresh_log(tmp_path)
        log.append_period(period=1, events=1, revenue=1.0)
        log.compact("state-1", 1)
        log.append_period(period=2, events=1, revenue=2.0)
        log.close()
        _, scan = WriteAheadLog.resume(tmp_path / "wal", fsync="never")
        tail = scan.tail()
        assert [rec.decode_json(r.body, "p")["period"]
                for r in tail] == [2]


class TestFsyncPolicies:
    def test_parse(self):
        assert _parse_fsync("never") == ("never", 0)
        assert _parse_fsync("always")[0] == "always"
        assert _parse_fsync("batch:64") == ("batch", 64)

    @pytest.mark.parametrize("policy", ["sometimes", "batch:0",
                                        "batch:x", ""])
    def test_rejects_nonsense(self, policy):
        with pytest.raises(ValidationError):
            _parse_fsync(policy)

    def test_always_fsyncs_every_append(self, tmp_path):
        log = fresh_log(tmp_path, fsync="always")
        before = log.stats["fsyncs"]
        log.append_op({"n": 1})
        log.append_op({"n": 2})
        assert log.stats["fsyncs"] == before + 2
        log.close()

    def test_batch_fsyncs_every_nth_append(self, tmp_path):
        log = fresh_log(tmp_path, fsync="batch:3")
        before = log.stats["fsyncs"]
        for n in range(6):
            log.append_op({"n": n})
        assert log.stats["fsyncs"] == before + 2
        log.close()


class TestCrashpoints:
    def test_registry_lists_every_instrumented_site(self):
        import repro.io  # noqa: F401 — registers io.save.after-tmp
        import repro.serve.gateway  # noqa: F401
        import repro.sim.driver  # noqa: F401

        from tests.wal.test_kill_matrix import SERVE_MATRIX, SIM_MATRIX

        # Equality, not >=: a crashpoint registered with no matrix row
        # would otherwise never be killed at.
        names = crashpoints.registered_crashpoints()
        assert set(names) == set(SIM_MATRIX) | set(SERVE_MATRIX)

    def test_arm_counts_hits_before_firing(self, tmp_path):
        fired = []
        log = fresh_log(tmp_path)
        crashpoints.set_crash_handler(fired.append)
        crashpoints.arm("wal.append.after-frame", hits=3)
        try:
            log.append_op({"n": 0})   # hit 1
            log.append_op({"n": 1})   # hit 2
            assert fired == []
            log.append_op({"n": 2})   # hit 3 fires
            assert fired == ["wal.append.after-frame"]
        finally:
            crashpoints.disarm()
            crashpoints.set_crash_handler(None)

    def test_arm_from_env_parses_name_and_hits(self):
        armed = crashpoints.arm_from_env(
            {crashpoints.CRASHPOINT_ENV: "driver.settle.before-period-record:4"})
        try:
            assert armed == "driver.settle.before-period-record"
        finally:
            crashpoints.disarm()
        assert crashpoints.arm_from_env({}) is None

    def test_arming_an_unregistered_name_never_fires(self, tmp_path):
        # arm() is deliberately permissive — env arming happens at
        # import, before every site has registered — so an unknown
        # name simply never matches a crashpoint() call.
        fired = []
        crashpoints.set_crash_handler(fired.append)
        crashpoints.arm("no.such.site")
        try:
            log = fresh_log(tmp_path)
            log.append_op({"n": 0})
            log.close()
        finally:
            crashpoints.disarm()
            crashpoints.set_crash_handler(None)
        assert fired == []

    def test_default_handler_sigkills(self, tmp_path):
        import subprocess
        import sys

        code = (
            "from repro.wal import crashpoints\n"
            "crashpoints.arm('wal.append.after-frame')\n"
            "crashpoints.crashpoint('wal.append.after-frame')\n"
            "print('survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     [str(p) for p in sys.path if p])})
        assert proc.returncode == -9
        assert b"survived" not in proc.stdout

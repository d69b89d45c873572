"""Segmented write-ahead log: append, scan, truncate, compact.

On-disk layout of a WAL directory::

    wal-00000000.log        oldest live segment
    wal-00000001.log        ...
    wal-00000007.log        active segment (appends go here)
    snapshot-00000012.ckpt  repro/sim-snapshot envelope at period 12

Segments hold the frames of :mod:`repro.wal.records` back to back.
The durability contract is write-ahead + forced ordering:

* every mutation is framed and appended *before* it is acknowledged
  (gateway ops) or *as* it is applied (sim settle receipts), under the
  configured fsync policy — ``never`` (OS decides), ``batch:n``
  (fsync every *n* records), ``always`` (fsync per append);
* compaction first saves a snapshot atomically, then rolls to a fresh
  segment whose first record is a fsync'd ``CHECKPOINT`` naming that
  snapshot, and only then prunes older segments and snapshots — a
  crash between any two of those steps leaves a recoverable log.

Scanning replays that contract in reverse.  A bad frame in the *final*
segment is a torn tail (the expected residue of ``kill -9``): bytes
from the tear onward are discarded and, on resume, physically
truncated away.  A bad frame anywhere else means real corruption and
raises :class:`~repro.utils.validation.ValidationError` naming the
segment.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.utils.validation import ValidationError
from repro.wal import records as rec
from repro.wal.crashpoints import crashpoint, register

CP_APPEND_BEFORE_FRAME = register("wal.append.before-frame")
CP_APPEND_AFTER_FRAME = register("wal.append.after-frame")
CP_COMPACT_BEFORE_SNAPSHOT = register("wal.compact.before-snapshot")
CP_COMPACT_AFTER_SNAPSHOT = register("wal.compact.after-snapshot")
CP_COMPACT_AFTER_CHECKPOINT = register("wal.compact.after-checkpoint")
CP_COMPACT_AFTER_PRUNE = register("wal.compact.after-prune")

#: Roll to a new segment once the active one crosses this many bytes.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


def segment_name(seq: int) -> str:
    return f"wal-{int(seq):08d}.log"


def snapshot_name(period: int) -> str:
    return f"snapshot-{int(period):08d}.ckpt"


def list_segments(directory) -> "list[tuple[int, Path]]":
    """``(seq, path)`` for every segment file, ordered by sequence."""
    found = []
    for path in Path(directory).glob("wal-*.log"):
        stem = path.name[len("wal-"):-len(".log")]
        if stem.isdigit():
            found.append((int(stem), path))
    return sorted(found)


def list_snapshots(directory) -> "list[tuple[int, Path]]":
    """``(period, path)`` for every snapshot file, ordered by period."""
    found = []
    for path in Path(directory).glob("snapshot-*.ckpt"):
        stem = path.name[len("snapshot-"):-len(".ckpt")]
        if stem.isdigit():
            found.append((int(stem), path))
    return sorted(found)


def wal_exists(directory) -> bool:
    """True when *directory* holds a recoverable WAL.

    The gate is a *snapshot*, not a segment: snapshots are published
    atomically, so one on disk means genesis (or a later checkpoint)
    completed and recovery has a base state.  A directory with only a
    segment file is a crash *during* genesis — nothing was ever
    acknowledged, and the owner should start fresh over it.
    """
    return bool(list_snapshots(directory))


@dataclass(frozen=True)
class WalRecord:
    """One decoded frame plus its physical location in the log."""

    kind: int
    body: bytes
    segment: int
    start: int
    end: int


@dataclass
class WalScan:
    """Everything a scan learned about a WAL directory."""

    directory: Path
    segments: "list[tuple[int, Path]]"
    records: "list[WalRecord]"
    torn: bool = False
    discarded_bytes: int = 0

    def checkpoint(self) -> "WalRecord | None":
        """The latest ``CHECKPOINT`` record, if any survived."""
        for record in reversed(self.records):
            if record.kind == rec.RECORD_CHECKPOINT:
                return record
        return None

    def tail(self) -> "list[WalRecord]":
        """The replay worklist: ``PERIOD`` and ``OP`` records after the
        latest checkpoint.  A retired ``ARRIVALS`` frame in a directory
        an earlier build wrote is left out here, and so by every owner.
        """
        checkpoint = self.checkpoint()
        return [
            record for record in self.records
            if record.kind in (rec.RECORD_PERIOD, rec.RECORD_OP)
            and (checkpoint is None
                 or (record.segment, record.start)
                 > (checkpoint.segment, checkpoint.start))]


def scan_wal(directory) -> WalScan:
    """Read every frame in *directory*, classifying any bad frame.

    A decode failure in the last segment marks the scan ``torn`` and
    drops everything from the tear onward; a failure in an earlier
    segment is corruption and raises ``ValidationError``.
    """
    directory = Path(directory)
    segments = list_segments(directory)
    if not segments:
        raise ValidationError(
            f"no WAL segments found in {directory}")
    scan = WalScan(directory=directory, segments=segments, records=[])
    last_seq = segments[-1][0]
    for seq, path in segments:
        try:
            buffer = path.read_bytes()
        except OSError as error:
            raise ValidationError(
                f"failed to read WAL segment {path}: {error}"
            ) from None
        try:
            for kind, body, start, end in rec.iter_frames(buffer):
                scan.records.append(WalRecord(
                    kind=kind, body=body, segment=seq,
                    start=start, end=end))
        except rec.FrameError as error:
            if seq != last_seq:
                raise ValidationError(
                    f"corrupt WAL segment {path}: {error}") from None
            scan.torn = True
            scan.discarded_bytes = len(buffer) - error.offset
    return scan


def check_receipt(document: dict, *, period: int, events: int,
                  revenue: float, queue: "dict | None",
                  origin: str) -> None:
    """Compare a period record against the state a replay produced.

    Every field a receipt carries is compared here — one that is not
    would not be written.  Exact comparisons are deliberate: JSON
    round-trips Python floats bit-exactly and a replay recomputes
    revenue in the same summation order, so any tolerance would only
    hide divergence.
    """
    want_period = int(document.get("period", -1))
    if want_period != int(period):
        raise ValidationError(
            f"WAL replay diverged during {origin}: log expects period "
            f"{want_period}, replay reached {period}")
    want_events = document.get("events")
    if want_events is not None and int(want_events) != int(events):
        raise ValidationError(
            f"WAL replay diverged during {origin} at period {period}: "
            f"log expects {want_events} events processed, replay "
            f"counted {events}")
    want_revenue = document.get("revenue")
    if want_revenue is not None and float(want_revenue) != float(revenue):
        raise ValidationError(
            f"WAL replay diverged during {origin} at period {period}: "
            f"log expects revenue {want_revenue!r}, replay produced "
            f"{revenue!r}")
    want_queue = document.get("queue")
    if want_queue is not None and queue is not None \
            and want_queue != queue:
        raise ValidationError(
            f"WAL replay diverged during {origin} at period {period}: "
            f"queue composition {queue!r} does not match the logged "
            f"{want_queue!r}")


def _parse_fsync(policy) -> "tuple[str, int]":
    """Normalise ``never`` / ``batch:n`` / ``always`` to (mode, n)."""
    text = str(policy).strip().lower()
    if text == "never":
        return "never", 0
    if text == "always":
        return "always", 0
    mode, _, count = text.partition(":")
    if mode == "batch":
        try:
            every = int(count) if count else 256
        except ValueError:
            every = -1
        if every >= 1:
            return "batch", every
    raise ValidationError(
        f"invalid fsync policy {policy!r}: expected 'never', "
        f"'always', or 'batch:N'")


class WriteAheadLog:
    """Appender + compactor over one WAL directory.

    Use :meth:`create` for a fresh directory (writes the genesis
    snapshot + checkpoint so period 0 is already recoverable) and
    :meth:`resume` after a crash (truncates the torn tail discovered
    by :func:`scan_wal` before reopening for append).
    """

    def __init__(self, directory, *, fsync="batch:256", compact_every=0):
        self.directory = Path(directory)
        self.fsync_policy = str(fsync)
        self._fsync_mode, self._fsync_every = _parse_fsync(fsync)
        self.compact_every = int(compact_every)
        self.checkpoint_period = 0
        #: When True, appends are silently dropped — recovery replays
        #: records through the same code paths that normally log them.
        self.suspended = False
        #: Receipt documents a replay is expected to reproduce, in
        #: order (see :meth:`expect_replay` / :meth:`verify_replay`).
        self._replay_expect: "list[dict]" = []
        self._lock = threading.Lock()
        self._handle = None
        self._seq = -1
        self._segment_size = 0
        self._unsynced = 0
        self.stats = {
            "records": 0, "segments": 0, "fsyncs": 0,
            "compactions": 0, "recoveries": 0, "appended_bytes": 0,
            "torn_tail": False, "discarded_bytes": 0,
        }

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, directory, state, *, fsync="batch:256",
               compact_every=0):
        """Initialise a fresh WAL: genesis snapshot + checkpoint.

        *state* is whatever the owner recovers from — a
        ``SimSnapshot`` for the sim driver, a gateway state document
        for serve — saved through the atomic `repro.io` path.
        """
        directory = Path(directory)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValidationError(
                f"WAL path {directory} is not a directory") from None
        if wal_exists(directory):
            raise ValidationError(
                f"WAL directory {directory} already contains "
                f"segments; use resume")
        log = cls(directory, fsync=fsync, compact_every=compact_every)
        log._open_segment(0)
        log._write_checkpoint(state)
        return log

    @classmethod
    def resume(cls, directory, scan=None, *, fsync="batch:256",
               compact_every=0):
        """Reopen *directory* after a crash, truncating the torn tail.

        Only bytes that failed to decode are cut; every frame that
        scanned stays where it is, whatever its kind — deciding whose
        directory this is, and so whether to reopen it at all, is the
        caller's job *before* it calls this (see
        :mod:`repro.wal.recovery`).  Returns ``(log, scan)``.
        """
        directory = Path(directory)
        if scan is None:
            scan = scan_wal(directory)
        seq = scan.segments[-1][0]
        log = cls(directory, fsync=fsync, compact_every=compact_every)
        log._truncate_segment(seq, max(
            (r.end for r in scan.records if r.segment == seq), default=0))
        log.stats["recoveries"] = 1
        log.stats["torn_tail"] = scan.torn
        log.stats["discarded_bytes"] = scan.discarded_bytes
        checkpoint = scan.checkpoint()
        if checkpoint is not None:
            document = rec.decode_json(checkpoint.body, "checkpoint")
            log.checkpoint_period = int(document.get("period", 0))
        return log, scan

    def _open_segment(self, seq: int):
        """Start segment *seq* empty (genesis, or a roll)."""
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self.directory / segment_name(seq), "wb")
        self._seq = seq
        self._segment_size = 0
        self.stats["segments"] += 1

    def _truncate_segment(self, seq: int, size: int):
        """Open segment *seq* for append with exactly *size* bytes."""
        path = self.directory / segment_name(seq)
        with open(path, "rb+") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle = open(path, "ab")
        self._seq = seq
        self._segment_size = size
        self.stats["segments"] += 1

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.stats["fsyncs"] += 1
                self._handle.close()
                self._handle = None

    # -- appends ---------------------------------------------------------

    def _append(self, kind: int, body: bytes) -> bool:
        if self.suspended:
            return False
        with self._lock:
            if self._handle is None:
                raise ValidationError(
                    f"WAL {self.directory} is closed")
            if self._segment_size >= DEFAULT_SEGMENT_BYTES:
                self._roll_locked()
            frame = rec.encode_frame(kind, body)
            crashpoint(CP_APPEND_BEFORE_FRAME)
            self._handle.write(frame)
            self._handle.flush()
            self._segment_size += len(frame)
            self.stats["records"] += 1
            self.stats["appended_bytes"] += len(frame)
            self._unsynced += 1
            if self._fsync_mode == "always" or (
                    self._fsync_mode == "batch"
                    and self._unsynced >= self._fsync_every):
                os.fsync(self._handle.fileno())
                self.stats["fsyncs"] += 1
                self._unsynced = 0
            crashpoint(CP_APPEND_AFTER_FRAME)
        return True

    def _roll_locked(self):
        handle = self._handle
        handle.flush()
        os.fsync(handle.fileno())
        self.stats["fsyncs"] += 1
        self._unsynced = 0
        handle.close()
        self._handle = None
        self._open_segment(self._seq + 1)

    def append_period(self, *, period, events, revenue, queue=None) -> bool:
        """Log the settle receipt that makes *period* replay-checkable."""
        document = {"period": int(period), "events": int(events),
                    "revenue": float(revenue)}
        if queue is not None:
            document["queue"] = queue
        return self._append(rec.RECORD_PERIOD,
                            rec.encode_json(document))

    def append_op(self, document: dict) -> bool:
        """Log one acknowledged gateway mutation (submit/withdraw)."""
        return self._append(rec.RECORD_OP, rec.encode_json(document))

    # -- replay verification ---------------------------------------------

    def expect_replay(self, documents) -> None:
        """Queue the period receipts a suspended replay must match."""
        self._replay_expect = list(documents)

    def pending_replays(self) -> int:
        """Receipts queued by :meth:`expect_replay` not yet verified."""
        return len(self._replay_expect)

    def verify_replay(self, *, period, events, revenue, queue=None,
                      origin="replay") -> None:
        """Check replayed state against the next expected receipt.

        Called from the same code path that wrote the original record
        (the driver's settle hook, with the log suspended), so the
        comparison happens at the exact lifecycle point the receipt
        captured — not after the event loop has drained past it.
        """
        if not self._replay_expect:
            return
        document = self._replay_expect.pop(0)
        check_receipt(document, period=period, events=events,
                      revenue=revenue, queue=queue, origin=origin)

    def sync(self):
        """Flush + fsync the active segment regardless of policy."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self.stats["fsyncs"] += 1
                self._unsynced = 0

    # -- compaction ------------------------------------------------------

    def due_for_compaction(self, period: int) -> bool:
        if self.compact_every <= 0 or self.suspended:
            return False
        return int(period) - self.checkpoint_period >= self.compact_every

    def compact(self, state, period: int):
        """Fold the log prefix into a snapshot and prune behind it.

        Ordering is the whole point: snapshot durably on disk *before*
        the checkpoint record that names it, checkpoint durably in the
        log *before* anything older disappears.  Each gap between the
        steps carries a crashpoint so the kill-matrix proves a crash
        there still recovers.
        """
        from repro.io import save_sim_snapshot

        period = int(period)
        crashpoint(CP_COMPACT_BEFORE_SNAPSHOT)
        path = self.directory / snapshot_name(period)
        save_sim_snapshot(state, path)
        crashpoint(CP_COMPACT_AFTER_SNAPSHOT)
        with self._lock:
            self._roll_locked()
        self._write_checkpoint_record(path.name, period)
        crashpoint(CP_COMPACT_AFTER_CHECKPOINT)
        self._prune(period)
        crashpoint(CP_COMPACT_AFTER_PRUNE)
        self.stats["compactions"] += 1
        self.checkpoint_period = period

    def _write_checkpoint(self, state):
        """Genesis: snapshot + checkpoint record in the empty log."""
        from repro.io import save_sim_snapshot

        path = self.directory / snapshot_name(0)
        save_sim_snapshot(state, path)
        self._write_checkpoint_record(path.name, 0)

    def _write_checkpoint_record(self, snapshot: str, period: int):
        document = {"period": int(period), "snapshot": str(snapshot)}
        self._append(rec.RECORD_CHECKPOINT, rec.encode_json(document))
        self.sync()

    def _prune(self, period: int):
        for seq, path in list_segments(self.directory):
            if seq < self._seq:
                path.unlink()
        for snap_period, path in list_snapshots(self.directory):
            if snap_period < period:
                path.unlink()
        # Orphaned temp files from an interrupted atomic save are
        # dead weight once a later checkpoint landed — sweep them.
        for path in self.directory.glob("*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass

    # -- introspection ---------------------------------------------------

    def stats_snapshot(self) -> dict:
        snapshot = dict(self.stats)
        snapshot["fsync_policy"] = self.fsync_policy
        snapshot["segment"] = self._seq
        snapshot["segment_bytes"] = self._segment_size
        snapshot["checkpoint_period"] = self.checkpoint_period
        snapshot["compact_every"] = self.compact_every
        snapshot["suspended"] = self.suspended
        records = snapshot["records"]
        snapshot["fsyncs_per_record"] = (
            round(snapshot["fsyncs"] / records, 6) if records else 0.0)
        return snapshot

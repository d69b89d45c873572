"""Durable write-ahead event log + crash recovery.

``repro.wal`` makes long-horizon sim and serve runs crash-recoverable
with exactly-once billing: every settle's receipt and every
acknowledged gateway mutation is framed (CRC32, length-prefixed) into
segmented log files before the run moves on, periodic compaction folds
the log prefix into a ``repro/sim-snapshot`` envelope, and recovery
replays the surviving tail through the same deterministic event loop —
torn trailing writes are detected and discarded, and the resumed run
is byte-identical to the uninterrupted one (the fault-injection matrix
in ``tests/wal`` proves it with real ``kill -9``\\ s at every
registered crashpoint).  The log holds exactly what a recovery reads,
and a directory is replayed by the runtime that wrote it (sim or
gateway) or refused as found.

Layers:

* :mod:`repro.wal.records` — frame codec over canonical JSON bodies;
* :mod:`repro.wal.log` — segments, fsync policies, compaction,
  torn-tail truncation;
* :mod:`repro.wal.recovery` — owner check, snapshot + tail replay
  with receipt verification;
* :mod:`repro.wal.crashpoints` — the named fault-injection points.
"""

from repro.wal.crashpoints import (
    arm,
    arm_from_env,
    crashpoint,
    disarm,
    registered_crashpoints,
    set_crash_handler,
)
from repro.wal.log import (
    DEFAULT_SEGMENT_BYTES,
    WalRecord,
    WalScan,
    WriteAheadLog,
    list_segments,
    list_snapshots,
    scan_wal,
    segment_name,
    snapshot_name,
    wal_exists,
)
from repro.wal.records import (
    RECORD_CHECKPOINT,
    RECORD_OP,
    RECORD_PERIOD,
    FrameError,
    decode_frame,
    encode_frame,
)
from repro.wal.groupcommit import GroupCommitter
from repro.wal.recovery import (
    gateway_wal_state,
    recover_gateway_backend,
    recover_sim_driver,
)

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "FrameError",
    "GroupCommitter",
    "RECORD_CHECKPOINT",
    "RECORD_OP",
    "RECORD_PERIOD",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "arm",
    "arm_from_env",
    "crashpoint",
    "decode_frame",
    "disarm",
    "encode_frame",
    "gateway_wal_state",
    "list_segments",
    "list_snapshots",
    "recover_gateway_backend",
    "recover_sim_driver",
    "registered_crashpoints",
    "scan_wal",
    "segment_name",
    "set_crash_handler",
    "snapshot_name",
    "wal_exists",
]

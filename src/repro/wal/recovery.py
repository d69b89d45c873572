"""Crash recovery: latest snapshot + log-tail replay, verified.

Both recoveries open a directory the same way (:func:`_open_wal`) —
scan it, load the snapshot the newest surviving checkpoint names,
decide *whose* directory it is from what that snapshot is, and only
then reopen it for append, which truncates the torn tail.  A directory
the other runtime wrote is refused as found: nothing in it is cut,
because every record in it is somebody's acknowledged data.  The tail
records then replay *through the same deterministic machinery that
produced them*:

* the sim driver regenerates every arrival from its snapshotted RNG
  streams — which is why its log holds receipts and no arrivals — so a
  ``PERIOD`` record replays as one ``driver.run(1)`` call; the
  record's receipt (period index, events processed, cumulative
  revenue, queue composition) is then *checked* against the re-run,
  and any mismatch is a hard
  :class:`~repro.utils.validation.ValidationError` rather than a
  silently different result;
* the gateway's mutations are externally driven, so its ``OP`` records
  replay by re-applying each acknowledged submit/withdraw to the
  restored backend, and its ``PERIOD`` records by re-running the
  settle, with the same receipt checks.

While a replay is running the log is ``suspended``: the driver and
gateway code paths still call their append hooks, but nothing is
re-logged — replaying must not grow the log it replays.
"""

from __future__ import annotations

from pathlib import Path

from repro.utils.validation import ValidationError
from repro.wal import records as rec
from repro.wal.log import (
    WriteAheadLog,
    check_receipt,
    list_snapshots,
    scan_wal,
)


def _open_wal(directory, owner: str, **policy):
    """Scan, load the base state, check the owner, then resume.

    The base state is the snapshot the newest checkpoint record names;
    a log whose genesis checkpoint was torn away falls back to the
    newest snapshot file on disk (saved atomically, so it is complete
    if it exists at all).  *owner* is ``"sim"`` or ``"gateway"``: a
    gateway snapshots a state document, a sim driver a
    :class:`~repro.sim.SimSnapshot`.  Returns ``(state, log, scan)``.
    """
    from repro.io import load_sim_snapshot

    directory = Path(directory)
    scan = scan_wal(directory)
    checkpoint = scan.checkpoint()
    if checkpoint is not None:
        document = rec.decode_json(checkpoint.body, "checkpoint")
        path = directory / str(document.get("snapshot", ""))
        if not path.is_file():
            raise ValidationError(
                f"WAL checkpoint names missing snapshot {path}")
    else:
        snapshots = list_snapshots(directory)
        if not snapshots:
            raise ValidationError(
                f"WAL {directory} has no checkpoint record and no "
                f"snapshot files; nothing to recover from")
        period, path = snapshots[-1]
    state = load_sim_snapshot(path)
    writer = "gateway" if isinstance(state, dict) else "sim"
    if writer != owner:
        raise ValidationError(
            f"WAL directory {directory} was written by a {writer} run "
            f"and only a {writer} run can replay it; this {owner} run "
            f"left it untouched")
    log, scan = WriteAheadLog.resume(directory, scan, **policy)
    if checkpoint is None:
        log.checkpoint_period = period
    return state, log, scan


def recover_sim_driver(directory, *, fsync="batch:256", compact_every=0):
    """Rebuild a :class:`~repro.sim.SimulationDriver` from its WAL.

    Returns ``(driver, log)`` with the log attached to the driver and
    open for append — the caller just keeps calling ``driver.run``.
    """
    from repro.sim.driver import SimulationDriver

    snapshot, log, scan = _open_wal(
        directory, "sim", fsync=fsync, compact_every=compact_every)
    driver = SimulationDriver.restore(snapshot)
    driver.attach_wal(log)
    tail = scan.tail()
    documents = [rec.decode_json(record.body, "period")
                 for record in tail]
    log.suspended = True
    log.expect_replay(documents)
    try:
        for _ in documents:
            driver.run(1)
    finally:
        log.suspended = False
    if log.pending_replays():
        raise ValidationError(
            f"WAL replay of {directory} stopped with "
            f"{log.pending_replays()} period record(s) unverified")
    log.stats["replayed"] = len(tail)
    return driver, log


def recover_gateway_backend(directory, backend, *, fsync="batch:256",
                            compact_every=0):
    """Rebuild a gateway *backend*'s state from its WAL, in place.

    *backend* is the freshly constructed
    :class:`~repro.serve.gateway.DriverBackend` /
    :class:`~repro.serve.gateway.HostBackend` the gateway was started
    with; its driver or its federation (``backend.cluster``) is
    replaced by the recovered one (an unknown host kind is refused),
    then the tail of acknowledged ops and settles is re-applied.
    Returns the open :class:`WriteAheadLog`.
    """
    from repro.cluster.federation import FederatedAdmissionService
    from repro.io import serve_request_from_dict
    from repro.sim.driver import SimulationDriver

    state, log, scan = _open_wal(
        directory, "gateway", fsync=fsync, compact_every=compact_every)
    if "consumed" in state:
        raise ValidationError(
            f"WAL {directory} was written by a build that has the "
            f"multi-worker front-end; its acknowledged ops are in the "
            f"stripe-NN/ logs beside it, which this build does not "
            f"read — recover it with the build that wrote it")
    kind = state.get("kind")
    if kind == "driver":
        if not hasattr(backend, "driver"):
            raise ValidationError(
                f"WAL {directory} was written by a driver-backed "
                f"gateway; this backend is "
                f"{type(backend).__name__}")
        backend.driver = SimulationDriver.restore(state["snapshot"])
        backend._inbox.clear()
    elif kind == "host":
        if not hasattr(backend, "cluster"):
            raise ValidationError(
                f"WAL {directory} was written by a host-backed "
                f"gateway; this backend is {type(backend).__name__}")
        backend.cluster = FederatedAdmissionService.from_host_state(
            state["host_kind"], state["host"])
    else:
        raise ValidationError(
            f"unknown gateway WAL state kind {kind!r}")
    backend.last_report = None
    tail = scan.tail()
    log.suspended = True
    try:
        for record in tail:
            if record.kind == rec.RECORD_OP:
                document = rec.decode_json(record.body, "op")
                request = serve_request_from_dict(document)
                if request.op in ("submit", "subscribe"):
                    backend.submit(request.query,
                                   category=request.category)
                else:
                    backend.withdraw(request.query_id)
            else:
                document = rec.decode_json(record.body, "period")
                backend.tick()
                check_receipt(
                    document, period=backend.period,
                    events=(backend.driver.events_processed
                            if hasattr(backend, "driver") else 0),
                    revenue=backend.total_revenue(), queue=None,
                    origin="gateway replay")
    finally:
        log.suspended = False
    log.stats["replayed"] = len(tail)
    return log


def gateway_wal_state(backend) -> dict:
    """The state document a gateway WAL snapshots at checkpoints.

    Called only when the backend's inbox is settled (gateways compact
    immediately after a tick), so pending submissions never need to
    ride the snapshot — they are either in the driver state already or
    replayed from ``OP`` records.
    """
    if hasattr(backend, "driver"):
        if getattr(backend, "_inbox", None):
            raise ValidationError(
                "cannot checkpoint a gateway backend with queued "
                "submissions; settle the inbox first")
        return {"kind": "driver", "snapshot": backend.driver.snapshot()}
    host_kind, host = backend.cluster.host_state()
    return {"kind": "host", "host_kind": host_kind, "host": host}

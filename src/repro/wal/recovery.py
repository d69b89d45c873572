"""Crash recovery: latest snapshot + log-tail replay, verified.

Both recoveries open a directory the same way (:func:`_open_wal`) —
scan it, load the snapshot the newest surviving checkpoint names,
decide *whose* directory it is from what that snapshot is, restore
the driver or host it describes, and only then reopen it for append,
which truncates the torn tail.  A directory this run cannot replay is
refused as found: nothing in it is cut and no handle stays open,
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


def _open_wal(directory, owner: str, restore, **policy):
    """Scan, load the base state, restore it, then resume.

    The base state is the snapshot the newest checkpoint record names;
    a log whose genesis checkpoint was torn away falls back to the
    newest snapshot file on disk (saved atomically, so it is complete
    if it exists at all).  *owner* is ``"sim"`` or ``"gateway"``: a
    gateway snapshots a state document, a sim driver a
    :class:`~repro.sim.SimSnapshot`.  ``restore(state)`` rebuilds what
    the state describes, and raises for a state this run cannot
    replay — before :meth:`WriteAheadLog.resume` cuts a byte or opens
    a handle.  Returns ``(restored, log, scan)``.
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
    restored = restore(state)
    log, scan = WriteAheadLog.resume(directory, scan, **policy)
    if checkpoint is None:
        log.checkpoint_period = period
    return restored, log, scan


def recover_sim_driver(directory, *, fsync="batch:256", compact_every=0):
    """Rebuild a :class:`~repro.sim.SimulationDriver` from its WAL.

    Returns ``(driver, log)`` with the log attached to the driver and
    open for append — the caller just keeps calling ``driver.run``.
    A replay that fails closes the log before it raises.
    """
    from repro.sim.driver import SimulationDriver

    driver, log, scan = _open_wal(
        directory, "sim", SimulationDriver.restore,
        fsync=fsync, compact_every=compact_every)
    driver.attach_wal(log)
    tail = scan.tail()
    log.suspended = True
    try:
        log.expect_replay([rec.decode_json(record.body, "period")
                           for record in tail])
        for _ in tail:
            driver.run(1)
        if log.pending_replays():
            raise ValidationError(
                f"WAL replay of {directory} stopped with "
                f"{log.pending_replays()} period record(s) unverified")
    except BaseException:
        log.close()
        raise
    finally:
        log.suspended = False
    log.stats["replayed"] = len(tail)
    return driver, log


def recover_gateway_backend(directory, backend, *, fsync="batch:256",
                            compact_every=0):
    """Rebuild a gateway *backend*'s state from its WAL, in place.

    *backend* is the freshly constructed
    :class:`~repro.serve.gateway.DriverBackend` /
    :class:`~repro.serve.gateway.HostBackend` the gateway was started
    with; its driver or its federation (``backend.cluster``) is
    replaced by the recovered one (a state this backend cannot take is
    refused), then the tail of acknowledged ops and settles is
    re-applied; a replay that fails closes the log before it raises.
    Returns the open :class:`WriteAheadLog`.
    """
    from repro.cluster.federation import FederatedAdmissionService
    from repro.io import serve_request_from_dict
    from repro.sim.driver import SimulationDriver

    def restore(state):
        if "consumed" in state:
            raise ValidationError(
                f"WAL {directory} was written by a build that has the "
                f"multi-worker front-end; its acknowledged ops are in "
                f"the stripe-NN/ logs beside it, which this build does "
                f"not read — recover it with the build that wrote it")
        kind = state.get("kind")
        if kind == "driver":
            if not hasattr(backend, "driver"):
                raise ValidationError(
                    f"WAL {directory} was written by a driver-backed "
                    f"gateway; this backend is "
                    f"{type(backend).__name__}")
            return SimulationDriver.restore(state["snapshot"])
        if kind == "host":
            if not hasattr(backend, "cluster"):
                raise ValidationError(
                    f"WAL {directory} was written by a host-backed "
                    f"gateway; this backend is {type(backend).__name__}")
            return FederatedAdmissionService.from_host_state(
                state["host_kind"], state["host"])
        raise ValidationError(
            f"unknown gateway WAL state kind {kind!r}")

    restored, log, scan = _open_wal(
        directory, "gateway", restore,
        fsync=fsync, compact_every=compact_every)
    if hasattr(backend, "driver"):
        backend.driver = restored
        backend._inbox.clear()
    else:
        backend.cluster = restored
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
    except BaseException:
        log.close()
        raise
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

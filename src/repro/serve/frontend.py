"""Multi-process gateway front-end: pre-fork workers over one port.

One :class:`GatewaySupervisor` (the parent process) binds the public
listening socket — ``SO_REUSEPORT`` when the kernel offers it, a single
shared inherited socket otherwise — plus one loopback *control* socket
per worker, then forks ``N`` :class:`WorkerGateway` processes that all
accept on the public port.  The parent keeps every socket open so a
crashed worker can be respawned onto the very same file descriptors.

Scaling without a cross-process lock comes from *shard affinity*:
:class:`~repro.cluster.affinity.ShardAffinityMap` reproduces the
federation's consistent-hash placement bit-for-bit and partitions the
shards into contiguous per-worker groups.  Every mutating request
routes (by its client key, forwarded over the control plane when it
arrives at the wrong worker) to the one worker owning its shard — so
each worker buffers its shards' submissions in arrival order with no
coordination on the hot path.

Settles stay single-writer: worker 0 is the *coordinator* and holds
the only authoritative federation.  ``/v1/tick`` (forwarded there by
the others) drains every worker's buffer over the control plane in
worker order, applies the ops, runs the ordinary settle, and pushes
the resulting report to the other workers' response caches — the
merged report is byte-identical to the same submissions made through
a single-process gateway, or in-process.

Durability is *striped*: each worker appends its acked mutations to
its own WAL stripe (``stripe-NN/`` under the shared ``wal_dir``,
group-committed when configured) and the coordinator's main log
records each settle with a per-stripe ``consumed`` high-water mark.
:func:`~repro.wal.recovery.recover_striped_gateway` merges the stripes
deterministically by those marks; ops past the last mark are exactly
the workers' unsettled buffers, which each worker reloads from its own
stripe on respawn.  A worker killed mid-request therefore loses
nothing that was acknowledged, and re-delivered ops are dropped by the
federation's duplicate check — live and during replay alike.

Stripe logs are append-only for now: compaction of a stripe must be
coordinated with the main log's checkpoints (a stripe may only drop
ops below every checkpoint's consumed mark), which is left as a
follow-on; the 8 MiB segment roll keeps individual files bounded.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.affinity import ShardAffinityMap, affinity_key
from repro.io import (
    serve_request_from_dict,
    serve_request_to_dict,
    serve_response_to_dict,
)
from repro.serve import http
from repro.serve.gateway import (
    _RID_PREFIX,
    _RID_SENTINEL,
    _RID_TOKEN,
    AdmissionGateway,
    GatewayConfig,
    HostBackend,
    RawBody,
    _validate_streams,
    make_backend,
    report_document,
)
from repro.serve.http import HttpError, HttpRequest
from repro.utils.validation import ValidationError, require
from repro.wal.crashpoints import arm_from_env, crashpoint, disarm, register

#: Worker index that owns the federation and runs every settle.
COORDINATOR = 0

CP_FRONTEND_BEFORE_PERIOD = register("frontend.tick.before-period-record")
CP_FRONTEND_AFTER_PERIOD = register("frontend.tick.after-period-record")
CP_FRONTEND_DRAIN_SYNCED = register("frontend.drain.after-sync")

#: Headers the control plane uses.  ``x-affinity-key`` lets the entry
#: worker route without decoding the body; ``x-repro-forwarded`` marks
#: a relayed request so a routing disagreement 400s instead of looping.
AFFINITY_HEADER = "x-affinity-key"
FORWARDED_HEADER = "x-repro-forwarded"


def stripe_directory(wal_dir, worker: int) -> Path:
    """Worker *worker*'s WAL stripe under the shared *wal_dir*."""
    return Path(wal_dir) / f"stripe-{int(worker):02d}"


@dataclass(frozen=True)
class FrontendConfig:
    """The supervisor's knobs, wrapping one shared
    :class:`~repro.serve.gateway.GatewayConfig` for every worker."""

    workers: int = 2
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    #: How long a spawned worker may take to answer its ready probe.
    ready_timeout: float = 15.0
    #: Respawn workers that die (the crash-recovery path); off leaves
    #: the corpse for a test to inspect.
    respawn: bool = True
    #: Crash-detection poll interval, seconds.
    monitor_interval: float = 0.05
    #: How long a SIGTERMed worker gets to drain before SIGKILL.
    term_timeout: float = 10.0

    def __post_init__(self) -> None:
        require(int(self.workers) >= 1, "workers must be >= 1")
        require(self.ready_timeout > 0, "ready_timeout must be positive")
        require(self.monitor_interval > 0,
                "monitor_interval must be positive")
        require(self.term_timeout > 0, "term_timeout must be positive")


class PeerPool:
    """Pooled keep-alive connections to the other workers' control
    ports.  Stale pooled connections are discarded and retried; a
    fresh connection gets no retry, because its failure may mean the
    peer executed the (non-idempotent) request before dying."""

    def __init__(self, host: str, ports) -> None:
        self.host = host
        self.ports = list(ports)
        self._idle: dict[int, list] = {}

    async def _acquire(self, worker: int):
        pool = self._idle.setdefault(worker, [])
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing():
                return reader, writer, True
            writer.close()
        reader, writer = await asyncio.open_connection(
            self.host, self.ports[worker])
        return reader, writer, False

    def _release(self, worker: int, reader, writer) -> None:
        if writer.is_closing():
            writer.close()
            return
        self._idle.setdefault(worker, []).append((reader, writer))

    async def roundtrip(self, worker: int, payload: bytes):
        while True:
            reader, writer, reused = await self._acquire(worker)
            try:
                writer.write(payload)
                await writer.drain()
                response = await http.read_response(
                    reader, max_body=64 << 20)
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.IncompleteReadError, OSError):
                # Only a *reused* keep-alive connection earns a retry:
                # its death just means the pooled connection went
                # stale while idle.  A fresh connection that dies
                # mid-exchange may have delivered the request to a
                # peer that executed it before crashing — re-sending
                # would duplicate a non-idempotent relay (a tick
                # settles twice), so the failure must propagate.
                writer.close()
                if not reused:
                    raise
                continue
            if response is None:    # stale keep-alive: clean EOF
                writer.close()
                if not reused:
                    raise ConnectionResetError(
                        f"worker {worker} closed the control "
                        f"connection")
                continue
            self._release(worker, reader, writer)
            return response

    async def forward(self, worker: int, request: HttpRequest,
                      client: str, key: "str | None" = None):
        """Relay *request* verbatim to *worker*'s control port."""
        headers = {"x-client-id": client, FORWARDED_HEADER: "1"}
        if key is not None:
            headers[AFFINITY_HEADER] = key
        payload = http.render_request(
            request.method, request.target, request.body,
            headers=headers)
        return await self.roundtrip(worker, payload)

    async def post_json(self, worker: int, path: str, document: dict):
        payload = http.render_request(
            "POST", path, http.json_body(document))
        response = await self.roundtrip(worker, payload)
        return response.status, (response.json()
                                 if response.body else {})

    async def get_json(self, worker: int, target: str):
        payload = http.render_request("GET", target)
        response = await self.roundtrip(worker, payload)
        return response.status, (response.json()
                                 if response.body else {})

    async def close(self) -> None:
        for pool in self._idle.values():
            for _reader, writer in pool:
                writer.close()
                with contextlib.suppress(Exception,
                                         asyncio.CancelledError):
                    await writer.wait_closed()
        self._idle.clear()


class WorkerGateway(AdmissionGateway):
    """One pre-forked front-end worker.

    Every worker builds its own federation from the shared factory,
    but only the coordinator's copy ever advances — the others use
    theirs for request validation and for deriving the (identical)
    affinity map.  Mutations the worker owns are buffered locally as
    ``(seq, request document, query id)`` and appended to the worker's
    WAL stripe before the 200 goes out; the coordinator drains the
    buffers at each settle.
    """

    def __init__(self, target: object,
                 config: "GatewayConfig | None" = None, *,
                 index: int, num_workers: int, control_ports,
                 log=None) -> None:
        super().__init__(target, config, log)
        if not isinstance(self.backend, HostBackend):
            raise ValidationError(
                "the multi-process front-end serves a federation "
                "host backend only; simulation drivers and "
                "subscriptions are single-process")
        cluster = getattr(self.backend.host, "cluster", None)
        if cluster is None:
            raise ValidationError(
                "the multi-process front-end needs a federated "
                "(multi-shard) admission service")
        self.index = int(index)
        self.num_workers = int(num_workers)
        require(0 <= self.index < self.num_workers,
                "worker index out of range")
        self.affinity = ShardAffinityMap.for_cluster(
            cluster, self.num_workers)
        self._shards = self.affinity.shards_of_worker(self.index)
        self._peers = PeerPool("127.0.0.1", control_ports)
        #: Unsettled acked mutations: (seq, request document, query id).
        self._buffer: list = []
        self._buffer_ids: set = set()
        self._next_seq = 1
        self._stripe = None
        self._stripe_path: "Path | None" = None
        #: Coordinator only: stripe index -> highest settled seq.
        self._consumed = {worker: 0
                          for worker in range(self.num_workers)}
        #: Coordinator only: buffers handed off by draining workers.
        self._handoffs: dict[int, tuple] = {}
        #: Last settled (period, revenue, report) pushed from the
        #: coordinator; what /v1/report serves on non-coordinators.
        self._cluster_view: "dict | None" = None
        self._control_server = None
        self._ready = False

    @property
    def is_coordinator(self) -> bool:
        return self.index == COORDINATOR

    # -- lifecycle -----------------------------------------------------

    async def start_worker(self, public_sock, control_sock):
        """Recover/initialise durability, then listen on the inherited
        sockets.  The parent's ready probe connects to *control_sock*;
        it stays unanswered (connection refused — the parent binds but
        never listens) until this method has finished, so "accepting"
        means "recovered and ready"."""
        require(self._server is None, "the worker is already started")
        if self.config.wal_dir:
            await self._start_durability()
        self._backend_stats()       # prime the open-tier snapshot
        self._control_server = await asyncio.start_server(
            self._handle_control_connection, sock=control_sock)
        self._server = await asyncio.start_server(
            self._handle_connection, sock=public_sock)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._ready = True
        if self.config.tick_interval and self.is_coordinator:
            self._tick_task = asyncio.create_task(self._auto_tick())
        if self.is_coordinator and self._recovered_from_wal:
            await self._nudge_peers_after_recovery()
        self.log.log("worker_listening", worker=self.index,
                     role=self._role(), port=self.port,
                     shards=[self._shards.start, self._shards.stop],
                     buffered=len(self._buffer),
                     recovered=self._recovered_from_wal or None)
        return self

    async def _start_durability(self) -> None:
        from repro.wal import GroupCommitter, WriteAheadLog, wal_exists
        from repro.wal.recovery import (
            recover_striped_gateway,
            resume_stripe,
        )

        root = Path(self.config.wal_dir)
        if self.is_coordinator:
            if wal_exists(root):
                self._wal, consumed = recover_striped_gateway(
                    root, self.backend,
                    fsync=self._wal_fsync_policy(),
                    compact_every=self.config.compact_every)
                self._consumed.update(consumed)
                self._recovered_from_wal = True
                self._replayed_records = self._wal.stats.get(
                    "replayed", 0)
                self._settle_generation += 1
                self._cluster_view = {
                    "period": self.backend.period,
                    "revenue": self.backend.total_revenue(),
                    "report": report_document(
                        self.backend.last_report),
                }
                self.log.log("worker_recovered", worker=self.index,
                             period=self.backend.period,
                             replayed=self._replayed_records,
                             consumed=dict(self._consumed))
            else:
                self._wal = WriteAheadLog.create(
                    root, self._frontend_wal_state(),
                    fsync=self._wal_fsync_policy(),
                    compact_every=self.config.compact_every)
        path = stripe_directory(root, self.index)
        if wal_exists(path):
            self._stripe, ops, self._next_seq = resume_stripe(
                path, fsync=self._wal_fsync_policy())
        else:
            self._stripe = WriteAheadLog.create(
                path, {"kind": "stripe", "worker": self.index,
                       "seq": 0},
                fsync=self._wal_fsync_policy())
            ops = []
        self._stripe_path = path
        if self.config.wal_group_commit:
            self._committer = GroupCommitter(
                self._stripe, window=self.config.wal_group_window)
        if self.is_coordinator:
            self._rebuild_buffer(
                ops, self._consumed.get(COORDINATOR, 0))
        elif ops:
            high = await self._fetch_consumed_with_retry()
            self._rebuild_buffer(ops, high)

    async def _fetch_consumed_with_retry(self) -> int:
        """Ask the coordinator how far this stripe has been settled.

        Holds the coordinator's service lock server-side, so the
        answer can never be a mid-settle snapshot — a respawned worker
        either reloads ops a finished settle excluded, or ops an
        unfinished one will re-receive (and deterministically drop as
        duplicates)."""
        deadline = time.monotonic() + max(
            self.config.slow_timeout, 1.0)
        while True:
            try:
                status, document = await asyncio.wait_for(
                    self._peers.get_json(
                        COORDINATOR,
                        f"/internal/consumed?stripe={self.index}"),
                    self.config.fast_timeout)
                if status == 200:
                    return int(document["hw"])
            except (HttpError, OSError, ValidationError,
                    asyncio.TimeoutError):
                pass
            if time.monotonic() > deadline:
                raise ValidationError(
                    f"worker {self.index} could not learn its "
                    f"consumed high-water mark from the coordinator")
            await asyncio.sleep(0.05)

    async def _nudge_peers_after_recovery(self) -> None:
        """After a coordinator respawn, surviving workers may have
        drained ops whose settle never became durable — tell each to
        rebuild its buffer from its stripe above the recovered mark,
        and push the recovered report so their caches match."""
        for worker in range(self.num_workers):
            if worker == self.index:
                continue
            with contextlib.suppress(HttpError, OSError,
                                     ValidationError,
                                     asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._peers.post_json(
                        worker, "/internal/reload",
                        {"hw": self._consumed.get(worker, 0)}),
                    self.config.fast_timeout)
        await self._push_cluster_view()

    async def stop_worker(self) -> None:
        """Graceful drain: forwarders hand their unsettled buffer to
        the coordinator; the coordinator runs one final settle."""
        if self._stopped:
            return
        self._draining = True
        self._ready = False
        if self._tick_task is not None:
            self._tick_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tick_task
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        try:
            if self.is_coordinator:
                handed = any(ops for _, ops in self._handoffs.values())
                if (self._buffer or handed
                        or self.backend.pending_count()):
                    await self._coordinator_tick("shutdown")
            else:
                async with self._service_lock("shutdown", "handoff"):
                    high, ops = await self._drain_local_locked()
                if ops or high:
                    with contextlib.suppress(HttpError, OSError,
                                             ValidationError,
                                             asyncio.TimeoutError):
                        await asyncio.wait_for(
                            self._peers.post_json(
                                COORDINATOR, "/internal/handoff",
                                {"worker": self.index, "hw": high,
                                 "ops": [[seq, document]
                                         for seq, document in ops]}),
                            self.config.fast_timeout)
        except Exception as exc:  # noqa: BLE001 - shutdown proceeds
            self.log.log("final_settle_failed", level="error",
                         worker=self.index, error=repr(exc))
        if self._committer is not None:
            with contextlib.suppress(Exception):
                await self._committer.close()
        for log in (self._stripe, self._wal):
            if log is not None:
                log.sync()
        for server in (self._server, self._control_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        while self._connections:
            await asyncio.sleep(0.005)
        await self._peers.close()
        for log in (self._stripe, self._wal):
            if log is not None:
                log.close()
        self._stopped = True
        self.log.log("worker_stopped", worker=self.index,
                     forwarded=self.counters["forwarded"])
        if self._owns_log:
            self.log.close()

    # -- striped durability --------------------------------------------

    def _frontend_wal_state(self, consumed=None) -> dict:
        from repro.wal.recovery import gateway_wal_state

        state = gateway_wal_state(self.backend)
        state["consumed"] = {
            str(stripe): int(seq) for stripe, seq
            in sorted((consumed or self._consumed).items())}
        return state

    def _stripe_append(self, document: dict):
        """Append one acked op to this worker's stripe (under the
        service lock); returns the group-commit receipt to await after
        the lock is released, or ``None``."""
        self._mutations_acked += 1
        if self._stripe is None:
            return None
        if self._committer is not None:
            return self._committer.enqueue(
                self._stripe.append_op, document)
        self._stripe.append_op(document)
        return None

    def _rebuild_buffer(self, ops, high: int) -> None:
        """Rebuild the unsettled buffer from stripe *ops* above the
        consumed mark *high*, netting out logged withdraws."""
        self._buffer = []
        self._buffer_ids = set()
        for seq, document in ops:
            if seq <= high:
                continue
            request = serve_request_from_dict(document)
            if request.op == "withdraw":
                self._buffer = [entry for entry in self._buffer
                                if entry[2] != request.query_id]
                self._buffer_ids.discard(request.query_id)
            else:
                self._buffer.append(
                    (seq, document, request.query.query_id))
                self._buffer_ids.add(request.query.query_id)
        self._next_seq = max(
            [self._next_seq] + [seq + 1 for seq, _ in ops])

    def _scan_own_stripe(self):
        from repro.wal import scan_wal
        from repro.wal import records as rec

        ops = []
        scan = scan_wal(self._stripe_path)
        for record in scan.tail(keep_kinds=(rec.RECORD_OP,)):
            document = rec.decode_json(record.body, "op")
            ops.append((int(document["seq"]), document["request"]))
        ops.sort(key=lambda pair: pair[0])
        return ops

    async def _drain_local_locked(self):
        """Swap out the buffer, then make its stripe records durable.

        Swap-first is deliberate: every op in the swapped batch was
        appended before the swap, and a flush/sync covers all bytes
        appended before it — so nothing the settle consumes can be
        lost to a crash, while ops arriving during the fsync simply
        wait for the next drain."""
        ops = [(seq, document) for seq, document, _ in self._buffer]
        high = self._next_seq - 1
        self._buffer = []
        self._buffer_ids = set()
        if self._committer is not None:
            await self._committer.flush()
        elif self._stripe is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._stripe.sync)
        crashpoint(CP_FRONTEND_DRAIN_SYNCED)
        return high, ops

    # -- routing -------------------------------------------------------

    def _role(self) -> str:
        return "coordinator" if self.is_coordinator else "forwarder"

    def _relay_result(self, response) -> RawBody:
        headers = {}
        retry = response.headers.get("retry-after")
        if retry is not None:
            headers["Retry-After"] = retry
        return RawBody(response.body, status=response.status,
                       headers=headers)

    async def _relay(self, owner: int, request: HttpRequest,
                     key: "str | None" = None) -> RawBody:
        client = request.headers.get("x-client-id", "forwarded")
        try:
            response = await self._peers.forward(
                owner, request, client, key=key)
        except OSError as exc:
            raise HttpError(
                503, f"worker {owner} is unavailable ({exc}); "
                     f"retry shortly",
                retry_after=self.config.lock_patience) from exc
        self.counters["forwarded"] += 1
        return self._relay_result(response)

    def _reject_draining(self) -> None:
        if self._draining:
            raise HttpError(
                503, "worker is draining; resubmit shortly",
                retry_after=self.config.drain_timeout)

    # -- endpoint handlers ---------------------------------------------

    async def _handle_submit(self, request: HttpRequest,
                             request_id: str):
        forwarded = FORWARDED_HEADER in request.headers
        hinted = request.headers.get(AFFINITY_HEADER)
        if hinted is not None and not forwarded:
            owner = self.affinity.worker_of(hinted)
            if owner != self.index:
                return await self._relay(owner, request, key=hinted)
        parsed = self._parse_request(request)
        if parsed.op not in ("submit", "subscribe"):
            raise ValidationError(
                f"/v1/submit got a {parsed.op!r} request")
        if parsed.category is not None:
            raise ValidationError(
                "subscription categories need a simulation-driver "
                "backend, which is single-process; the multi-worker "
                "front-end takes plain submissions only")
        key = affinity_key(parsed.query)
        owner = self.affinity.worker_of(key)
        if owner != self.index:
            if forwarded:
                raise HttpError(
                    400, f"affinity key mismatch: worker "
                         f"{self.index} was forwarded {key!r}, "
                         f"which worker {owner} owns")
            return await self._relay(owner, request, key=key)
        shard = self.affinity.shard_of(key)
        async with self._service_lock(request_id, "submit"):
            self._reject_draining()
            query_id = parsed.query.query_id
            if query_id in self._buffer_ids:
                raise ValidationError(
                    f"query id {query_id!r} already submitted")
            _validate_streams(parsed.query, self.backend.services)
            document = serve_request_to_dict(parsed)
            seq = self._next_seq
            self._next_seq += 1
            self._buffer.append((seq, document, query_id))
            self._buffer_ids.add(query_id)
            receipt = self._stripe_append(
                {"seq": seq, "request": document})
            period = self._cluster_period()
            pending = len(self._buffer)
        if receipt is not None:
            await receipt
        return {"query_id": query_id, "shard": shard,
                "period": period, "pending": pending}

    async def _handle_withdraw(self, request: HttpRequest,
                               request_id: str):
        forwarded = FORWARDED_HEADER in request.headers
        hinted = request.headers.get(AFFINITY_HEADER)
        if hinted is not None and not forwarded:
            owner = self.affinity.worker_of(hinted)
            if owner != self.index:
                return await self._relay(owner, request, key=hinted)
        parsed = self._parse_request(request)
        if parsed.op != "withdraw":
            raise ValidationError(
                f"/v1/withdraw got a {parsed.op!r} request")
        query_id = parsed.query_id
        found = False
        async with self._service_lock(request_id, "withdraw"):
            position = next(
                (index for index, entry in enumerate(self._buffer)
                 if entry[2] == query_id), None)
            if position is not None:
                self._reject_draining()
                found = True
                del self._buffer[position]
                self._buffer_ids.discard(query_id)
                document = serve_request_to_dict(parsed)
                seq = self._next_seq
                self._next_seq += 1
                receipt = self._stripe_append(
                    {"seq": seq, "request": document})
                pending = len(self._buffer)
        if found:
            if receipt is not None:
                await receipt
            return {"query_id": query_id, "withdrawn": True,
                    "pending": pending}
        if not forwarded:
            # The submit-time key may have been an owner id, not the
            # query id — the query could be buffered anywhere.  Probe
            # the other workers before giving up.
            for worker in range(self.num_workers):
                if worker == self.index:
                    continue
                try:
                    response = await self._peers.forward(
                        worker, request,
                        request.headers.get("x-client-id",
                                            "forwarded"))
                except OSError:
                    continue
                if response.status == 404:
                    continue
                self.counters["forwarded"] += 1
                return self._relay_result(response)
        raise HttpError(
            404, f"unknown query id {query_id!r}; nothing to "
                 f"withdraw")

    async def _handle_report(self, request: HttpRequest,
                             request_id: str) -> RawBody:
        if self.is_coordinator:
            return await super()._handle_report(request, request_id)
        cache = self._report_cache
        if cache is None or cache[0] != self._settle_generation:
            cache = self._render_view_report_cache()
        return RawBody(b"".join(
            (cache[1], request_id.encode("ascii"), cache[2])))

    def _render_view_report_cache(self):
        view = self._cluster_view or {
            "period": 0, "revenue": 0.0, "report": None}
        body = http.json_body(serve_response_to_dict(
            "ok", _RID_SENTINEL,
            period=view["period"], revenue=view["revenue"],
            report=view["report"]))
        at = body.index(_RID_TOKEN)
        self._report_cache = (
            self._settle_generation,
            body[:at] + _RID_PREFIX,
            body[at + len(_RID_TOKEN) - 1:])
        return self._report_cache

    async def _handle_tick(self, request: HttpRequest,
                           request_id: str):
        if not self.is_coordinator:
            return await self._relay(COORDINATOR, request)
        report = await self._tick_locked(request_id)
        return {"period": self.backend.period,
                "report": report_document(report)}

    async def _tick_locked(self, request_id: str):
        if not self.is_coordinator:
            raise HttpError(
                409, "period ticks settle at the coordinator worker")
        # Shielded so a timed-out client cannot cancel the settle
        # between a peer drain and its consumed-mark record.
        task = asyncio.create_task(self._coordinator_tick(request_id))
        return await asyncio.shield(task)

    # -- the coordinated settle ----------------------------------------

    def _cluster_period(self) -> int:
        if self.is_coordinator:
            return self.backend.period
        view = self._cluster_view
        return int(view["period"]) if view else 0

    async def _coordinator_tick(self, request_id: str):
        async with self._service_lock(request_id, "tick"):
            batches: dict[int, list] = {}
            consumed_now = dict(self._consumed)
            own_high, own_ops = await self._drain_local_locked()
            batches[COORDINATOR] = own_ops
            consumed_now[COORDINATOR] = max(
                consumed_now.get(COORDINATOR, 0), own_high)
            for worker in range(self.num_workers):
                if worker == COORDINATOR:
                    continue
                ops: list = []
                high = consumed_now.get(worker, 0)
                try:
                    status, document = await asyncio.wait_for(
                        self._peers.post_json(
                            worker, "/internal/drain", {}),
                        self.config.fast_timeout)
                except (HttpError, OSError, ValidationError,
                        asyncio.TimeoutError) as exc:
                    # A dead worker's unsettled ops stay in its
                    # stripe; they settle after its respawn.
                    self.log.log("drain_skipped", level="warning",
                                 worker=worker, error=repr(exc))
                    status = None
                if status == 200:
                    ops = [(int(seq), document_op)
                           for seq, document_op in document["ops"]]
                    high = max(high, int(document["hw"]))
                elif status is not None:
                    self.log.log("drain_failed", level="warning",
                                 worker=worker, status=status)
                handed = self._handoffs.pop(worker, None)
                if handed is not None:
                    ops = ops + list(handed[1])
                    high = max(high, int(handed[0]))
                batches[worker] = sorted(ops,
                                         key=lambda pair: pair[0])
                consumed_now[worker] = high
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(
                None, self._settle_batches, batches, consumed_now)
            self._settle_generation += 1
        await self._push_cluster_view()
        return report

    def _settle_batches(self, batches, consumed_now):
        """Apply drained ops in worker order, settle, and record the
        period with its consumed marks (worker thread, lock held).
        This is the exact order striped replay reproduces."""
        dropped = 0
        for worker in sorted(batches):
            for seq, document in batches[worker]:
                request = serve_request_from_dict(document)
                try:
                    if request.op in ("submit", "subscribe"):
                        self.backend.submit(
                            request.query,
                            category=request.category)
                    else:
                        self.backend.withdraw(request.query_id)
                except ValidationError as exc:
                    # Duplicate re-delivery after a crash window, or
                    # a cross-worker duplicate id: drop, exactly as
                    # replay will.
                    dropped += 1
                    self.log.log("op_dropped", level="warning",
                                 worker=worker, seq=seq,
                                 error=str(exc))
        report = self.backend.tick()
        wal = self._wal
        if wal is not None and not wal.suspended:
            crashpoint(CP_FRONTEND_BEFORE_PERIOD)
            wal.append_period(
                period=self.backend.period, events=0,
                revenue=self.backend.total_revenue(), arrivals=0,
                consumed=consumed_now)
            wal.sync()
            crashpoint(CP_FRONTEND_AFTER_PERIOD)
            if wal.due_for_compaction(self.backend.period):
                wal.compact(self._frontend_wal_state(consumed_now),
                            self.backend.period)
        self._consumed = dict(consumed_now)
        if dropped:
            self.counters["ops_dropped"] += dropped
        self._cluster_view = {
            "period": self.backend.period,
            "revenue": self.backend.total_revenue(),
            "report": report_document(report),
        }
        return report

    async def _push_cluster_view(self) -> None:
        view = self._cluster_view
        if view is None or self.num_workers == 1:
            return
        payload = {"generation": self._settle_generation,
                   "view": view}
        for worker in range(self.num_workers):
            if worker == self.index:
                continue
            with contextlib.suppress(HttpError, OSError,
                                     ValidationError,
                                     asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._peers.post_json(
                        worker, "/internal/invalidate", payload),
                    self.config.fast_timeout)

    # -- the control plane ---------------------------------------------

    async def _handle_control_connection(self, reader,
                                         writer) -> None:
        """Loopback peer traffic: forwarded public requests (ungated —
        the entry worker already gated them) plus the /internal/*
        coordination endpoints."""
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await http.read_request(
                        reader, max_body=64 << 20)
                except HttpError as exc:
                    writer.write(self._render_error(
                        exc, "c000000", keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                if request.path.startswith("/internal/"):
                    payload, keep_alive = (
                        await self._respond_internal(request))
                else:
                    payload, keep_alive = await self._respond(
                        request, "control", gate=False)
                writer.write(payload)
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception,
                                     asyncio.CancelledError):
                await writer.wait_closed()

    async def _respond_internal(self, request: HttpRequest):
        routes = {
            "/internal/ready": self._control_ready,
            "/internal/drain": self._control_drain,
            "/internal/consumed": self._control_consumed,
            "/internal/invalidate": self._control_invalidate,
            "/internal/handoff": self._control_handoff,
            "/internal/reload": self._control_reload,
        }
        try:
            handler = routes.get(request.path)
            if handler is None:
                raise HttpError(
                    404, f"no such control endpoint "
                         f"{request.path!r}")
            document = await handler(request)
            status = 200
        except HttpError as exc:
            status, document = exc.status, {"error": exc.message}
        except ValidationError as exc:
            status, document = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the server stands
            status, document = 500, {
                "error": f"{type(exc).__name__}: {exc}"}
        keep_alive = request.keep_alive
        return (http.render_response(
            status, http.json_body(document),
            keep_alive=keep_alive), keep_alive)

    async def _control_ready(self, request: HttpRequest) -> dict:
        return {"ready": self._ready and not self._draining,
                "worker": self.index, "role": self._role(),
                "period": self._cluster_period()}

    async def _control_drain(self, request: HttpRequest) -> dict:
        if self.is_coordinator:
            raise HttpError(
                409, "the coordinator drains itself at settle")
        async with self._service_lock("internal", "drain"):
            high, ops = await self._drain_local_locked()
        return {"worker": self.index, "hw": high,
                "ops": [[seq, document] for seq, document in ops]}

    async def _control_consumed(self, request: HttpRequest) -> dict:
        if not self.is_coordinator:
            raise HttpError(
                409, "the consumed map lives at the coordinator")
        stripe = int(request.params.get("stripe", -1))
        # Under the service lock: a settle in flight has drained the
        # asker's predecessor already, so waiting it out returns the
        # post-settle mark, never a mid-settle one.
        async with self._service_lock("internal", "consumed"):
            high = int(self._consumed.get(stripe, 0))
        return {"stripe": stripe, "hw": high}

    async def _control_invalidate(self,
                                  request: HttpRequest) -> dict:
        document = request.json()
        view = document.get("view")
        if view is not None:
            self._cluster_view = view
        self._settle_generation += 1
        return {"worker": self.index}

    async def _control_handoff(self, request: HttpRequest) -> dict:
        if not self.is_coordinator:
            raise HttpError(
                409, "buffer handoff goes to the coordinator")
        document = request.json()
        worker = int(document["worker"])
        ops = [(int(seq), op)
               for seq, op in document.get("ops", [])]
        high = int(document.get("hw", 0))
        async with self._service_lock("internal", "handoff"):
            previous = self._handoffs.get(worker)
            if previous is not None:
                high = max(high, previous[0])
                ops = list(previous[1]) + ops
            self._handoffs[worker] = (high, ops)
        return {"worker": worker, "ops": len(ops)}

    async def _control_reload(self, request: HttpRequest) -> dict:
        document = request.json()
        high = int(document.get("hw", 0))
        async with self._service_lock("internal", "reload"):
            if self._stripe is not None:
                if self._committer is not None:
                    await self._committer.flush()
                else:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        None, self._stripe.sync)
                loop = asyncio.get_running_loop()
                ops = await loop.run_in_executor(
                    None, self._scan_own_stripe)
                self._rebuild_buffer(ops, high)
        return {"worker": self.index,
                "buffered": len(self._buffer)}

    # -- operational documents -----------------------------------------

    def health_document(self) -> dict:
        document = super().health_document()
        document["worker"] = self.index
        document["role"] = self._role()
        document["workers"] = self.num_workers
        document["buffered"] = len(self._buffer)
        if not self.is_coordinator:
            document["period"] = self._cluster_period()
        return document

    def metrics_document(self) -> dict:
        from repro.sim.metrics import wal_snapshot

        document = super().metrics_document()
        view = self._cluster_view
        if not self.is_coordinator and view is not None:
            document["period"] = view["period"]
            document["revenue"] = view["revenue"]
        document["frontend"] = {
            "worker": self.index,
            "workers": self.num_workers,
            "role": self._role(),
            "buffered": len(self._buffer),
            "forwarded": self.counters["forwarded"],
            "shard_range": [self._shards.start, self._shards.stop],
            "consumed": ({str(stripe): seq for stripe, seq
                          in sorted(self._consumed.items())}
                         if self.is_coordinator else None),
            "stripe": wal_snapshot(self._stripe),
        }
        return document


# ----------------------------------------------------------------------
# The pre-fork supervisor
# ----------------------------------------------------------------------


def _control_call(port: int, target: str,
                  timeout: float = 1.0) -> tuple[int, dict]:
    """One synchronous GET against a worker's control port (the
    parent's ready probe — the parent has no event loop)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall((f"GET {target} HTTP/1.1\r\nHost: control\r\n"
                      f"Content-Length: 0\r\n"
                      f"Connection: close\r\n\r\n").encode("latin-1"))
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, (json.loads(body) if body else {})


def _worker_main(factory, config: FrontendConfig, index: int,
                 public_sock, control_sock, control_ports,
                 crash_armed: bool) -> None:
    """Forked worker entry point: fresh loop, SIGTERM = drain."""
    if crash_armed:
        arm_from_env()
    else:
        # A respawned worker must not re-fire the crashpoint that
        # killed its predecessor (inherited via fork + environment).
        disarm()
    try:
        asyncio.run(_worker_async_main(
            factory, config, index, public_sock, control_sock,
            control_ports))
    except KeyboardInterrupt:   # pragma: no cover - interactive
        pass


async def _worker_async_main(factory, config: FrontendConfig,
                             index: int, public_sock, control_sock,
                             control_ports) -> None:
    gateway = WorkerGateway(
        factory(), config.gateway, index=index,
        num_workers=config.workers, control_ports=control_ports)
    closing = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, closing.set)
    await gateway.start_worker(public_sock, control_sock)
    try:
        await closing.wait()
    finally:
        await gateway.stop_worker()


class GatewaySupervisor:
    """Pre-fork parent: binds the sockets, forks the workers, respawns
    the dead, and rolls a graceful drain on stop.

    Usage::

        supervisor = GatewaySupervisor(factory, FrontendConfig(...))
        supervisor.start()          # returns once every worker is up
        ...                         # clients hit supervisor.address
        supervisor.stop()           # rolling drain, coordinator last

    *factory* is a zero-argument callable building the federation; it
    runs once in the parent (validation) and once per worker.  Only
    the coordinator's instance ever advances.
    """

    def __init__(self, factory,
                 config: "FrontendConfig | None" = None) -> None:
        self.factory = factory
        self.config = config or FrontendConfig()
        self.host = self.config.gateway.host
        self.port: "int | None" = None
        self.control_ports: list[int] = []
        self.reuseport = False
        self.respawns: Counter = Counter()
        self._public: list = []
        self._controls: list = []
        self._procs: dict = {}
        self._monitor: "threading.Thread | None" = None
        self._stop_event = threading.Event()
        self._started = False

    @property
    def address(self) -> tuple[str, int]:
        require(self.port is not None,
                "the supervisor is not started")
        return (self.host, self.port)

    def start(self) -> "GatewaySupervisor":
        require(not self._started, "the supervisor is already started")
        self._validate_factory()
        self._bind_sockets()
        self._started = True
        # Coordinator first: it recovers the shared WAL and must be
        # answering /internal/consumed before any other worker boots.
        self._spawn(COORDINATOR)
        self._await_ready(COORDINATOR)
        for index in range(1, self.config.workers):
            self._spawn(index)
        for index in range(1, self.config.workers):
            self._await_ready(index)
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="gateway-supervisor-monitor", daemon=True)
        self._monitor.start()
        return self

    def _validate_factory(self) -> None:
        """Fail multi-worker misconfiguration in the parent, where the
        error is visible, not in a forked child's stderr."""
        backend = make_backend(self.factory())
        if not isinstance(backend, HostBackend):
            raise ValidationError(
                "the multi-process front-end serves a federation "
                "host backend only; simulation drivers and "
                "subscriptions are single-process")
        cluster = getattr(backend.host, "cluster", None)
        if cluster is None:
            raise ValidationError(
                "the multi-process front-end needs a federated "
                "(multi-shard) admission service")
        ShardAffinityMap.for_cluster(cluster, self.config.workers)

    def _public_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        return sock

    def _bind_sockets(self) -> None:
        workers = self.config.workers
        first = self._public_socket()
        self.reuseport = (workers > 1
                          and hasattr(socket, "SO_REUSEPORT"))
        if self.reuseport:
            try:
                first.setsockopt(socket.SOL_SOCKET,
                                 socket.SO_REUSEPORT, 1)
            except OSError:
                self.reuseport = False
        first.bind((self.host, self.config.gateway.port))
        self.port = first.getsockname()[1]
        publics = [first]
        if self.reuseport:
            try:
                for _ in range(1, workers):
                    sock = self._public_socket()
                    sock.setsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEPORT, 1)
                    sock.bind((self.host, self.port))
                    publics.append(sock)
            except OSError:
                for sock in publics[1:]:
                    sock.close()
                publics = [first]
                self.reuseport = False
        if not self.reuseport:
            # Fd-inheritance fallback: every worker accepts on the
            # one shared listening socket (classic pre-fork).
            publics = [first] * workers
        self._public = publics
        self._controls = []
        self.control_ports = []
        for _ in range(workers):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET,
                            socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            self._controls.append(sock)
            self.control_ports.append(sock.getsockname()[1])

    def _spawn(self, index: int) -> None:
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(self.factory, self.config, index,
                  self._public[index], self._controls[index],
                  list(self.control_ports),
                  self.respawns[index] == 0),
            name=f"gateway-worker-{index}")
        process.start()
        self._procs[index] = process

    def _await_ready(self, index: int) -> None:
        deadline = time.monotonic() + self.config.ready_timeout
        while time.monotonic() < deadline:
            process = self._procs.get(index)
            if process is not None and not process.is_alive():
                raise ValidationError(
                    f"gateway worker {index} exited with code "
                    f"{process.exitcode} during startup")
            try:
                status, document = _control_call(
                    self.control_ports[index], "/internal/ready")
            except (OSError, ValueError):
                time.sleep(0.02)
                continue
            if status == 200 and document.get("ready"):
                return
            time.sleep(0.02)
        raise ValidationError(
            f"gateway worker {index} did not become ready within "
            f"{self.config.ready_timeout:g}s")

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.config.monitor_interval):
            for index in sorted(self._procs):
                if self._stop_event.is_set():
                    return
                process = self._procs[index]
                if process.is_alive():
                    continue
                process.join()
                if not self.config.respawn:
                    continue
                self.respawns[index] += 1
                self._spawn(index)
                with contextlib.suppress(ValidationError):
                    self._await_ready(index)

    def kill_worker(self, index: int,
                    sig: int = signal.SIGKILL) -> int:
        """Fault injection hook: deliver *sig* to worker *index*;
        returns the pid it was sent to."""
        process = self._procs[index]
        os.kill(process.pid, sig)
        return process.pid

    def worker_pid(self, index: int) -> int:
        return self._procs[index].pid

    def stop(self) -> None:
        """Rolling graceful drain: forwarders first (each hands its
        unsettled buffer to the coordinator), the coordinator last
        (one final settle), then the sockets close."""
        if not self._started:
            return
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.config.term_timeout)
            self._monitor = None
        for index in range(self.config.workers - 1, -1, -1):
            process = self._procs.get(index)
            if process is None:
                continue
            if process.is_alive():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(process.pid, signal.SIGTERM)
                process.join(timeout=self.config.term_timeout)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
        self._procs.clear()
        seen = set()
        for sock in self._public + self._controls:
            if id(sock) in seen:
                continue
            seen.add(id(sock))
            sock.close()
        self._public = []
        self._controls = []
        self._started = False

    def __enter__(self) -> "GatewaySupervisor":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.stop()

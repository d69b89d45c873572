"""The admission gateway: HTTP/JSON serving over any admission host.

The paper's mechanisms assume requests *arrive*; this module is the
front door they arrive through.  :class:`AdmissionGateway` wraps any
:class:`~repro.service.AdmissionService`,
:class:`~repro.cluster.FederatedAdmissionService`, or
:class:`~repro.sim.SimulationDriver` behind a plain HTTP/1.1 JSON API
(pure asyncio — no HTTP library needed):

=======================  ==============================================
``POST /v1/submit``      queue a query for the next auction period
``POST /v1/subscribe``   queue a categoried subscription request
``POST /v1/withdraw``    withdraw a not-yet-auctioned query
``GET  /v1/report``      the last period report + running revenue
``POST /v1/tick``        run one auction-period boundary now
``GET  /healthz``        liveness / drain state (never throttled)
``GET  /metrics``        queue depths, latencies, shed counts (ditto)
=======================  ==============================================

Load hardening, because admission control that falls over under load
would be a poor advertisement for admission control:

* per-client token buckets answer over-rate clients ``429`` with a
  precise ``Retry-After`` (:class:`~repro.serve.backpressure.TokenBucket`),
  with a per-peer-address floor beneath the client-chosen id and an
  LRU-bounded bucket table;
* a bounded in-flight gate sheds excess concurrency with ``503``;
* tiered timeouts — data-plane requests get ``fast_timeout``, the
  auction settle gets ``slow_timeout`` — turn stalls into ``504``;
* contention with an in-progress settle is retried server-side only
  while the :class:`~repro.serve.backpressure.RetryBudget` holds;
* shutdown drains in-flight requests, then runs one final settle so
  accepted-but-unauctioned submissions are not silently dropped;
* every request is logged (stderr + JSONL) with a request id, and
  credential-looking fields are redacted before they reach any sink.

The auction itself runs in a worker thread under ``asyncio.shield``
with the service lock released by a done-callback — a client whose
``/v1/tick`` times out mid-auction gets its ``504``, but the settle
still completes and the lock is released exactly once, when it does.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import itertools
import sys
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass

from repro.cluster.federation import FederatedAdmissionService
from repro.io import (
    serve_ok_body,
    serve_request_from_dict,
    serve_request_to_dict,
    serve_response_to_dict,
)
from repro.serve import http
from repro.serve.backpressure import RetryBudget, TokenBucket
from repro.serve.http import HttpError, HttpRequest
from repro.serve.logs import StructuredLog
from repro.sim.arrivals import ArrivalBlock, SelectPlan
from repro.sim.trace import require_select_plan
from repro.utils.validation import ValidationError, require
from repro.wal.crashpoints import crashpoint, register

CP_TICK_BEFORE_PERIOD = register("gateway.tick.before-period-record")
CP_TICK_AFTER_PERIOD = register("gateway.tick.after-period-record")


def report_document(report: object) -> "dict | None":
    """Any period report as a JSON-ready dict (``None`` passes through)."""
    from repro.cluster.reports import ClusterReport
    from repro.io import cluster_report_to_dict, report_to_dict
    from repro.service.reports import PeriodReport
    from repro.sim.driver import SimPeriodReport

    if report is None:
        return None
    if isinstance(report, ClusterReport):
        return cluster_report_to_dict(report)
    if isinstance(report, PeriodReport):
        return report_to_dict(report)
    if isinstance(report, SimPeriodReport):
        return {
            "period": report.period,
            "admitted": list(report.admitted),
            "rejected": list(report.rejected),
            "expired": list(report.expired),
            "renewed": list(report.renewed),
            "revenue": report.revenue,
            "reclaimed_capacity": report.reclaimed_capacity,
            "engine_ticks": report.engine_ticks,
            "engine_utilization": report.engine_utilization,
        }
    raise ValidationError(
        f"cannot serialize a {type(report).__name__} period report")


# ----------------------------------------------------------------------
# Backends: what the gateway serves
# ----------------------------------------------------------------------


def _validate_streams(query, services) -> None:
    """Fail unknown-stream plans at the front door.

    The engines check this again at settle time, but by then the
    submission was already acknowledged — the 400 belongs to the
    submitter, at submit.  Every shard must serve the plan's streams,
    since placement may route it anywhere.
    """
    for service in services:
        service.engine.validate_streams(query)


class HostBackend:
    """Serve a bare admission host (service or federation).

    Submissions go straight to the federation (:attr:`cluster`; a
    bare service is a federation of one) in request order — a gateway-
    mediated run admits byte-identically to the same submissions made
    in-process, which ``tests/serve/test_gateway.py`` asserts.
    """

    #: Whether ``/v1/subscribe`` is available.
    subscriptions = False

    def __init__(self, target: object) -> None:
        self.cluster = FederatedAdmissionService.of(target)
        self.last_report: object = None

    @property
    def host(self) -> "HostBackend":
        # The macro benchmark reads a restarted gateway's federation
        # as ``gateway.backend.host.cluster``; that name is frozen.
        return self

    @property
    def services(self):
        return self.cluster.shards

    @property
    def period(self) -> int:
        return self.cluster.period

    def submit(self, query, category: "str | None" = None) -> "int | None":
        if category is not None:
            raise ValidationError(
                "subscription categories need a simulation-driver "
                "backend; serve a SimulationDriver built with "
                "subscriptions enabled")
        _validate_streams(query, self.services)
        return self.cluster.submit(query)

    def withdraw(self, query_id: str):
        return self.cluster.withdraw(query_id)

    def tick(self):
        self.last_report = self.cluster.run_period()
        return self.last_report

    def pending_count(self) -> int:
        return sum([len(shard.pending_ids) for shard in self.cluster.shards])

    def total_revenue(self) -> float:
        return self.cluster.total_revenue()

    def probe_snapshot(self) -> "dict | None":
        return None


class DriverBackend:
    """Serve a :class:`~repro.sim.SimulationDriver`.

    Submissions buffer in a gateway-side inbox as select rows (a plan
    with no select form, which no wire body or WAL op can carry, is
    refused at submit).  A tick hands the driver the inbox as one
    :class:`~repro.sim.arrivals.ArrivalBlock` at the upcoming
    boundary's time, admitted by the driver's row body, so withdrawing
    before the boundary is cheap (the event queue never sees the
    query).  Subscriptions are available when the driver has managers.
    """

    def __init__(self, driver) -> None:
        self.driver = driver
        #: query id -> (select row, category), in arrival (= tick) order.
        self._inbox: dict[str, tuple[SelectPlan, "str | None"]] = {}
        self.last_report: object = None

    @property
    def subscriptions(self) -> bool:
        return self.driver.managers is not None

    @property
    def services(self):
        return self.driver.host.shards

    @property
    def period(self) -> int:
        return self.driver.period

    def _holds(self, query_id: str) -> bool:
        """Whether *query_id* is queued, running or subscribed anywhere
        (one membership test per container, nothing copied)."""
        return (
            query_id in self._inbox
            or query_id in self.driver.pending_ids()
            or self.driver.host.locate(query_id) is not None
            or any(query_id in manager.active
                   for manager in self.driver.managers or ()))

    def submit(self, query, category: "str | None" = None) -> None:
        """Buffer *query*; routing happens at the boundary (shard is
        therefore unknown until then — the response carries ``None``)."""
        if category is not None:
            if not self.subscriptions:
                raise ValidationError(
                    "this driver has no subscription managers; "
                    "construct it with subscriptions enabled")
            self.driver.managers[0].category(category)
        if self._holds(query.query_id):
            raise ValidationError(
                f"query id {query.query_id!r} already submitted")
        _validate_streams(query, self.services)
        self._inbox[query.query_id] = (require_select_plan(query),
                                       category)
        return None

    def withdraw(self, query_id: str):
        queued = self._inbox.pop(query_id, None)
        if queued is not None:
            return queued[0]
        parked = self.driver.withdraw_pending(query_id)
        if parked is not None:
            return parked
        for service in self.services:
            if query_id in service.pending_ids:
                return service.withdraw(query_id)
        raise ValidationError(
            f"unknown query id {query_id!r}; nothing to withdraw")

    def tick(self):
        if self._inbox:
            boundary = float(
                self.driver.period * self.services[0].ticks_per_period)
            rows = self._inbox.values()
            self.driver.arrive(ArrivalBlock.of_plans(
                [boundary] * len(rows), [plan for plan, _ in rows],
                [category for _, category in rows], stream=0))
            self._inbox.clear()
        self.last_report = self.driver.run(1)[0]
        return self.last_report

    def pending_count(self) -> int:
        return (len(self._inbox)
                + self.driver.pending_count()
                + sum(len(service.pending_ids)
                      for service in self.services))

    def total_revenue(self) -> float:
        return self.driver.total_revenue()

    def probe_snapshot(self) -> "dict | None":
        if not self.driver.probes:
            return None
        return self.driver.metrics_snapshot()


def make_backend(target: object):
    """Coerce *target* into a gateway backend."""
    from repro.sim.driver import SimulationDriver

    if isinstance(target, (HostBackend, DriverBackend)):
        return target
    if isinstance(target, SimulationDriver):
        return DriverBackend(target)
    return HostBackend(target)


class RawBody:
    """A handler result that is already rendered response bytes.

    Handlers normally return envelope fields; returning a ``RawBody``
    instead short-circuits JSON encoding entirely — the cached
    ``/v1/report`` body and the mutations' ``ok`` answers
    (:func:`~repro.io.serve_ok_body`) use it.
    """

    __slots__ = ("body",)

    def __init__(self, body: bytes) -> None:
        self.body = body


#: The request-id placeholder baked into cached response bodies; its
#: JSON encoding (``rid``) cannot collide with real data
#: because the splice searches for the full ``"request_id":"..."``
#: pattern, whose bare quotes cannot occur inside a JSON string value.
_RID_SENTINEL = "\x01rid\x01"
_RID_TOKEN = b'"request_id":"\\u0001rid\\u0001"'
_RID_PREFIX = b'"request_id":"'


class ServiceLock(asyncio.Lock):
    """The service lock, which a request can also take without waiting."""

    def acquire_now(self) -> bool:
        """Take the lock if :meth:`acquire` would grant it without
        suspending — it is free and nobody is queued for it."""
        # asyncio.Lock's own state (3.11–3.13): a release hands the
        # lock to the first waiter *before* it runs, so "free" alone
        # would let this caller in ahead of it.
        if self._locked or self._waiters:
            return False
        self._locked = True
        return True


async def _after_commit(receipt: "asyncio.Future",
                        answer: RawBody) -> RawBody:
    """*answer*, once the group commit holding the mutation is durable."""
    await receipt
    return answer


#: The counter key for every path the gateway does not route, so
#: made-up paths cannot grow ``/metrics`` one key at a time.
_UNROUTED = "(unrouted)"


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GatewayConfig:
    """Every serving knob in one place (defaults suit tests/benches)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Per-client token bucket: sustained requests/s and burst size.
    #: The client id comes from the ``x-client-id`` header, which the
    #: client chooses — so a per-peer-address bucket sits beneath it
    #: as the floor an id-rotating client cannot duck under.
    client_rate: float = 200.0
    client_burst: float = 50.0
    #: Per-peer-address token bucket (all client ids from one address
    #: combined).
    peer_rate: float = 1000.0
    peer_burst: float = 250.0
    #: Most token buckets kept at once; the longest-idle bucket is
    #: evicted first (an evicted client restarts with a full burst).
    max_tracked_clients: int = 1024
    #: Concurrent in-flight request cap (excess is shed with 503).
    max_inflight: int = 64
    #: Data-plane (submit/withdraw/report) request timeout, seconds.
    fast_timeout: float = 2.0
    #: Auction-settle (/v1/tick) request timeout, seconds.
    slow_timeout: float = 30.0
    #: How long one lock-acquisition attempt waits before it counts as
    #: contention and a server-side retry is considered.
    lock_patience: float = 0.25
    #: Retry budget: deposit per accepted request, seed, and cap.
    retry_deposit: float = 0.1
    retry_initial: float = 10.0
    retry_cap: float = 100.0
    max_body: int = 1 << 20
    #: Shutdown: how long to wait for in-flight requests to finish.
    drain_timeout: float = 5.0
    #: Period-tick driver interval, seconds (None = ticks only on
    #: demand via /v1/tick).
    tick_interval: "float | None" = None
    #: JSONL log path (None disables the file sink).
    log_path: "str | None" = None
    #: Suppress the human-readable stderr log line.
    quiet: bool = False
    #: Write-ahead log directory (None disables durability).  Every
    #: acknowledged mutation is appended before its response goes
    #: out; a restarted gateway replays the log tail (reporting
    #: ``recovery: replaying`` on /healthz until caught up).
    wal_dir: "str | None" = None
    #: WAL fsync policy: ``never``, ``always``, or ``batch:N``.  Under
    #: ``always`` every 200 means "on disk", and the acknowledged
    #: mutations are group-committed
    #: (:class:`~repro.wal.groupcommit.GroupCommitter`): appends happen
    #: in request order, concurrent requests share one fsync.
    wal_fsync: str = "batch:256"
    #: Compact the WAL into a fresh snapshot every this many settled
    #: periods (0 disables compaction).
    compact_every: int = 64

    def __post_init__(self) -> None:
        require(self.max_inflight >= 1, "max_inflight must be >= 1")
        require(self.max_tracked_clients >= 2,
                "max_tracked_clients must be >= 2")
        require(self.fast_timeout > 0, "fast_timeout must be positive")
        require(self.slow_timeout > 0, "slow_timeout must be positive")
        require(self.lock_patience > 0, "lock_patience must be positive")
        require(self.drain_timeout >= 0, "drain_timeout must be >= 0")
        require(self.tick_interval is None or self.tick_interval > 0,
                "tick_interval must be positive (None = on demand only)")
        require(self.max_body >= 1, "max_body must be >= 1")
        require(self.compact_every >= 0, "compact_every must be >= 0")
        # The rate, burst and retry rules are the classes' own: build
        # each once, so a typo fails here and not on every request.
        for fields, build, values in (
                ("client_rate / client_burst", TokenBucket,
                 (self.client_rate, self.client_burst)),
                ("peer_rate / peer_burst", TokenBucket,
                 (self.peer_rate, self.peer_burst)),
                ("retry_deposit / retry_initial / retry_cap", RetryBudget,
                 (self.retry_deposit, self.retry_initial,
                  self.retry_cap))):
            try:
                build(*values)
            except ValidationError as exc:
                raise ValidationError(f"{fields}: {exc}") from None


class AdmissionGateway:
    """An asyncio HTTP/JSON gateway over an admission backend.

    Usage::

        gateway = AdmissionGateway(service, GatewayConfig(port=8080))
        await gateway.start()
        ...
        await gateway.stop()       # drain + final settle

    All service access is serialized by one asyncio lock.  A data-plane
    request that finds it free (and nobody queued) runs its handler
    under it and is answered in the callback that read it; one that
    would have to wait — for the lock, a group commit, or a settle —
    is finished by its connection's one task.  The period settle runs
    in a worker thread with the lock released by its done-callback so
    a timed-out client cannot release it mid-auction.
    """

    def __init__(self, target: object,
                 config: "GatewayConfig | None" = None) -> None:
        self.backend = make_backend(target)
        self.config = config or GatewayConfig()
        self.log = StructuredLog(
            path=self.config.log_path,
            stream=None if self.config.quiet else sys.stderr)
        self._server: "asyncio.AbstractServer | None" = None
        self._lock = ServiceLock()
        self._budget = RetryBudget(
            deposit=self.config.retry_deposit,
            initial=self.config.retry_initial,
            cap=self.config.retry_cap)
        #: Least recently used first, so eviction pops the front.
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._ids = itertools.count(1)
        self._inflight = 0
        self._draining = False
        self._stopped = False
        self._started_at: "float | None" = None
        self._tick_task: "asyncio.Task | None" = None
        self._connections: "set[_Connection]" = set()
        self._backend_cache: "dict | None" = None
        self._wal = None
        self._committer = None
        #: Bumped after every settle (and recovery); the rendered
        #: /v1/report and /metrics body caches key on it.
        self._settle_generation = 0
        self._mutations_acked = 0
        self._report_cache: "tuple[int, bytes, bytes] | None" = None
        self._metrics_cache: "tuple[tuple, float, bytes] | None" = None
        self._recovering = False
        self._recovered_from_wal = False
        #: The one-line reason a WAL replay failed (the gateway then
        #: stays closed to mutations for good); ``None`` otherwise.
        self._recovery_error: "str | None" = None
        self._replayed_records = 0
        self.counters: Counter = Counter()
        self._latency: dict[str, deque] = {
            "fast": deque(maxlen=4096), "slow": deque(maxlen=512)}
        self.port: "int | None" = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "AdmissionGateway":
        """Bind and start serving; resolves the ephemeral port.

        With a WAL configured, a fresh directory is initialised with a
        genesis checkpoint before the first request can be accepted; an
        existing one triggers background replay — the socket answers
        immediately, but mutating requests see 503 (and ``/healthz``
        says ``recovery: replaying``) until the tail is re-applied.
        """
        require(self._server is None, "the gateway is already started")
        recover = False
        if self.config.wal_dir:
            from repro.wal import WriteAheadLog, wal_exists
            from repro.wal.recovery import gateway_wal_state

            recover = wal_exists(self.config.wal_dir)
            if not recover:
                self._wal = WriteAheadLog.create(
                    self.config.wal_dir,
                    gateway_wal_state(self.backend),
                    fsync=self._wal_fsync_policy(),
                    compact_every=self.config.compact_every)
                self._attach_committer()
        self._backend_stats()       # prime the open-tier snapshot
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if recover:
            # Replay runs in a worker thread with the service lock
            # held; the done-callback releases it, exactly like a
            # settle.  Probes stay answerable off the primed cache.
            self._recovering = True
            await self._lock.acquire()
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(None, self._recover_wal)
            future.add_done_callback(self._recovery_done)
        if self.config.tick_interval:
            self._tick_task = asyncio.create_task(self._auto_tick())
        self.log.log("listening", host=self.config.host, port=self.port,
                     backend=type(self.backend).__name__,
                     wal=self.config.wal_dir,
                     recovering=self._recovering or None)
        return self

    def _group_commits(self) -> bool:
        """Whether the configured policy is ``always`` (as the log
        itself would read it): a durable 200 is a group-committed one."""
        from repro.wal.log import _parse_fsync

        return _parse_fsync(self.config.wal_fsync)[0] == "always"

    def _wal_fsync_policy(self) -> str:
        """The underlying log's policy (``never`` under group commit —
        the committer owns every fsync)."""
        return "never" if self._group_commits() else self.config.wal_fsync

    def _attach_committer(self) -> None:
        if self._wal is not None and self._group_commits():
            from repro.wal.groupcommit import GroupCommitter

            self._committer = GroupCommitter(self._wal)

    def _recover_wal(self):
        from repro.wal.recovery import recover_gateway_backend

        return recover_gateway_backend(
            self.config.wal_dir, self.backend,
            fsync=self._wal_fsync_policy(),
            compact_every=self.config.compact_every)

    def _recovery_done(self, future) -> None:
        self._lock.release()
        self._recovering = False
        exc = None if future.cancelled() else future.exception()
        if exc is not None:
            # Fail closed: a gateway that could not re-apply its own
            # acknowledged log must not take new mutations on top of
            # half-recovered state.
            self._draining = True
            self._recovery_error = (str(exc) or repr(exc)).splitlines()[0]
            self.log.log("wal_recovery_failed", level="error",
                         error=repr(exc))
            return
        self._wal = future.result()
        self._attach_committer()
        self._recovered_from_wal = True
        self._replayed_records = self._wal.stats.get("replayed", 0)
        self._backend_cache = None
        self._settle_generation += 1
        self._backend_stats()
        self.log.log("wal_recovered", period=self.backend.period,
                     replayed=self._replayed_records,
                     torn=self._wal.stats["torn_tail"])

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) pair."""
        require(self.port is not None, "the gateway is not started")
        return (self.config.host, self.port)

    async def stop(self, final_settle: bool = True) -> None:
        """Drain in-flight requests, settle pending work, shut down."""
        if self._stopped:
            return
        self._draining = True
        if self._tick_task is not None:
            self._tick_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tick_task
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._inflight:
            self.log.log("drain_timeout", level="warning",
                         abandoned=self._inflight)
        if final_settle and self.backend.pending_count() > 0:
            # Best effort only: a drain-abandoned tick still holding
            # the lock can exhaust the retry budget here, and a settle
            # failure must not leak the sockets or the JSONL sink.
            try:
                report = await self._tick_locked("shutdown")
                document = report_document(report) or {}
                self.log.log("final_settle",
                             period=self.backend.period,
                             admitted=len(document.get("admitted", ())),
                             revenue=document.get("revenue"))
            except Exception as exc:  # noqa: BLE001 - shutdown proceeds
                self.log.log("final_settle_failed", level="error",
                             pending=self.backend.pending_count(),
                             error=repr(exc))
        if self._committer is not None:
            with contextlib.suppress(Exception):
                await self._committer.close()
        if self._wal is not None:
            # Durability before availability teardown: everything the
            # gateway acknowledged is on disk before the sockets go.
            self._wal.sync()
        if self._server is not None:
            self._server.close()
        # Idle keep-alive connections close once their answers are
        # flushed; one whose peer will not read them is cut after the
        # drain timeout.  This comes before ``wait_closed``, which
        # (from Python 3.12.1) waits for every connection to drop.
        for connection in list(self._connections):
            connection.transport.close()
        deadline = loop.time() + self.config.drain_timeout
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for connection in list(self._connections):
            connection.transport.abort()
        while self._connections:
            await asyncio.sleep(0.005)
        if self._server is not None:
            await self._server.wait_closed()
        if self._wal is not None:
            self._wal.close()
        self._stopped = True
        self.log.log("stopped", requests=self._budget.requests,
                     retries=self._budget.retries,
                     throttled=self.counters["throttled"],
                     shed=self.counters["shed"],
                     timeouts=self.counters["timeouts"])
        self.log.close()

    async def _auto_tick(self) -> None:
        while not self._draining:
            await asyncio.sleep(self.config.tick_interval)
            try:
                await self._tick_locked("auto")
            except HttpError as exc:
                self.log.log("auto_tick_skipped", level="warning",
                             error=exc.message)
            except ValidationError as exc:
                self.log.log("auto_tick_failed", level="error",
                             error=str(exc))

    # -- connection handling -------------------------------------------

    @staticmethod
    def _error(exc: Exception, request_id: str):
        """The status, body and headers that answer *exc*."""
        headers = {}
        if isinstance(exc, HttpError):
            status, message = exc.status, exc.message
            if exc.retry_after is not None:
                headers["Retry-After"] = f"{max(exc.retry_after, 0.0):.3f}"
        elif isinstance(exc, ValidationError):
            status, message = 400, str(exc)
        else:
            status = 500
            message = f"internal error: {type(exc).__name__}: {exc}"
        return status, http.json_body(serve_response_to_dict(
            "error", request_id, error=message)), headers

    def _render_error(self, exc: HttpError) -> bytes:
        """The answer to bytes that did not parse as a request (the
        connection closes after it: its framing is lost)."""
        status, body, headers = self._error(exc, "r000000")
        return http.render_response(status, body, headers=headers,
                                    keep_alive=False)

    def _respond(self, request: HttpRequest, client_host: str):
        """Answer one request: ``(payload, keep_alive)``, or an
        awaitable of that pair when the answer has to wait.

        A data-plane handler runs here, under the service lock, when
        the lock is free and nobody is queued for it.  It waits when
        the lock is not (the connection's task then queues for it
        under the timeout, lock-patience and retry-budget rules), and
        when the handler's result is awaitable — ``/v1/tick``, a
        group-commit receipt, or an ``async def`` handler — which is
        then awaited with the lock released.
        """
        request_id = f"r{next(self._ids):06d}"
        started = time.monotonic()
        tier = None
        try:
            handler, tier = self._route(request)
            if tier == "open":
                result = handler()
            else:
                self._gate(request.headers.get("x-client-id", client_host),
                           client_host)
                self._budget.record_request()
                self._inflight += 1
                if tier == "slow" or not self._lock.acquire_now():
                    return self._respond_later(
                        request, request_id, client_host, started, tier,
                        handler, None)
                try:
                    result = handler(request, request_id)
                except BaseException:
                    self._inflight -= 1
                    raise
                finally:
                    self._lock.release()
                if inspect.isawaitable(result):
                    return self._respond_later(
                        request, request_id, client_host, started, tier,
                        handler, result)
                self._inflight -= 1
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            result = exc
        return self._reply(request, request_id, client_host, started,
                           tier, result)

    async def _respond_later(self, request, request_id, client_host,
                             started, tier, handler, pending):
        """Finish a request that had to wait (see :meth:`_respond`)."""
        timeout = (self.config.slow_timeout if tier == "slow"
                   else self.config.fast_timeout)
        try:
            try:
                async with asyncio.timeout(timeout):
                    if pending is None and tier == "fast":
                        async with self._service_lock(
                                request_id, request.path.rsplit("/")[-1]):
                            pending = handler(request, request_id)
                    elif pending is None:
                        pending = handler(request, request_id)
                    result = (await pending if inspect.isawaitable(pending)
                              else pending)
            except TimeoutError:
                self.counters["timeouts"] += 1
                raise HttpError(
                    504, f"{request.path} timed out after "
                         f"{timeout:g}s") from None
            finally:
                self._inflight -= 1
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            result = exc
        return self._reply(request, request_id, client_host, started,
                           tier, result)

    def _reply(self, request, request_id, client_host, started, tier,
               result) -> tuple[bytes, bool]:
        """Account for, log and render one answer."""
        status, headers = 200, None
        try:
            if isinstance(result, Exception):
                raise result
            if isinstance(result, RawBody):
                body = result.body
            elif isinstance(result, (bytes, bytearray)):
                body = bytes(result)
            else:
                body = http.json_body(result if tier == "open" else
                                      serve_response_to_dict(
                                          "ok", request_id, **result))
        except Exception as exc:  # noqa: BLE001 - answered, not raised
            status, body, headers = self._error(exc, request_id)
        elapsed = time.monotonic() - started
        if tier in ("fast", "slow"):
            self._latency[tier].append(elapsed)
        path = request.path if request.path in self._ROUTES else _UNROUTED
        self.counters[f"{path}:{status}"] += 1
        if self.log.enabled:
            self.log.log(
                "request",
                level="error" if status >= 500 else "info",
                request_id=request_id,
                client=request.headers.get("x-client-id", client_host),
                method=request.method, path=request.path, status=status,
                ms=round(elapsed * 1000.0, 3),
                params=dict(request.params) or None)
        keep_alive = request.keep_alive
        return (http.render_response(
            status, body, headers=headers,
            keep_alive=keep_alive), keep_alive)

    #: path -> (method, handler attribute, timeout tier).  Handlers are
    #: looked up by name per request so wrappers put on the class
    #: later are honoured.
    _ROUTES = {
        "/healthz": ("GET", "health_document", "open"),
        "/metrics": ("GET", "_metrics_body", "open"),
        "/v1/submit": ("POST", "_handle_submit", "fast"),
        "/v1/subscribe": ("POST", "_handle_subscribe", "fast"),
        "/v1/withdraw": ("POST", "_handle_withdraw", "fast"),
        "/v1/report": ("GET", "_handle_report", "fast"),
        "/v1/tick": ("POST", "_handle_tick", "slow"),
    }

    def _route(self, request: HttpRequest):
        entry = self._ROUTES.get(request.path)
        if entry is None:
            raise HttpError(404, f"no such endpoint {request.path!r}")
        method, handler, tier = entry
        if request.method != method:
            raise HttpError(
                405, f"{request.path} takes {method}, "
                     f"not {request.method}")
        return getattr(self, handler), tier

    def _bucket(self, key: str, rate: float, burst: float) -> TokenBucket:
        """The token bucket for *key*, bounding the table as it grows.

        Client ids are client-chosen, so the table would otherwise
        grow one bucket per id forever; past ``max_tracked_clients``
        the longest-idle bucket is evicted (that client merely
        restarts with a full burst — the per-peer floor still holds).
        Every lookup is followed by a ``try_acquire``, so most recently
        looked up is most recently updated and the table's own order
        names the longest-idle bucket without a scan.
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            if len(self._buckets) >= self.config.max_tracked_clients:
                self._buckets.popitem(last=False)
                self.counters["buckets_evicted"] += 1
            bucket = self._buckets[key] = TokenBucket(rate, burst)
        else:
            self._buckets.move_to_end(key)
        return bucket

    def _gate(self, client: str, peer: str) -> None:
        """Admission control for the admission controller."""
        if self._recovery_error is not None:
            raise HttpError(
                503, f"gateway could not replay its write-ahead log "
                     f"and takes no mutations: {self._recovery_error}",
                retry_after=self.config.drain_timeout)
        if self._draining:
            raise HttpError(
                503, "gateway is draining; resubmit elsewhere",
                retry_after=self.config.drain_timeout)
        if self._recovering:
            raise HttpError(
                503, "gateway is replaying its write-ahead log; "
                     "retry shortly",
                retry_after=self.config.lock_patience)
        if self._inflight >= self.config.max_inflight:
            self.counters["shed"] += 1
            raise HttpError(
                503, f"gateway is at its in-flight cap "
                     f"({self.config.max_inflight}); retry shortly",
                retry_after=self.config.lock_patience)
        # The peer-address floor first: rotating x-client-id values
        # must not buy a client more rate than its address is allowed.
        wait = self._bucket(f"peer\x00{peer}", self.config.peer_rate,
                            self.config.peer_burst).try_acquire()
        if wait > 0.0:
            self.counters["throttled"] += 1
            raise HttpError(
                429, f"address {peer!r} is over its request rate "
                     f"({self.config.peer_rate:g}/s across all "
                     f"client ids)",
                retry_after=wait)
        wait = self._bucket(f"client\x00{client}",
                            self.config.client_rate,
                            self.config.client_burst).try_acquire()
        if wait > 0.0:
            self.counters["throttled"] += 1
            raise HttpError(
                429, f"client {client!r} is over its request rate "
                     f"({self.config.client_rate:g}/s)",
                retry_after=wait)

    # -- the service lock ----------------------------------------------

    async def _acquire_service_lock(self, request_id: str,
                                    endpoint: str) -> None:
        """Take the lock; retry contention only while the budget holds.

        A free lock is taken directly; patience timers and the retry
        budget are spent only when somebody holds it.
        """
        if not self._lock.locked():
            await self._lock.acquire()
            return
        patience = self.config.lock_patience
        while True:
            try:
                await asyncio.wait_for(self._lock.acquire(), patience)
                return
            except TimeoutError:
                pass
            if not self._budget.try_withdraw():
                raise HttpError(
                    503, f"{endpoint} contended with a settling "
                         f"auction and the retry budget is exhausted",
                    retry_after=patience)
            self.log.log("contention_retry", level="debug",
                         request_id=request_id, endpoint=endpoint,
                         budget=round(self._budget.balance, 2))

    @contextlib.asynccontextmanager
    async def _service_lock(self, request_id: str, endpoint: str):
        await self._acquire_service_lock(request_id, endpoint)
        try:
            yield
        finally:
            self._lock.release()

    async def _tick_locked(self, request_id: str):
        """Run one period settle in a worker thread, shielded.

        The lock is released by the future's done-callback, never by
        the (possibly cancelled) awaiting request — a ``504`` mid-
        auction leaves the settle to finish and unlock on its own.
        """
        await self._acquire_service_lock(request_id, "tick")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, self._tick_and_log)
        future.add_done_callback(self._tick_done)
        return await asyncio.shield(future)

    def _tick_and_log(self):
        """One settle plus its durability record (worker thread).

        Runs under the service lock, so the backend is quiescent
        between the tick and the WAL append — the logged receipt is
        exactly the post-settle state a replay must reproduce.
        """
        report = self.backend.tick()
        wal = self._wal
        if wal is not None and not wal.suspended:
            crashpoint(CP_TICK_BEFORE_PERIOD)
            wal.append_period(
                period=self.backend.period,
                events=getattr(getattr(self.backend, "driver", None),
                               "events_processed", 0),
                revenue=self.backend.total_revenue())
            if self._committer is not None:
                # The log's own policy is "never" under group commit;
                # the period receipt is rare enough to sync in place.
                wal.sync()
            crashpoint(CP_TICK_AFTER_PERIOD)
            if wal.due_for_compaction(self.backend.period):
                from repro.wal.recovery import gateway_wal_state

                wal.compact(gateway_wal_state(self.backend),
                            self.backend.period)
        return report

    def _tick_done(self, future) -> None:
        self._lock.release()
        self._settle_generation += 1
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:
            self.log.log("tick_failed", level="error", error=repr(exc))

    # -- endpoint handlers ---------------------------------------------

    def _parse_request(self, request: HttpRequest):
        return serve_request_from_dict(request.json())

    def _wal_append_op(self, parsed) -> "asyncio.Future | None":
        """Log an acknowledged mutation (called under the service lock).

        The append happens *before* the 200 goes out, so every response
        the client sees is durable to the configured fsync policy.
        Under group commit (``wal_fsync="always"``) the append still
        happens here — in request order, under the lock — but the
        fsync is deferred: the caller awaits the returned future
        *after* releasing the lock, so concurrent mutations share one
        fsync instead of each paying its own under the lock.
        """
        self._mutations_acked += 1
        if self._wal is None:
            return None
        document = serve_request_to_dict(parsed)
        if self._committer is not None:
            return self._committer.enqueue(self._wal.append_op, document)
        self._wal.append_op(document)
        return None

    # The data-plane handlers run under the service lock, which
    # :meth:`_respond` holds for them; a group-commit receipt is
    # returned as an awaitable, awaited once the lock is released.

    def _handle_submit(self, request: HttpRequest, request_id: str):
        parsed = self._parse_request(request)
        if parsed.op not in ("submit", "subscribe"):
            raise ValidationError(
                f"/v1/submit got a {parsed.op!r} request")
        shard = self.backend.submit(parsed.query, category=parsed.category)
        receipt = self._wal_append_op(parsed)
        answer = RawBody(serve_ok_body(
            "submit", request_id, parsed.query.query_id,
            self.backend.pending_count(), period=self.backend.period,
            shard=shard))
        return answer if receipt is None else _after_commit(receipt, answer)

    def _handle_subscribe(self, request: HttpRequest, request_id: str):
        parsed = self._parse_request(request)
        if parsed.op != "subscribe":
            raise ValidationError(
                f"/v1/subscribe got a {parsed.op!r} request")
        if not self.backend.subscriptions:
            raise HttpError(
                409, "this gateway's backend takes plain submissions "
                     "only; serve a SimulationDriver with "
                     "subscriptions enabled")
        self.backend.submit(parsed.query, category=parsed.category)
        receipt = self._wal_append_op(parsed)
        answer = RawBody(serve_ok_body(
            "subscribe", request_id, parsed.query.query_id,
            self.backend.pending_count(), period=self.backend.period,
            category=parsed.category))
        return answer if receipt is None else _after_commit(receipt, answer)

    def _handle_withdraw(self, request: HttpRequest, request_id: str):
        parsed = self._parse_request(request)
        if parsed.op != "withdraw":
            raise ValidationError(
                f"/v1/withdraw got a {parsed.op!r} request")
        try:
            self.backend.withdraw(parsed.query_id)
        except ValidationError as exc:
            # Only the id that was asked for: the backend's message
            # may name other clients' pending ids.
            raise HttpError(
                404, f"unknown query id {parsed.query_id!r}; "
                     f"nothing to withdraw") from exc
        receipt = self._wal_append_op(parsed)
        answer = RawBody(serve_ok_body(
            "withdraw", request_id, parsed.query_id,
            self.backend.pending_count()))
        return answer if receipt is None else _after_commit(receipt, answer)

    def _handle_report(self, request: HttpRequest,
                       request_id: str) -> RawBody:
        cache = self._report_cache
        if cache is None or cache[0] != self._settle_generation:
            cache = self._render_report_cache()
        return RawBody(b"".join(
            (cache[1], request_id.encode("ascii"), cache[2])))

    def _render_report_cache(self) -> "tuple[int, bytes, bytes]":
        """Render /v1/report once per settle generation.

        The response envelope embeds a per-request id, so the cache
        holds the rendered body split around a sentinel request id;
        serving a request is then two slices and a join instead of a
        full report→dict→JSON encode.
        """
        body = http.json_body(serve_response_to_dict(
            "ok", _RID_SENTINEL,
            period=self.backend.period,
            revenue=self.backend.total_revenue(),
            report=report_document(self.backend.last_report)))
        at = body.index(_RID_TOKEN)
        prefix = body[:at] + _RID_PREFIX
        suffix = body[at + len(_RID_TOKEN) - 1:]
        self._report_cache = (self._settle_generation, prefix, suffix)
        return self._report_cache

    async def _handle_tick(self, request: HttpRequest,
                           request_id: str) -> dict:
        report = await self._tick_locked(request_id)
        return {"period": self.backend.period,
                "report": report_document(report)}

    # -- operational documents -----------------------------------------

    def _backend_stats(self) -> dict:
        """Backend-derived vitals for the open-tier documents.

        ``/healthz`` and ``/metrics`` skip the service lock so probes
        stay answerable during a settle — but the settle mutates the
        very structures they report, in an executor thread.  The lock
        is held (and released only by the tick's done-callback) for
        that whole window, so: lock free ⇒ no thread is mutating, read
        fresh and cache; lock held ⇒ serve the last snapshot.  Both
        branches run on the event loop with no await in between, so
        the check cannot go stale mid-read.
        """
        if self._lock.locked() and self._backend_cache is not None:
            return self._backend_cache
        backend = self.backend
        probe = backend.probe_snapshot()
        self._backend_cache = {
            "period": backend.period,
            "pending": backend.pending_count(),
            "revenue": backend.total_revenue(),
            "shards": [
                {"shard": index,
                 "pending": len(service.pending_ids),
                 "admitted": len(service.engine.admitted_ids),
                 "capacity": service.capacity}
                for index, service in enumerate(backend.services)],
            "probe": probe,
        }
        return self._backend_cache

    def health_document(self) -> dict:
        """The ``/healthz`` body (cheap; never throttled)."""
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        stats = self._backend_stats()
        document = {
            "status": "draining" if self._draining else "ok",
            "recovery": ("replaying" if self._recovering
                         else "clean" if self._recovery_error is None
                         else "failed"),
            "recovered_from_wal": self._recovered_from_wal,
            "replayed_records": self._replayed_records,
            "period": stats["period"],
            "pending": stats["pending"],
            "inflight": self._inflight,
            "uptime_s": round(uptime, 3),
        }
        if self._recovery_error is not None:
            document["error"] = self._recovery_error
        return document

    #: How long a rendered /metrics body may be re-served unchanged
    #: (its own request counters go that stale; settles and mutations
    #: invalidate immediately via the cache key).
    METRICS_TTL = 0.25

    def _metrics_body(self) -> bytes:
        """The rendered ``/metrics`` bytes, cached briefly.

        The cache key is ``(settle generation, acked mutations)`` so a
        settle or an acknowledged mutation invalidates instantly; the
        short TTL only lets the gateway's own request/latency counters
        lag, sparing the full snapshot+encode on every poll.
        """
        key = (self._settle_generation, self._mutations_acked)
        now = time.monotonic()
        cache = self._metrics_cache
        if cache is not None and cache[0] == key and now < cache[1]:
            return cache[2]
        body = http.json_body(self.metrics_document())
        self._metrics_cache = (key, now + self.METRICS_TTL, body)
        return body

    def metrics_document(self) -> dict:
        """The ``/metrics`` body: the gateway's own vitals plus the
        backend's queue depths, shard states, and (when the backend
        drives latency probes) the shared
        :func:`~repro.sim.metrics.metrics_snapshot` summary."""
        from repro.sim.metrics import percentile_dict, wal_snapshot

        stats = self._backend_stats()
        document = {
            "schema": "repro/serve-metrics",
            "version": 1,
            "draining": self._draining,
            "inflight": self._inflight,
            "period": stats["period"],
            "pending": stats["pending"],
            "revenue": stats["revenue"],
            "requests": dict(self.counters),
            "backpressure": {
                "throttled": self.counters["throttled"],
                "shed": self.counters["shed"],
                "timeouts": self.counters["timeouts"],
                "retries": self._budget.retries,
                "retry_budget": round(self._budget.balance, 3),
                "retry_exhausted": self._budget.exhausted,
            },
            "latency_ms": {
                tier: percentile_dict(
                    [seconds * 1000.0 for seconds in samples])
                for tier, samples in self._latency.items()},
            "shards": stats["shards"],
            "wal": wal_snapshot(self._wal),
        }
        if self._wal is not None:
            # The configured policy, not the log's own: under group
            # commit the log is opened ``never``.
            document["wal"]["fsync_policy"] = self.config.wal_fsync
        if self._committer is not None:
            document["wal"]["group_commit"] = (
                self._committer.stats_snapshot())
        if stats["probe"] is not None:
            document["probe"] = stats["probe"]
        return document


class _Connection(asyncio.Protocol):
    """One client connection: requests in, answers out, in order.

    Received bytes go into a :class:`~repro.serve.http.RequestParser`,
    and each complete request is answered by
    :meth:`AdmissionGateway._respond` in the callback that read it —
    unless its answer has to wait.  Then :attr:`waiting`, the
    connection's one task, finishes it, and the requests pipelined
    behind it stay in the buffer, neither run nor answered, until it
    has: requests run and are answered in the order they arrived.  A
    peer that does not read its answers stops the connection taking
    requests, and one that keeps sending while none are taken is no
    longer read.
    """

    #: Unparsed bytes past which reading pauses while no request is
    #: being taken (the buffer limit an asyncio stream applies).
    READ_HIGH_WATER = http.MAX_HEAD

    def __init__(self, gateway: AdmissionGateway) -> None:
        self.gateway = gateway
        self.parser = http.RequestParser(max_body=gateway.config.max_body)
        self.transport: "asyncio.Transport | None" = None
        self.peer = "unknown"
        self.waiting: "asyncio.Task | None" = None
        self.writing_paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        peer = transport.get_extra_info("peername")
        self.peer = str(peer[0]) if peer else "unknown"
        self.gateway._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.gateway._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.parser.feed(data)
        self._serve()

    def eof_received(self) -> bool:
        self.parser.feed_eof()
        self._serve()
        # Half-closed: answers still owed go out before we close.
        return True

    def pause_writing(self) -> None:
        self.writing_paused = True

    def resume_writing(self) -> None:
        self.writing_paused = False
        self._serve()

    def _serve(self) -> None:
        """Answer buffered requests in order until one has to wait."""
        transport = self.transport
        while (self.waiting is None and not self.writing_paused
               and not transport.is_closing()):
            try:
                request = self.parser.next_request()
            except HttpError as exc:
                transport.write(self.gateway._render_error(exc))
                transport.close()
                return
            if request is None:
                if self.parser.finished:
                    transport.close()
                break
            answer = self.gateway._respond(request, self.peer)
            if isinstance(answer, tuple):
                self._send(*answer)
            else:
                self.waiting = asyncio.get_running_loop().create_task(
                    self._answer_later(answer))
        if self.waiting is not None or self.writing_paused:
            if self.parser.buffered > self.READ_HIGH_WATER:
                transport.pause_reading()
        elif not transport.is_reading():
            transport.resume_reading()

    def _send(self, payload: bytes, keep_alive: bool) -> None:
        self.transport.write(payload)
        if not keep_alive:
            self.transport.close()

    async def _answer_later(self, answer) -> None:
        try:
            payload, keep_alive = await answer
        except BaseException:
            self.transport.close()
            raise
        finally:
            self.waiting = None
        # A peer gone meanwhile gets nothing; its request still ran.
        if not self.transport.is_closing():
            self._send(payload, keep_alive)
            self._serve()


async def serve_forever(target: object,
                        config: "GatewayConfig | None" = None) -> None:
    """Start a gateway and run until cancelled (SIGINT/SIGTERM safe)."""
    import signal

    gateway = AdmissionGateway(target, config)
    await gateway.start()
    loop = asyncio.get_running_loop()
    closing = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, closing.set)
    try:
        await closing.wait()
    finally:
        await gateway.stop()

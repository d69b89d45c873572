"""A seeded load generator for the admission gateway.

Replays any arrival spec the simulator understands —
``"poisson:rate=5,seed=7"``, ``"burst:size=20,every=10"``,
``"trace:path=run.trace.json"`` — over *real sockets* against a
running :class:`~repro.serve.gateway.AdmissionGateway`.  The arrival
sequence is materialized up front from the seeded process, so two runs
with the same spec submit exactly the same queries in the same order
(with ``concurrency=1``, the same order *on the wire* too).

Backpressure is honoured, not fought: a ``429`` sleeps for the
server's ``Retry-After`` and retries; a ``503`` backs off briefly.
Retries and final statuses are tallied in the returned
:class:`LoadgenResult`, whose latency percentiles come from the same
:func:`~repro.sim.metrics.percentile_dict` helper the gateway's
``/metrics`` uses.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.io import ServeRequest, serve_request_body, serve_request_to_dict
from repro.serve import http
from repro.serve.http import HttpError
from repro.sim.arrivals import Arrival, resolve_arrivals
from repro.utils.validation import ValidationError, require


class _ClientProtocol(asyncio.Protocol):
    """One client connection's callbacks: responses out of a
    :class:`~repro.serve.http.ResponseParser`, one future per request.

    :attr:`waiter` is the future of the request in flight.  It gets
    the response, an :class:`~repro.serve.http.HttpError` when the
    bytes do not frame one, or ``None`` when the connection closed
    with no response begun.
    """

    def __init__(self) -> None:
        self.parser = http.ResponseParser()
        self.transport: "asyncio.Transport | None" = None
        self.waiter: "asyncio.Future | None" = None
        self.lost = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self.parser.feed(data)
        self._deliver()

    def eof_received(self) -> bool:
        self.parser.feed_eof()
        self._deliver()
        return False            # nothing more to send on it: close

    def connection_lost(self, exc) -> None:
        self.lost = True
        self.parser.feed_eof()
        self._deliver()

    def _deliver(self) -> None:
        waiter = self.waiter
        if waiter is None:
            return
        try:
            response = self.parser.next_response()
        except HttpError as exc:
            self.waiter = None
            self.transport.close()
            if not waiter.done():
                waiter.set_exception(exc)
            return
        if response is None and not self.parser.finished:
            return              # more bytes to come
        self.waiter = None
        if not waiter.done():
            waiter.set_result(response)


class GatewayClient:
    """One keep-alive HTTP connection to the gateway.

    The connection is an ``asyncio.Protocol`` whose response parser
    settles one future per request; the request head for each target
    is rendered once and cached.  Reconnects and resends once if an
    *established* keep-alive connection (one that has completed a
    round trip) proves stale.  A connection that dies on its very
    first exchange gets no resend — the server may have executed the
    request before the connection failed, and resending would
    duplicate a non-idempotent mutation (a tick would settle twice).
    Protocol-level failures raise :class:`~repro.serve.http.HttpError`.
    """

    def __init__(self, host: str, port: int,
                 client_id: str = "client") -> None:
        self.host = host
        self.port = int(port)
        self.client_id = client_id
        self._protocol: "_ClientProtocol | None" = None
        #: True once this connection has completed a round trip.
        self._seasoned = False
        #: (method, target, with body, client id) -> the request head
        #: around its Content-Length digits.
        self._heads: dict[tuple, tuple[bytes, bytes]] = {}
        #: Headers of the most recent response (e.g. ``retry-after``).
        self.last_headers: dict[str, str] = {}

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        _transport, self._protocol = await loop.create_connection(
            _ClientProtocol, self.host, self.port)
        self._seasoned = False

    async def close(self) -> None:
        protocol, self._protocol = self._protocol, None
        if protocol is not None and not protocol.lost:
            protocol.transport.close()
            # Let connection_lost run, as a stream's wait_closed would.
            await asyncio.sleep(0)

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.close()

    async def request(
        self, method: str, target: str,
        document: "object | None" = None,
    ) -> tuple[int, dict]:
        """One request/response round trip; returns (status, body)."""
        body = b"" if document is None else http.json_body(document)
        return await self._exchange(method, target, body)

    async def _exchange(self, method: str, target: str,
                        body: bytes) -> tuple[int, dict]:
        key = (method, target, bool(body), self.client_id)
        head = self._heads.get(key)
        if head is None:
            head = self._heads[key] = http.request_head(
                method, target, with_body=bool(body),
                host=f"{self.host}:{self.port}",
                headers={"x-client-id": self.client_id})
        payload = b"".join((head[0], b"%d" % len(body), head[1], body))
        for attempt in (1, 2):
            if self._protocol is None:
                await self.connect()
            protocol = self._protocol
            response = None
            if not protocol.lost:
                waiter = protocol.waiter = (
                    asyncio.get_running_loop().create_future())
                protocol.transport.write(payload)
                try:
                    response = await waiter
                except BaseException:
                    # A parse failure or a cancelled wait: the
                    # connection's framing is lost with it.
                    await self.close()
                    raise
            if response is not None:
                self.last_headers = response.headers
                self._seasoned = True
                return response.status, response.json()
            # Resend only over a connection that had already proven
            # itself: an established keep-alive the server closed
            # while idle.  A first-exchange failure may mean the
            # request executed before the server died — resending
            # would duplicate it.
            seasoned = self._seasoned
            await self.close()
            if attempt == 2 or not seasoned:
                raise HttpError(
                    503, f"gateway at {self.host}:{self.port} closed "
                         f"the connection")

    # -- typed helpers -------------------------------------------------

    async def submit(self, query,
                     category: "str | None" = None) -> tuple[int, dict]:
        target = "/v1/submit" if category is None else "/v1/subscribe"
        return await self._exchange(
            "POST", target, serve_request_body(query, category))

    async def withdraw(self, query_id: str) -> tuple[int, dict]:
        document = serve_request_to_dict(ServeRequest(
            op="withdraw", query_id=query_id))
        return await self.request("POST", "/v1/withdraw", document)

    async def tick(self) -> tuple[int, dict]:
        return await self.request("POST", "/v1/tick")

    async def report(self) -> tuple[int, dict]:
        return await self.request("GET", "/v1/report")

    async def health(self) -> tuple[int, dict]:
        return await self.request("GET", "/healthz")

    async def metrics(self) -> tuple[int, dict]:
        return await self.request("GET", "/metrics")


@dataclass
class LoadgenResult:
    """What a load run measured."""

    arrivals: str
    requests: int
    completed: int
    errors: int
    retries: int
    ticks: int
    elapsed_s: float
    requests_per_s: float
    latency_ms: dict[str, float]
    #: final HTTP status → count.
    statuses: dict[str, int] = field(default_factory=dict)
    #: query ids in completion order (submission order at
    #: ``concurrency=1``).
    query_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "requests": self.requests,
            "completed": self.completed,
            "errors": self.errors,
            "retries": self.retries,
            "ticks": self.ticks,
            "elapsed_s": round(self.elapsed_s, 6),
            "requests_per_s": round(self.requests_per_s, 3),
            "latency_ms": self.latency_ms,
            "statuses": dict(self.statuses),
        }


def materialize(arrivals: object, requests: int) -> list[Arrival]:
    """The first *requests* arrivals of a (seeded) process, up front."""
    process = resolve_arrivals(arrivals)
    out: list[Arrival] = []
    while len(out) < int(requests):
        arrival = process.next_arrival()
        if arrival is None:
            break
        out.append(arrival)
    if not out:
        raise ValidationError(
            f"arrival process {arrivals!r} produced no arrivals")
    return out


async def run_load(
    host: str,
    port: int,
    *,
    arrivals: object = "poisson:rate=5",
    requests: int = 100,
    concurrency: int = 4,
    tick_every: "int | None" = None,
    max_attempts: int = 5,
) -> LoadgenResult:
    """Drive *requests* seeded submissions at the gateway.

    ``concurrency`` workers share one pre-materialized arrival list;
    each worker owns a keep-alive connection and a distinct
    ``x-client-id`` (so per-client rate limits behave as in
    production).  ``tick_every`` runs a period settle after every that
    many completed submissions — the open-loop analogue of the
    simulator's period boundary.
    """
    require(int(requests) >= 1, "requests must be >= 1")
    require(int(concurrency) >= 1, "concurrency must be >= 1")
    require(int(max_attempts) >= 1, "max_attempts must be >= 1")
    spec_label = str(arrivals)
    work = materialize(arrivals, requests)
    queue: asyncio.Queue = asyncio.Queue()
    for arrival in work:
        queue.put_nowait(arrival)

    statuses: Counter = Counter()
    latencies: list[float] = []
    query_ids: list[str] = []
    counts = {"retries": 0, "ticks": 0, "done": 0}

    async def drive(arrival: Arrival, client: GatewayClient) -> None:
        started = time.monotonic()
        status, _document = await client.submit(
            arrival.query, category=arrival.category)
        attempts = 1
        while status in (429, 503) and attempts < int(max_attempts):
            # Honour the server's Retry-After (with a small growing
            # backoff as the floor when the header is absent).
            counts["retries"] += 1
            backoff = 0.01 * attempts
            advised = client.last_headers.get("retry-after")
            if advised is not None:
                try:
                    backoff = max(backoff, float(advised))
                except ValueError:
                    pass
            await asyncio.sleep(backoff)
            status, _document = await client.submit(
                arrival.query, category=arrival.category)
            attempts += 1
        latencies.append(time.monotonic() - started)
        statuses[str(status)] += 1
        counts["done"] += 1
        if status == 200:
            query_ids.append(arrival.query.query_id)
        if tick_every and counts["done"] % int(tick_every) == 0:
            counts["ticks"] += 1
            await client.tick()

    async def worker(index: int) -> None:
        client = GatewayClient(host, port, client_id=f"client{index}")
        try:
            while True:
                try:
                    arrival = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                try:
                    await drive(arrival, client)
                except HttpError as exc:
                    statuses[f"conn:{exc.status}"] += 1
        finally:
            await client.close()

    started = time.monotonic()
    await asyncio.gather(*(worker(index)
                           for index in range(int(concurrency))))
    elapsed = max(time.monotonic() - started, 1e-9)

    from repro.sim.metrics import percentile_dict

    completed = sum(count for status, count in statuses.items()
                    if status == "200")
    errors = sum(statuses.values()) - completed
    return LoadgenResult(
        arrivals=spec_label,
        requests=len(work),
        completed=completed,
        errors=errors,
        retries=counts["retries"],
        ticks=counts["ticks"],
        elapsed_s=elapsed,
        requests_per_s=len(work) / elapsed,
        latency_ms=percentile_dict(
            [seconds * 1000.0 for seconds in latencies]),
        statuses=dict(statuses),
        query_ids=query_ids,
    )

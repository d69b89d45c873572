"""Seeded load generation: determinism and measurement plumbing."""

import asyncio
import json

import pytest

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import cluster_report_to_dict
from repro.serve import (
    AdmissionGateway,
    GatewayConfig,
    LoadgenResult,
    materialize,
    run_load,
)
from repro.serve.http import HttpError
from repro.serve.loadgen import GatewayClient
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.serve

ARRIVALS = "poisson:rate=5,seed=11"


def build_cluster():
    return FederatedAdmissionService.build(
        num_shards=2,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=20.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="round-robin",
    )


def wide_open_config():
    return GatewayConfig(quiet=True, client_rate=100_000.0,
                         client_burst=100_000.0)


class TestMaterialize:
    def test_same_spec_same_arrivals(self):
        first = materialize(ARRIVALS, 20)
        second = materialize(ARRIVALS, 20)
        assert [a.query.query_id for a in first] == [
            a.query.query_id for a in second]
        assert [a.query.bid for a in first] == [
            a.query.bid for a in second]

    def test_different_seed_different_arrivals(self):
        first = materialize(ARRIVALS, 20)
        other = materialize("poisson:rate=5,seed=12", 20)
        assert ([a.query.bid for a in first]
                != [a.query.bid for a in other])

    def test_empty_process_rejected(self):
        from repro.sim.arrivals import ArrivalProcess

        class Exhausted(ArrivalProcess):
            def next_arrival(self):
                return None

        with pytest.raises(ValidationError, match="no arrivals"):
            materialize(Exhausted(), 5)

    def test_validates_request_count(self):
        with pytest.raises(ValidationError):
            asyncio.run(run_load("127.0.0.1", 1, requests=0))

    def test_process_fan_out_is_gone(self):
        with pytest.raises(TypeError, match="processes"):
            run_load("127.0.0.1", 1, requests=1, processes=2)


class TestSeededRuns:
    def test_sequential_replay_is_deterministic(self):
        """Two identical gateways fed the same seeded load settle to
        byte-identical cluster reports and the same accepted ids."""

        async def one_run():
            cluster = build_cluster()
            gateway = AdmissionGateway(cluster, wide_open_config())
            await gateway.start()
            host, port = gateway.address
            result = await run_load(
                host, port, arrivals=ARRIVALS, requests=24,
                concurrency=1, tick_every=8)
            await gateway.stop()
            reports = [json.dumps(cluster_report_to_dict(report),
                                  sort_keys=True)
                       for report in cluster.reports]
            return result, reports

        async def go():
            first, first_reports = await one_run()
            second, second_reports = await one_run()
            assert first.completed == 24
            assert first.errors == 0
            assert first.query_ids == second.query_ids
            assert first.ticks == second.ticks == 3
            assert first_reports == second_reports

        asyncio.run(go())

    def test_concurrent_load_completes_and_measures(self):
        async def go():
            gateway = AdmissionGateway(build_cluster(),
                                       wide_open_config())
            await gateway.start()
            host, port = gateway.address
            result = await run_load(
                host, port, arrivals=ARRIVALS, requests=30,
                concurrency=4, tick_every=10)
            await gateway.stop()
            return result

        result = asyncio.run(go())
        assert isinstance(result, LoadgenResult)
        assert result.completed == 30
        assert result.statuses == {"200": 30}
        assert result.requests_per_s > 0.0
        assert set(result.latency_ms) == {"p50", "p95", "p99"}
        assert result.elapsed_s > 0.0
        document = result.to_dict()
        assert document["requests"] == 30
        assert document["statuses"] == {"200": 30}

    def test_retry_after_is_honoured(self):
        """A throttled submit sleeps for the server's Retry-After —
        the fixed 0.01s·attempts floor alone (≈0.45s over ten tries)
        would exhaust the attempts before a 1 token/s bucket refills."""

        async def go():
            gateway = AdmissionGateway(
                build_cluster(),
                GatewayConfig(quiet=True, client_rate=1.0,
                              client_burst=1))
            await gateway.start()
            host, port = gateway.address
            started = asyncio.get_running_loop().time()
            result = await run_load(
                host, port, arrivals=ARRIVALS, requests=2,
                concurrency=1, max_attempts=10)
            elapsed = asyncio.get_running_loop().time() - started
            await gateway.stop()
            return result, elapsed

        result, elapsed = asyncio.run(go())
        assert result.completed == 2
        assert result.retries >= 1
        # The second submit waited out the advised refill (~1s).
        assert elapsed >= 0.5

    def test_loadgen_retries_through_throttling(self):
        """A throttled client backs off and still lands every query."""

        async def go():
            gateway = AdmissionGateway(
                build_cluster(),
                GatewayConfig(quiet=True, client_rate=50.0,
                              client_burst=5))
            await gateway.start()
            host, port = gateway.address
            result = await run_load(
                host, port, arrivals=ARRIVALS, requests=15,
                concurrency=1, max_attempts=50)
            await gateway.stop()
            return result, gateway.counters["throttled"]

        result, throttled = asyncio.run(go())
        assert result.completed == 15
        assert throttled > 0
        assert result.retries >= throttled


class ScriptedServer:
    """A loopback server whose connections follow a script.

    Each accepted connection takes the next entry of *plan*: an async
    function ``(reader, writer, log)`` that reads and answers (or
    fails to answer) however the case needs.  *log* collects
    ``(connection index, request line)`` for every request read, so a
    test can count what reached the server and over which connection.
    """

    def __init__(self, *plan) -> None:
        self.plan = list(plan)
        self.log: list[tuple[int, str]] = []
        self.connections = 0
        self.server = None

    async def __aenter__(self) -> "ScriptedServer":
        self.server = await asyncio.start_server(
            self._accept, "127.0.0.1", 0)
        return self

    async def __aexit__(self, *_exc) -> None:
        self.server.close()
        await self.server.wait_closed()

    @property
    def port(self) -> int:
        return self.server.sockets[0].getsockname()[1]

    async def _accept(self, reader, writer) -> None:
        index = self.connections
        self.connections += 1
        try:
            await self.plan[index](reader, writer, self.log, index)
        finally:
            writer.close()

    @staticmethod
    async def read_one(reader, log, index) -> bool:
        """Read one request; log it; False on a clean close."""
        from repro.serve.http import read_request

        request = await read_request(reader)
        if request is None:
            return False
        log.append((index, f"{request.method} {request.path}"))
        return True


OK_BODY = b'{"status":"ok"}'
OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      b"Content-Length: %d\r\nConnection: keep-alive\r\n"
      b"Retry-After: 0.25\r\n\r\n" % len(OK_BODY)) + OK_BODY


async def answer_forever(reader, writer, log, index):
    while await ScriptedServer.read_one(reader, log, index):
        writer.write(OK)
        await writer.drain()


async def answer_once_then_close(reader, writer, log, index):
    await ScriptedServer.read_one(reader, log, index)
    writer.write(OK)
    await writer.drain()


async def read_then_close(reader, writer, log, index):
    await ScriptedServer.read_one(reader, log, index)


class TestClientTransport:
    """The client's resend rule and its response framing, pinned
    against a scripted server."""

    def test_idle_close_of_a_seasoned_connection_resends_once(self):
        async def go():
            async with ScriptedServer(answer_once_then_close,
                                      answer_forever) as server:
                async with GatewayClient("127.0.0.1", server.port) as c:
                    first = await c.health()
                    await asyncio.sleep(0.05)   # the server closes, idle
                    second = await c.health()
                return first, second, server.log, c.last_headers

        first, second, log, headers = asyncio.run(go())
        assert first[0] == second[0] == 200
        assert second[1] == {"status": "ok"}
        # The second request reached the server once, on a new
        # connection.
        assert log == [(0, "GET /healthz"), (1, "GET /healthz")]
        assert headers["retry-after"] == "0.25"

    def test_first_exchange_failure_is_503_and_never_resent(self):
        async def go():
            async with ScriptedServer(read_then_close,
                                      answer_forever) as server:
                async with GatewayClient("127.0.0.1", server.port) as c:
                    with pytest.raises(HttpError) as excinfo:
                        await c.tick()
                    # The connection that failed is gone; the next
                    # request opens another and goes through.
                    after = await c.health()
                return excinfo.value, after, server.log

        error, after, log = asyncio.run(go())
        assert error.status == 503
        assert "closed the connection" in error.message
        # The tick reached the server exactly once: it could not
        # settle twice.
        assert log == [(0, "POST /v1/tick"), (1, "GET /healthz")]
        assert after[0] == 200

    def test_a_resend_that_fails_again_is_503(self):
        """A seasoned connection that dies mid-exchange gets one
        resend, on a fresh connection; that one's failure is final."""

        async def go():
            async def answer_then_read_then_close(reader, writer, log,
                                                  index):
                await ScriptedServer.read_one(reader, log, index)
                writer.write(OK)
                await writer.drain()
                await ScriptedServer.read_one(reader, log, index)

            async with ScriptedServer(answer_then_read_then_close,
                                      read_then_close) as server:
                async with GatewayClient("127.0.0.1", server.port) as c:
                    await c.health()
                    with pytest.raises(HttpError) as excinfo:
                        await c.tick()
                return excinfo.value, server.log

        error, log = asyncio.run(go())
        assert error.status == 503
        assert log == [(0, "GET /healthz"), (0, "POST /v1/tick"),
                       (1, "POST /v1/tick")]

    def test_a_response_one_byte_per_segment_parses(self):
        async def go():
            async def trickle(reader, writer, log, index):
                await ScriptedServer.read_one(reader, log, index)
                for at in range(len(OK)):
                    writer.write(OK[at:at + 1])
                    await writer.drain()
                    await asyncio.sleep(0.001)

            async with ScriptedServer(trickle) as server:
                async with GatewayClient("127.0.0.1", server.port) as c:
                    return await c.health(), c.last_headers

        (status, body), headers = asyncio.run(go())
        assert (status, body) == (200, {"status": "ok"})
        assert headers["content-length"] == str(len(OK_BODY))

    def test_a_peer_closing_mid_body_is_400(self):
        async def go():
            async def cut(reader, writer, log, index):
                await ScriptedServer.read_one(reader, log, index)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 50"
                             b"\r\n\r\nshort")
                await writer.drain()

            async with ScriptedServer(cut) as server:
                async with GatewayClient("127.0.0.1", server.port) as c:
                    with pytest.raises(HttpError) as excinfo:
                        await c.health()
                return excinfo.value, server.log

        error, log = asyncio.run(go())
        assert error.status == 400
        assert "mid-body (5/50 bytes)" in error.message
        assert log == [(0, "GET /healthz")]

    def test_a_body_over_8_mib_is_413(self):
        async def go():
            async def huge(reader, writer, log, index):
                await ScriptedServer.read_one(reader, log, index)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d"
                             b"\r\n\r\n" % ((8 << 20) + 1))
                await writer.drain()
                await asyncio.sleep(0.05)

            async with ScriptedServer(huge) as server:
                async with GatewayClient("127.0.0.1", server.port) as c:
                    with pytest.raises(HttpError) as excinfo:
                        await c.health()
                return excinfo.value

        assert asyncio.run(go()).status == 413

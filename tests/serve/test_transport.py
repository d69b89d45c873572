"""The gateway's transport over real sockets.

One ``asyncio.Protocol`` per connection answers a request in the
callback that read it when nothing has to wait, and hands it to the
connection's one task when something does.  These tests pin what that
must not change: answers in request order with pipelined requests run
in order, flow control in both directions, framing refused before any
handler runs, a disconnect that leaves nothing held, and a shutdown
that closes idle keep-alive connections.
"""

import asyncio
import inspect
import json
import socket
import time

import pytest

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import ServeRequest, serve_request_to_dict
from repro.serve import AdmissionGateway, GatewayClient, GatewayConfig
from repro.serve.http import (
    RequestParser,
    json_body,
    read_response,
    render_request,
)
from tests.strategies import select_query

pytestmark = pytest.mark.serve


def build_cluster():
    return FederatedAdmissionService.build(
        num_shards=2,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=20.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="round-robin",
    )


def query(n: int):
    return select_query(f"q{n}", f"owner{n}", bid=4.0, cost=1.0)


def submit_bytes(n: int) -> bytes:
    document = serve_request_to_dict(ServeRequest(op="submit",
                                                  query=query(n)))
    return render_request("POST", "/v1/submit", json_body(document))


def withdraw_bytes(query_id: str) -> bytes:
    document = serve_request_to_dict(ServeRequest(op="withdraw",
                                                  query_id=query_id))
    return render_request("POST", "/v1/withdraw", json_body(document))


def parsed(raw: bytes):
    parser = RequestParser()
    parser.feed(raw)
    return parser.next_request()


async def started_gateway(**overrides) -> AdmissionGateway:
    gateway = AdmissionGateway(build_cluster(),
                               GatewayConfig(quiet=True, **overrides))
    await gateway.start()
    return gateway


async def eventually(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


class TestAnsweringPath:
    def test_inline_only_when_nothing_waits(self):
        """A submit that finds the lock free is answered by
        ``_respond`` itself; one that finds it held, and every tick,
        is an awaitable finished later — with the same answer."""

        async def go():
            gateway = await started_gateway()
            answer = gateway._respond(parsed(submit_bytes(1)), "peer")
            assert isinstance(answer, tuple)
            assert answer[0].startswith(b"HTTP/1.1 200 OK")
            await gateway._lock.acquire()
            answer = gateway._respond(parsed(submit_bytes(2)), "peer")
            assert inspect.isawaitable(answer)
            assert gateway.backend.pending_count() == 1   # not yet run
            gateway._lock.release()
            payload, keep_alive = await answer
            assert payload.startswith(b"HTTP/1.1 200 OK") and keep_alive
            tick = gateway._respond(
                parsed(render_request("POST", "/v1/tick")), "peer")
            assert inspect.isawaitable(tick)
            payload, _ = await tick
            assert payload.startswith(b"HTTP/1.1 200 OK")
            assert gateway._inflight == 0
            await gateway.stop(final_settle=False)

        asyncio.run(go())

    def test_no_request_jumps_the_lock_queue(self):
        """Right after a release hands the lock to a queued request —
        before that request has run — the lock reads free, yet a new
        request must not take it inline."""

        async def go():
            gateway = await started_gateway(lock_patience=5.0,
                                            fast_timeout=5.0)
            await gateway._lock.acquire()
            queued = asyncio.ensure_future(
                gateway._respond(parsed(submit_bytes(1)), "peer"))
            await asyncio.sleep(0.02)          # parked on the lock
            gateway._lock.release()
            late = gateway._respond(parsed(submit_bytes(2)), "peer")
            assert inspect.isawaitable(late)
            first, _ = await queued
            second, _ = await late
            await gateway.stop(final_settle=False)
            return first, second

        first, second = asyncio.run(go())
        body = [json.loads(payload.split(b"\r\n\r\n", 1)[1])
                for payload in (first, second)]
        assert [(b["query_id"], b["pending"]) for b in body] == [
            ("q1", 1), ("q2", 2)]

    def test_pipelined_requests_run_and_answer_in_order(self):
        """submit, tick, submit, withdraw in one segment: the tick
        waits on a worker thread, and the second submit is neither run
        nor answered until the settle is over."""

        async def go():
            gateway = await started_gateway()
            reader, writer = await asyncio.open_connection(
                *gateway.address)
            writer.write(submit_bytes(1)
                         + render_request("POST", "/v1/tick")
                         + submit_bytes(2) + withdraw_bytes("q2"))
            answers = [await read_response(reader) for _ in range(4)]
            writer.close()
            await gateway.stop(final_settle=False)
            return answers, gateway

        answers, gateway = asyncio.run(go())
        assert [answer.status for answer in answers] == [200] * 4
        submit1, tick, submit2, withdraw = (
            answer.json() for answer in answers)
        assert [body["request_id"] for body in
                (submit1, tick, submit2, withdraw)] == [
            "r000001", "r000002", "r000003", "r000004"]
        assert (submit1["query_id"], submit1["period"]) == ("q1", 0)
        assert tick["period"] == 1
        settled = json.dumps(tick["report"])
        assert "q1" in settled and "q2" not in settled
        # Run after the settle: it joins period 1's queue.
        assert (submit2["query_id"], submit2["period"]) == ("q2", 1)
        assert withdraw["withdrawn"] and withdraw["pending"] == 0
        assert gateway.backend.pending_count() == 0

    def test_random_paths_leave_metrics_the_same_size(self):
        """Every unrouted path counts under one key: made-up paths
        cannot grow ``/metrics`` one entry at a time."""

        async def go():
            gateway = await started_gateway()
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.request("GET", "/nope")
                assert status == 404
                before = gateway.metrics_document()["requests"]
                for index in range(300):
                    status, _ = await client.request(
                        "GET", f"/nope-{index}")
                    assert status == 404
                after = gateway.metrics_document()["requests"]
            await gateway.stop(final_settle=False)
            return before, after

        before, after = asyncio.run(go())
        assert after.keys() == before.keys()
        assert after["(unrouted):404"] == 301
        assert not any("nope" in key for key in after)


class TestFraming:
    @pytest.mark.parametrize("head,status", [
        (b"Transfer-Encoding: chunked\r\n", 501),
        (b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n", 400),
    ])
    def test_transfer_encoding_is_refused_before_the_tick_runs(
            self, head, status):
        """Read as an empty body, a chunked tick would settle and its
        chunks would be parsed as the next request; refused, nothing
        settles and the connection closes."""

        async def go():
            gateway = await started_gateway()
            reader, writer = await asyncio.open_connection(
                *gateway.address)
            writer.write(submit_bytes(1))
            submitted = await read_response(reader)
            writer.write(b"POST /v1/tick HTTP/1.1\r\nHost: x\r\n" + head
                         + b"\r\n0\r\n\r\n"
                         + render_request("GET", "/healthz"))
            refused = await read_response(reader)
            rest = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            period = gateway.backend.period
            pending = gateway.backend.pending_count()
            await gateway.stop(final_settle=False)
            return submitted, refused, rest, period, pending

        submitted, refused, rest, period, pending = asyncio.run(go())
        assert submitted.status == 200
        assert refused.status == status
        assert refused.headers["connection"] == "close"
        assert "Transfer-Encoding" in refused.json()["error"]
        assert rest == b""                  # closed, healthz unanswered
        assert (period, pending) == (0, 1)


    @pytest.mark.parametrize("head", [
        b"POST /v1/tick HTTP/1.1\r\nContent-Length: +0\r\n",
        b"POST /v1/tick HTTP/1.1\r\nContent-Length: 0\r\n"
        b"Content-Length: 2\r\n",
        b"POST /v1/tick HTTP/1.1\r\nContent-Length : 0\r\n",
        b"{}POST /v1/tick HTTP/1.1\r\nContent-Length: 0\r\n",
    ], ids=["signed-length", "conflicting-lengths", "space-before-colon",
            "method-not-a-token"])
    def test_ambiguous_head_runs_nothing(self, head):
        """A tick whose framing could be read two ways is answered 400
        and the connection closes: neither it nor the tick pipelined
        behind it settles."""

        async def go():
            gateway = await started_gateway()
            reader, writer = await asyncio.open_connection(
                *gateway.address)
            writer.write(submit_bytes(1))
            submitted = await read_response(reader)
            writer.write(head + b"Host: x\r\n\r\n"
                         + render_request("POST", "/v1/tick"))
            refused = await read_response(reader)
            rest = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            period = gateway.backend.period
            pending = gateway.backend.pending_count()
            await gateway.stop(final_settle=False)
            return submitted, refused, rest, period, pending

        submitted, refused, rest, period, pending = asyncio.run(go())
        assert submitted.status == 200
        assert refused.status == 400
        assert refused.headers["connection"] == "close"
        assert rest == b""
        assert (period, pending) == (0, 1)


class TestFlowControl:
    def test_a_peer_that_never_reads_is_paused_not_buffered(self):
        """Answers pile up unread: the connection stops taking
        requests, then stops reading, and what it holds stays bounded
        however much more the peer sends.  Once the peer reads, every
        request is answered."""

        async def go():
            gateway = await started_gateway()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, gateway.address)
            reader, writer = await asyncio.open_connection(sock=sock)
            await eventually(lambda: gateway._connections)
            (connection,) = gateway._connections
            connection.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            request = render_request("GET", "/healthz")
            sent = 0
            while connection.transport.is_reading():
                assert sent < 200_000, "the server never paused reading"
                writer.write(request * 100)
                sent += 100
                await asyncio.sleep(0.001)
            assert connection.writing_paused
            held = connection.parser.buffered
            assert held < 512 * 1024
            assert connection.transport.get_write_buffer_size() < (
                128 * 1024)
            writer.write(request * 2000)        # more, while paused
            sent += 2000
            await asyncio.sleep(0.2)
            assert not connection.transport.is_reading()
            assert connection.parser.buffered == held
            writer.write_eof()
            answers = await asyncio.wait_for(reader.read(), 60.0)
            await gateway.stop(final_settle=False)
            return sent, answers

        sent, answers = asyncio.run(go())
        assert answers.count(b"HTTP/1.1 200 OK\r\n") == sent


class TestDisconnectAndShutdown:
    def test_disconnect_while_queued_for_the_lock_leaves_nothing_held(
            self):
        async def go():
            gateway = await started_gateway(lock_patience=5.0,
                                            fast_timeout=5.0)
            await gateway._lock.acquire()      # a settle in progress
            reader, writer = await asyncio.open_connection(
                *gateway.address)
            writer.write(submit_bytes(1))
            await eventually(lambda: gateway._inflight == 1)
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            gateway._lock.release()
            await eventually(lambda: gateway._inflight == 0
                             and not gateway._connections)
            assert not gateway._lock.locked()
            # Its request ran, as it would have had the peer stayed.
            assert gateway.backend.pending_count() == 1
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.submit(query(2))
            assert status == 200
            await gateway.stop(final_settle=False)

        asyncio.run(go())

    def test_stop_closes_idle_keep_alive_connections(self):
        async def go():
            gateway = await started_gateway()
            reader, writer = await asyncio.open_connection(
                *gateway.address)
            writer.write(render_request("GET", "/healthz"))
            answer = await read_response(reader)
            assert answer.status == 200
            assert answer.headers["connection"] == "keep-alive"
            await asyncio.wait_for(gateway.stop(final_settle=False), 5.0)
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            assert not gateway._connections
            writer.close()

        asyncio.run(go())

    def test_stop_closes_connections_before_waiting_on_the_server(
            self, monkeypatch):
        # From Python 3.12.1 ``Server.wait_closed`` returns only once
        # every connection has dropped.  Give older versions that rule
        # too, so a stop() that waits on the server before closing its
        # keep-alive connections hangs here on every version.
        async def wait_closed(server):
            if server._waiters is None:
                return
            waiter = server._loop.create_future()
            server._waiters.append(waiter)
            await waiter

        monkeypatch.setattr(asyncio.base_events.Server, "wait_closed",
                            wait_closed)
        self.test_stop_closes_idle_keep_alive_connections()

"""Gateway integration tests over real loopback sockets.

Every test stands up a real :class:`AdmissionGateway` on an ephemeral
port and drives it with :class:`GatewayClient`; the interesting cases
are the *failure* paths — bursts that must be throttled, settles that
outlive their caller, a retry budget run dry, and shutdown with work
still pending.
"""

import asyncio
import base64
import json
import pickle
import re
import time

import pytest

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.serve import (
    AdmissionGateway,
    GatewayClient,
    GatewayConfig,
    HostBackend,
    REDACTED,
)
from repro.io import (
    ServeRequest,
    serve_request_to_dict,
    serve_response_to_dict,
)
from repro.serve.http import HttpResponse, json_body
from repro.sim import SimulationDriver, SubscriptionOptions
from tests.strategies import select_query

pytestmark = pytest.mark.serve

QUIET = {"quiet": True}


def build_cluster(shards: int = 2, seed: int = 0):
    return FederatedAdmissionService.build(
        num_shards=shards,
        sources=[SyntheticStream("s", rate=2.0, seed=seed)],
        capacity=20.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="round-robin",
    )


def query(n: int, bid: float = 4.0):
    return select_query(f"q{n}", f"owner{n}", bid=bid, cost=1.0)


async def started_gateway(target, **overrides):
    config = GatewayConfig(**{**QUIET, **overrides})
    gateway = AdmissionGateway(target, config)
    await gateway.start()
    return gateway


@pytest.mark.parametrize("overrides,field,argv", [
    ({"tick_interval": -1.0}, "tick_interval", ["--tick-interval", "-1"]),
    ({"tick_interval": 0.0}, "tick_interval", None),
    ({"client_rate": -5.0}, "client_rate", ["--client-rate", "-5"]),
    ({"client_burst": 0.0}, "client_burst", ["--client-burst", "0"]),
    ({"peer_rate": 0.0}, "peer_rate", None),
    ({"retry_initial": 2.0, "retry_cap": 1.0}, "retry_cap", None),
    ({"retry_deposit": -0.1}, "retry_deposit", None),
    ({"max_body": 0}, "max_body", None),
    ({"compact_every": -1}, "compact_every", None),
])
def test_config_refuses_at_construction_what_cannot_work_at_run_time(
        overrides, field, argv, capsys):
    """An operator's typo is the operator's error, once, at start-up —
    not a 400 billed to every client or a tick loop that never sleeps."""
    from repro.__main__ import main
    from repro.utils.validation import ValidationError

    with pytest.raises(ValidationError, match=field):
        GatewayConfig(**overrides)
    if argv is not None:
        assert main(["serve", *argv]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1 and field in error, error
        assert error.startswith("repro: error:"), error


def test_config_accepts_the_wide_open_rates_the_benchmarks_use():
    config = GatewayConfig(quiet=True, client_rate=1e9, client_burst=1e9,
                           peer_rate=1e9, peer_burst=1e9)
    assert config.tick_interval is None and config.compact_every == 64


class TestHappyPath:
    def test_submit_tick_report_round_trip(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            host, port = gateway.address
            async with GatewayClient(host, port) as client:
                for n in range(4):
                    status, body = await client.submit(query(n))
                    assert status == 200
                    assert body["query_id"] == f"q{n}"
                    assert body["shard"] in (0, 1)
                status, health = await client.health()
                assert status == 200
                assert health["status"] == "ok"
                assert health["pending"] == 4
                status, ticked = await client.tick()
                assert status == 200
                assert ticked["period"] == 1
                admitted = [qid for shard in ticked["report"]["shards"]
                            for qid in shard["admitted"]]
                assert sorted(admitted) == ["q0", "q1", "q2", "q3"]
                status, report = await client.report()
                assert status == 200
                assert report["period"] == 1
                # /v1/report re-serves the settled period's report.
                assert report["report"] == ticked["report"]
            await gateway.stop()

        asyncio.run(go())

    def test_metrics_exposes_shards_and_latency(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            host, port = gateway.address
            async with GatewayClient(host, port) as client:
                await client.submit(query(0))
                status, metrics = await client.metrics()
            await gateway.stop()
            assert status == 200
            assert metrics["schema"] == "repro/serve-metrics"
            assert len(metrics["shards"]) == 2
            assert metrics["pending"] == 1
            assert metrics["latency_ms"]["fast"]["p50"] >= 0.0
            assert metrics["requests"]["/v1/submit:200"] == 1
            assert metrics["backpressure"]["throttled"] == 0

        asyncio.run(go())


class TestInProcessEquivalence:
    def test_reports_byte_identical_to_in_process(self, monkeypatch):
        """The gateway adds transport, never semantics: two batches
        over the wire settle to the tick bodies the dict path renders
        for the same submissions made by direct calls, byte for byte."""
        from repro.serve.gateway import report_document

        def build():
            return FederatedAdmissionService.build(
                num_shards=4,
                sources=[SyntheticStream("s", rate=2.0, seed=0)],
                capacity=20.0, mechanism="CAT", ticks_per_period=4,
                placement="consistent-hash")

        batches = [
            [select_query(f"q{i}", f"owner{i}", bid=4.0 + (i % 3),
                          cost=1.0) for i in range(start, start + 10)]
            for start in (0, 10)]

        backend = HostBackend(build())
        expected = []
        for batch in batches:
            for each in batch:
                backend.submit(each)
            report = backend.tick()
            expected.append((backend.period, report_document(report)))

        bodies = []
        parse = HttpResponse.json
        monkeypatch.setattr(HttpResponse, "json", lambda response: (
            bodies.append(response.body), parse(response))[1])

        async def go():
            gateway = await started_gateway(build())
            ticks = []
            try:
                async with GatewayClient(*gateway.address) as client:
                    for batch in batches:
                        for each in batch:
                            status, body = await client.submit(each)
                            assert status == 200, body
                        status, body = await client.tick()
                        assert status == 200, body
                        ticks.append((body["request_id"], bodies[-1]))
            finally:
                await gateway.stop(final_settle=False)
            return ticks

        ticks = asyncio.run(go())
        assert [raw for _rid, raw in ticks] == [
            json_body(serve_response_to_dict(
                "ok", rid, period=period, report=document))
            for (rid, _raw), (period, document) in zip(ticks, expected)]


    def test_report_answers_differ_only_in_request_id(self, monkeypatch):
        """Two /v1/report answers between settles share the rendered
        report; each is the dict path's body for its own request id."""
        from tests.serve.test_report_body import dict_bodies

        bodies = []
        parse = HttpResponse.json
        monkeypatch.setattr(HttpResponse, "json", lambda response: (
            bodies.append(response.body), parse(response))[1])

        async def go():
            gateway = await started_gateway(build_cluster(shards=4))
            answers = []
            try:
                async with GatewayClient(*gateway.address) as client:
                    for n in range(6):
                        status, body = await client.submit(query(n, 4.0 + n))
                        assert status == 200, body
                    status, body = await client.tick()
                    assert status == 200, body
                    for _ in range(2):
                        status, body = await client.report()
                        assert status == 200, body
                        answers.append((body["request_id"], bodies[-1]))
                    backend = gateway.backend
                    settled = (backend.period, backend.last_report,
                               backend.total_revenue())
            finally:
                await gateway.stop(final_settle=False)
            return answers, settled

        answers, (period, report, revenue) = asyncio.run(go())
        (first_id, first), (second_id, second) = answers
        assert first_id != second_id
        assert first.replace(first_id.encode(), second_id.encode()) == second
        for request_id, raw in answers:
            assert raw == dict_bodies(request_id, period, report, revenue)[1]


class TestProtocolErrors:
    def test_unknown_endpoint_404(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.request("GET", "/v2/nope")
            await gateway.stop()
            assert status == 404
            assert "/v2/nope" in body["error"]

        asyncio.run(go())

    def test_wrong_method_405(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.request("GET", "/v1/tick")
            await gateway.stop()
            assert status == 405
            assert "POST" in body["error"]

        asyncio.run(go())

    def test_bad_json_body_400(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.request(
                    "POST", "/v1/submit", {"schema": "wrong"})
            await gateway.stop()
            assert status == 400
            assert "serve request" in body["error"]

        asyncio.run(go())

    def test_duplicate_query_id_400_via_driver_backend(self):
        async def go():
            driver = SimulationDriver(build_cluster())
            gateway = await started_gateway(driver)
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.submit(query(1))
                assert status == 200
                status, body = await client.submit(query(1))
            await gateway.stop(final_settle=False)
            assert status == 400
            assert "already submitted" in body["error"]

        asyncio.run(go())

    def test_unknown_stream_rejected_at_submit(self):
        """A plan over a stream no shard serves is the submitter's 400
        — not a poisoned settle for everyone else later."""

        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                bad = select_query("qx", "mallory", bid=9.0, cost=1.0,
                                   stream="no_such_stream")
                status, body = await client.submit(bad)
                assert status == 400
                assert "no_such_stream" in body["error"]
                # The period still settles cleanly afterwards.
                await client.submit(query(1))
                status, ticked = await client.tick()
                assert status == 200
                assert ticked["period"] == 1
            await gateway.stop()

        asyncio.run(go())

    def test_plan_that_would_wedge_the_auction_rejected_at_submit(self):
        """A redefined live operator and a negative valuation each used
        to pass submit and fail every later tick for everyone."""
        import dataclasses

        from repro.dsms.operators import SelectOperator
        from repro.dsms.plan import ContinuousQuery
        from repro.sim.arrivals import pass_all

        async def go():
            gateway = await started_gateway(build_cluster(shards=1))
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.submit(query(1))
                assert status == 200
                redefined = SelectOperator(
                    "sel_q1", "s", pass_all, cost_per_tuple=7.0)
                status, body = await client.submit(ContinuousQuery(
                    "thief", (redefined,), sink_id="sel_q1", bid=9.0))
                assert status == 400
                assert "conflicting costs" in body["error"]
                status, body = await client.submit(
                    dataclasses.replace(query(2), valuation=-1.0))
                assert status == 400
                assert "valuation of query 'q2'" in body["error"]
                status, ticked = await client.tick()
                assert status == 200
                assert ticked["report"]["shards"][0]["admitted"] == ["q1"]
            await gateway.stop()

        asyncio.run(go())

    def test_withdraw_unknown_id_404(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.withdraw("ghost")
            await gateway.stop()
            assert status == 404
            assert "ghost" in body["error"]

        asyncio.run(go())

    @pytest.mark.parametrize("federated", [True, False])
    def test_withdraw_unknown_id_404_is_small_and_private(
            self, federated):
        """The 404 names the id that was asked for and nothing else —
        not the other clients' 1 000 pending ids."""
        async def go():
            cluster = build_cluster()
            gateway = await started_gateway(
                cluster if federated else cluster.shards[0])
            for n in range(1000):
                gateway.backend.submit(query(n))
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.withdraw("ghost")
            await gateway.stop(final_settle=False)
            return status, json.dumps(body)

        status, body = asyncio.run(go())
        assert status == 404
        assert len(body) < 512
        assert "ghost" in body
        assert not re.search(r"q\d", body)

    def test_subscribe_without_managers_409(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.submit(
                    query(1), category="day")
            await gateway.stop()
            assert status == 409
            assert "subscriptions" in body["error"]

        asyncio.run(go())


class TestSubscriptions:
    def test_subscribe_and_settle_through_driver(self):
        async def go():
            driver = SimulationDriver(
                build_cluster(),
                subscriptions=SubscriptionOptions(seed=0))
            gateway = await started_gateway(driver)
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.submit(
                    query(1), category="day")
                assert status == 200
                assert body["category"] == "day"
                status, ticked = await client.tick()
                assert status == 200
                assert "q1" in ticked["report"]["admitted"]
            await gateway.stop()

        asyncio.run(go())

    def test_unknown_category_400(self):
        async def go():
            driver = SimulationDriver(
                build_cluster(),
                subscriptions=SubscriptionOptions(seed=0))
            gateway = await started_gateway(driver)
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.submit(
                    query(1), category="fortnight")
            await gateway.stop(final_settle=False)
            assert status == 400
            assert "fortnight" in body["error"]

        asyncio.run(go())

    def test_withdraw_from_gateway_inbox(self):
        async def go():
            driver = SimulationDriver(build_cluster())
            gateway = await started_gateway(driver)
            async with GatewayClient(*gateway.address) as client:
                await client.submit(query(1))
                status, body = await client.withdraw("q1")
                assert status == 200
                assert body["withdrawn"]
                assert body["pending"] == 0
                status, ticked = await client.tick()
                assert all(shard["admitted"] == []
                           for shard in ticked["report"]["shards"])
            await gateway.stop()

        asyncio.run(go())


    def test_submit_and_withdraw_over_a_pumping_driver(self):
        """One arrival process over a single service resolves to the
        pump, so between ticks the driver parks its own arrivals as
        row chunks — which the duplicate-id check, the pending count
        and withdraw must read like any other parked query."""
        from repro.service import ServiceBuilder

        async def go():
            service = (ServiceBuilder()
                       .with_sources(SyntheticStream("s", rate=2.0, seed=0))
                       .with_capacity(20.0).with_mechanism("CAT")
                       .with_ticks_per_period(4).build())
            driver = SimulationDriver(
                service, arrivals="poisson:rate=5,seed=1",
                subscriptions=SubscriptionOptions(seed=1))
            assert driver.pump
            gateway = await started_gateway(driver)
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.tick()
                assert status == 200
                status, body = await client.submit(query(1))
                assert status == 200, body
                parked = list(driver.pending_ids())
                assert len(parked) > len(driver.pending[0]) >= 1
                assert body["pending"] == len(parked) + 1
                status, body = await client.submit(select_query(
                    parked[0], "owner", bid=4.0, cost=1.0))
                assert status == 400
                assert "already submitted" in body["error"]
                # A pumped row leaves by splitting its chunk.
                victim = parked[len(parked) // 2]
                status, body = await client.withdraw(victim)
                assert status == 200, body
                assert body["pending"] == len(parked)
                status, body = await client.withdraw(victim)
                assert status == 404
                status, ticked = await client.tick()
                assert status == 200
                seen = (ticked["report"]["admitted"]
                        + ticked["report"]["rejected"])
                assert victim not in seen
                assert set(parked) - {victim} <= set(seen)
                assert "q1" in seen
            await gateway.stop(final_settle=False)

        asyncio.run(go())


class TestWireHardening:
    def test_pickle_plan_refused_by_default(self, monkeypatch):
        """A pickle-encoded plan is the client's 400 on a default
        gateway — never bytes fed to ``pickle.loads``."""

        def loads(*_args, **_kwargs):
            raise AssertionError("wire bytes reached pickle.loads")

        document = serve_request_to_dict(
            ServeRequest(op="submit", query=query(1)))
        document["query"] = {
            "plan": "pickle", "id": "q1",
            "data": base64.b64encode(
                pickle.dumps(query(1))).decode("ascii")}
        monkeypatch.setattr(pickle, "loads", loads)

        async def go():
            gateway = AdmissionGateway(
                build_cluster(), GatewayConfig(quiet=True))
            await gateway.start()
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.request(
                    "POST", "/v1/submit", document)
            await gateway.stop(final_settle=False)
            assert status == 400
            assert "pickle" in body["error"]
            assert gateway.backend.pending_count() == 0

        asyncio.run(go())

    @pytest.mark.parametrize("field, value, says", [
        ("cost", float("nan"), "'q0': cost must be a finite"),
        ("cost", float("inf"), "'q0': cost must be a finite"),
        ("cost", 10 ** 400, "malformed trace query entry"),
        ("selectivity", float("nan"), "'q0': selectivity must be"),
        ("bid", float("nan"), "'q0': bid must be a finite"),
        ("valuation", float("-inf"), "'q0': valuation must be"),
        ("owner", {"a": 1}, "'q0': owner must be a string"),
    ], ids=["cost-nan", "cost-inf", "cost-overflow", "selectivity-nan",
            "bid-nan", "valuation-inf", "owner-dict"])
    def test_unpriceable_plan_is_a_400_and_admits_nobody(
            self, field, value, says):
        """One NaN load used to pass every capacity comparison: the
        tick admitted everyone for free and answered with a body that
        was not JSON.  A body the auction cannot price is the
        client's 400, and the next tick is what it would have been."""
        attack = serve_request_to_dict(
            ServeRequest(op="submit", query=query(0, bid=9.0)))
        attack["query"][field] = value

        async def settle(attempt: bool):
            # Four load-6 plans against capacity 20: three fit.
            gateway = await started_gateway(build_cluster(shards=1))
            async with GatewayClient(*gateway.address) as client:
                if attempt:
                    status, body = await client.request(
                        "POST", "/v1/submit", attack)
                    assert status == 400
                    assert says in body["error"]
                for n in range(1, 5):
                    status, _ = await client.submit(select_query(
                        f"q{n}", f"owner{n}", bid=3.0 + n, cost=3.0))
                    assert status == 200
                status, ticked = await client.tick()
                assert status == 200
            await gateway.stop(final_settle=False)
            return ticked["report"]

        clean = asyncio.run(settle(False))
        assert asyncio.run(settle(True)) == clean
        json.dumps(clean, allow_nan=False)  # strictly valid JSON
        (shard,) = clean["shards"]
        assert len(shard["admitted"]) == 3

    @pytest.mark.parametrize(
        "target", ["service", "federation", "driver",
                   "driver+subscriptions"])
    def test_overflowing_load_is_rejected_and_the_period_clears(
            self, target, monkeypatch):
        """A finite cost times the stream rate can overflow to an
        infinite load (1e308 × 2).  The submit is accepted, since a
        federation prices at the tick; the auction leaves that query
        out and reports it rejected, the query beside it is admitted,
        the next period settles normally, and every body is strict
        JSON.  The poisoned query outbids its neighbour, so GV would
        meet it first.  A driver with subscriptions prices each
        category's auction itself, and leaves it out the same way."""
        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        monkeypatch.setattr(
            HttpResponse, "json",
            lambda response: json.loads(response.body,
                                        parse_constant=reject))

        def outcome(report):
            shards = report.get("shards", [report])
            return ({q for shard in shards for q in shard["admitted"]},
                    {q for shard in shards for q in shard["rejected"]})

        cluster = FederatedAdmissionService.build(
            num_shards=4 if target == "federation" else 1,
            sources=[SyntheticStream("s", rate=2.0, seed=0)],
            capacity=100.0, mechanism="GV", ticks_per_period=4)
        host = cluster if target == "federation" else cluster.shards[0]

        if target == "driver":
            host = SimulationDriver(host)
        elif target == "driver+subscriptions":
            host = SimulationDriver(
                host, subscriptions=SubscriptionOptions(seed=0))
        category = "day" if target == "driver+subscriptions" else None

        async def go():
            gateway = await started_gateway(host)
            reports = []
            async with GatewayClient(*gateway.address) as client:
                for batch in (("poisoned", "harmless"), ("later",)):
                    for qid in batch:
                        poisoned = qid == "poisoned"
                        status, _ = await client.submit(select_query(
                            qid, "o", bid=20.0 if poisoned else 10.0,
                            cost=1e308 if poisoned else 1.0),
                            category=category)
                        assert status == 200
                    status, body = await client.tick()
                    assert status == 200
                    reports.append(body["report"])
            await gateway.stop(final_settle=False)
            return reports

        first, second = asyncio.run(go())
        assert outcome(first) == ({"harmless"}, {"poisoned"})
        assert outcome(second) == ({"harmless", "later"}, set())

    def test_operator_id_redefined_across_shards_cannot_wedge_a_tick(self):
        """Clients choose op ids, and each shard checks a redefinition
        only against its own queue.  qx loses on shard 0 and fits only
        on shard 1, which runs ``sel_x`` at another cost: it stays
        rejected, and every tick after it settles."""
        cluster = FederatedAdmissionService.build(
            num_shards=4, sources=[SyntheticStream("s", rate=2.0, seed=0)],
            capacity=10.0, mechanism="CAT", ticks_per_period=4,
            placement="round-robin")
        submits = [  # round-robin: shards 0, 1, 2, 3, 0
            select_query("big", "a", 100.0, 4.5),
            select_query("qy", "b", 50.0, 2.0, op_id="sel_x"),
            select_query("f2", "c", 10.0, 4.5),
            select_query("f3", "d", 10.0, 4.5),
            select_query("qx", "e", 1.0, 1.0, op_id="sel_x"),
        ]

        async def go():
            gateway = await started_gateway(cluster)
            async with GatewayClient(*gateway.address) as client:
                for submitted in submits:
                    assert (await client.submit(submitted))[0] == 200
                ticks = [await client.tick() for _ in range(3)]
            await gateway.stop(final_settle=False)
            return ticks

        ticks = asyncio.run(go())
        assert [status for status, _body in ticks] == [200] * 3
        first = ticks[0][1]["report"]
        assert first["migrations"] == []
        assert [shard["rejected"] for shard in first["shards"]] == [
            ["qx"], [], [], []]

    def test_client_id_rotation_cannot_duck_the_peer_floor(self):
        """Rotating x-client-id buys no rate: the per-peer-address
        bucket still throttles the connection's sixth request."""

        async def go():
            gateway = await started_gateway(
                build_cluster(), client_rate=10_000.0,
                client_burst=10_000.0, peer_rate=1.0, peer_burst=3)
            statuses = []
            async with GatewayClient(*gateway.address) as client:
                for n in range(6):
                    client.client_id = f"rotated{n}"
                    status, _ = await client.submit(query(n))
                    statuses.append(status)
            await gateway.stop(final_settle=False)
            assert statuses.count(200) == 3
            assert statuses.count(429) == 3
            assert gateway.counters["throttled"] == 3

        asyncio.run(go())

    def test_bucket_table_is_bounded(self):
        """Client-chosen ids cannot grow the bucket table without
        bound; the longest-idle bucket is evicted."""

        async def go():
            gateway = await started_gateway(
                build_cluster(), max_tracked_clients=8)
            async with GatewayClient(*gateway.address) as client:
                for n in range(30):
                    client.client_id = f"ephemeral{n}"
                    await client.submit(query(n))
            await gateway.stop(final_settle=False)
            assert len(gateway._buckets) <= 8
            assert gateway.counters["buckets_evicted"] >= 22

        asyncio.run(go())

    def test_bucket_eviction_takes_the_longest_idle(self):
        """The table is kept in use order, so eviction needs no scan
        and still drops the bucket idle the longest."""
        gateway = AdmissionGateway(
            build_cluster(),
            GatewayConfig(max_tracked_clients=3, **QUIET))
        for key in ("a", "b", "c", "a"):      # 'b' is now the oldest
            gateway._bucket(key, 10.0, 5.0).try_acquire()
        kept = gateway._buckets["a"]
        gateway._bucket("d", 10.0, 5.0).try_acquire()
        assert list(gateway._buckets) == ["c", "a", "d"]
        assert gateway._buckets["a"] is kept
        idle = min(gateway._buckets,
                   key=lambda k: gateway._buckets[k]._updated)
        assert idle == next(iter(gateway._buckets))
        assert gateway.counters["buckets_evicted"] == 1


class TestBackpressure:
    def test_concurrent_burst_is_throttled_with_retry_after(self):
        """Clients past their burst get 429 + a parseable Retry-After."""

        async def go():
            gateway = await started_gateway(
                build_cluster(), client_rate=1.0, client_burst=3)
            host, port = gateway.address

            async def hammer(index: int):
                statuses = []
                async with GatewayClient(
                        host, port, client_id=f"burst{index}") as client:
                    for n in range(6):
                        status, _ = await client.submit(
                            query(index * 100 + n))
                        statuses.append(
                            (status, dict(client.last_headers)))
                return statuses

            results = await asyncio.gather(hammer(0), hammer(1))
            await gateway.stop(final_settle=False)
            for statuses in results:
                accepted = [s for s, _ in statuses if s == 200]
                throttled = [(s, h) for s, h in statuses if s == 429]
                assert len(accepted) == 3
                assert len(throttled) == 3
                for _, headers in throttled:
                    assert float(headers["retry-after"]) > 0.0
            assert gateway.counters["throttled"] == 6

        asyncio.run(go())

    def test_inflight_cap_sheds_503(self):
        async def go():
            backend = HostBackend(build_cluster())
            gateway = await started_gateway(backend, max_inflight=1)
            gateway._inflight = 1
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.submit(query(1))
            gateway._inflight = 0
            await gateway.stop(final_settle=False)
            assert status == 503
            assert "in-flight cap" in body["error"]
            assert gateway.counters["shed"] == 1

        asyncio.run(go())


class SlowTickBackend(HostBackend):
    """A backend whose settle takes ``delay`` wall-clock seconds."""

    def __init__(self, target, delay: float) -> None:
        super().__init__(target)
        self.delay = delay
        self.ticks_finished = 0

    def tick(self):
        time.sleep(self.delay)
        report = super().tick()
        self.ticks_finished += 1
        return report


class TestTimeoutsAndRetryBudget:
    def test_timeout_mid_auction_still_settles_and_unlocks(self):
        """A 504'd /v1/tick leaves the settle to finish on its own."""

        async def go():
            backend = SlowTickBackend(build_cluster(), delay=0.4)
            gateway = await started_gateway(backend, slow_timeout=0.05)
            async with GatewayClient(*gateway.address) as client:
                await client.submit(query(1))
                status, body = await client.tick()
                assert status == 504
                assert "timed out" in body["error"]
                # The shielded settle completes in its worker thread
                # and the done-callback releases the lock.
                deadline = time.monotonic() + 5.0
                while (backend.ticks_finished == 0
                       and time.monotonic() < deadline):
                    await asyncio.sleep(0.02)
                assert backend.ticks_finished == 1
                assert backend.period == 1
                # ... exactly once: one settle generation, lock free.
                await asyncio.sleep(0.05)
                assert gateway._settle_generation == 1
                assert not gateway._lock.locked()
                assert gateway._inflight == 0
                status, body = await client.submit(query(2))
                assert status == 200
            assert gateway.counters["timeouts"] == 1
            await gateway.stop()

        asyncio.run(go())

    def test_probes_serve_a_snapshot_mid_settle(self):
        """/healthz and /metrics answer during a settle from the last
        uncontended snapshot instead of reading structures the worker
        thread is mutating."""

        async def go():
            backend = SlowTickBackend(build_cluster(), delay=0.5)
            gateway = await started_gateway(backend, slow_timeout=5.0)
            host, port = gateway.address
            async with GatewayClient(host, port) as submitter:
                await submitter.submit(query(1))
                _, fresh = await submitter.health()
                assert fresh["pending"] == 1
                tick_task = asyncio.create_task(submitter.tick())
                await asyncio.sleep(0.1)      # settle underway
                assert gateway._lock.locked()
                assert backend.ticks_finished == 0
                async with GatewayClient(
                        host, port, client_id="probe") as probe:
                    s_health, health = await probe.health()
                    s_metrics, metrics = await probe.metrics()
                status, _ = await tick_task
            await gateway.stop()
            assert status == 200
            assert s_health == s_metrics == 200
            # The pre-settle snapshot, not a torn mid-settle read.
            assert health["pending"] == 1
            assert metrics["pending"] == 1

        asyncio.run(go())

    def test_retry_budget_exhaustion_503(self):
        """Contention with no banked retries is refused, not queued."""

        async def go():
            gateway = await started_gateway(
                build_cluster(), lock_patience=0.02,
                retry_deposit=0.0, retry_initial=0.0, retry_cap=1.0,
                fast_timeout=5.0)
            await gateway._lock.acquire()      # a settle in progress
            try:
                async with GatewayClient(*gateway.address) as client:
                    status, body = await client.submit(query(1))
            finally:
                gateway._lock.release()
            await gateway.stop(final_settle=False)
            assert status == 503
            assert "retry budget is exhausted" in body["error"]
            assert gateway._budget.exhausted == 1
            assert float(client.last_headers["retry-after"]) > 0.0

        asyncio.run(go())

    def test_submit_during_a_tick_waits_spends_budget_then_503(self):
        """Only a *held* lock costs patience and retry budget: a submit
        that arrives mid-settle waits ``lock_patience`` per attempt,
        withdraws one retry per extra attempt and is refused when the
        budget is gone; the next submit finds the lock free and pays
        nothing."""

        async def go():
            backend = SlowTickBackend(build_cluster(), delay=0.5)
            gateway = await started_gateway(
                backend, lock_patience=0.05, retry_deposit=0.0,
                retry_initial=2.0, retry_cap=2.0)
            host, port = gateway.address
            async with GatewayClient(host, port) as ticker, \
                    GatewayClient(host, port, client_id="s") as client:
                await client.submit(query(1))
                tick = asyncio.create_task(ticker.tick())
                while not gateway._lock.locked():
                    await asyncio.sleep(0.005)
                started = time.monotonic()
                status, body = await client.submit(query(2))
                waited = time.monotonic() - started
                assert status == 503
                assert "retry budget is exhausted" in body["error"]
                assert waited >= 3 * 0.05      # 1 free try + 2 retries
                assert gateway._budget.retries == 2
                assert gateway._budget.exhausted == 1
                assert (await tick)[0] == 200
                status, _ = await client.submit(query(3))
                assert status == 200
                assert gateway._budget.retries == 2
            await gateway.stop(final_settle=False)
            assert gateway._inflight == 0

        asyncio.run(go())

    @pytest.mark.parametrize("stall", ["holding", "waiting"])
    def test_handler_overrunning_fast_timeout_is_504_and_clean(
            self, stall):
        """The deadline runs the handler in the request's own task: an
        overrun is a 504 that leaves nothing in flight and the lock
        free, whether it struck while holding the lock or while queued
        for it."""

        class StallingGateway(AdmissionGateway):
            async def _handle_report(self, request, request_id):
                async with self._service_lock(request_id, "report"):
                    await asyncio.sleep(5.0)

        async def go():
            gateway = StallingGateway(build_cluster(), GatewayConfig(
                fast_timeout=0.1, lock_patience=5.0, **QUIET))
            await gateway.start()
            async with GatewayClient(*gateway.address) as client:
                if stall == "waiting":
                    await gateway._lock.acquire()
                    status, body = await client.submit(query(1))
                    assert gateway._lock.locked()   # still the test's
                    gateway._lock.release()
                else:
                    status, body = await client.report()
                assert status == 504
                assert "timed out after 0.1s" in body["error"]
                assert gateway._inflight == 0
                assert not gateway._lock.locked()
                assert gateway.counters["timeouts"] == 1
                status, _ = await client.submit(query(2))
                assert status == 200
            await gateway.stop(final_settle=False)

        asyncio.run(go())

    def test_retry_budget_absorbs_transient_contention(self):
        """With budget banked, the gateway retries and succeeds."""

        async def go():
            gateway = await started_gateway(
                build_cluster(), lock_patience=0.05,
                retry_initial=5.0, fast_timeout=5.0)
            await gateway._lock.acquire()

            async def release_soon():
                await asyncio.sleep(0.12)
                gateway._lock.release()

            release = asyncio.create_task(release_soon())
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.submit(query(1))
            await release
            await gateway.stop()
            assert status == 200
            assert gateway._budget.retries >= 1

        asyncio.run(go())


class TestShutdown:
    def test_stop_runs_final_settle_over_pending_work(self, tmp_path):
        """The settle runs, and its log line carries the federation's
        admitted count and revenue (a cluster report's document has
        neither key)."""
        log_path = tmp_path / "gateway.jsonl"
        cluster = build_cluster()

        async def go():
            gateway = await started_gateway(cluster, log_path=str(log_path))
            async with GatewayClient(*gateway.address) as client:
                for n in range(24):
                    await client.submit(query(n, bid=4.0 + n % 5))
            assert gateway.backend.pending_count() == 24
            await gateway.stop()
            assert gateway.backend.pending_count() == 0
            assert gateway.backend.period == 1
            assert len(cluster.reports) == 1

        asyncio.run(go())
        report = cluster.reports[0]
        assert 0 < len(report.admitted) < 24 and report.total_revenue > 0
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        settle = next(r for r in records if r["event"] == "final_settle")
        assert settle["period"] == 1
        assert settle["admitted"] == len(report.admitted)
        assert settle["revenue"] == report.total_revenue

    def test_draining_gateway_refuses_new_work(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            gateway._draining = True
            async with GatewayClient(*gateway.address) as client:
                status, body = await client.submit(query(1))
                s_health, health = await client.health()
            gateway._draining = False
            await gateway.stop(final_settle=False)
            assert status == 503
            assert "draining" in body["error"]
            # /healthz stays reachable and reports the drain.
            assert s_health == 200

        asyncio.run(go())

    def test_failed_final_settle_still_shuts_down(self):
        """A final settle that cannot take the lock is logged and
        skipped — sockets and the log sink still close."""

        async def go():
            gateway = await started_gateway(
                build_cluster(), lock_patience=0.02,
                retry_deposit=0.0, retry_initial=0.0,
                drain_timeout=0.05)
            async with GatewayClient(*gateway.address) as client:
                await client.submit(query(1))
            await gateway._lock.acquire()      # a stuck settle
            await gateway.stop()               # must not raise
            assert gateway._stopped
            assert gateway.backend.pending_count() == 1

        asyncio.run(go())

    def test_stop_without_final_settle_leaves_pending(self):
        async def go():
            gateway = await started_gateway(build_cluster())
            async with GatewayClient(*gateway.address) as client:
                await client.submit(query(1))
            await gateway.stop(final_settle=False)
            assert gateway.backend.pending_count() == 1
            assert gateway.backend.period == 0

        asyncio.run(go())


class TestLogging:
    def test_secrets_are_redacted_through_the_wire(self, tmp_path):
        log_path = tmp_path / "gateway.jsonl"

        async def go():
            gateway = await started_gateway(
                build_cluster(), log_path=str(log_path))
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.request(
                    "GET", "/healthz?token=hunter2&shard=1")
                assert status == 200
            await gateway.stop()

        asyncio.run(go())
        raw = log_path.read_text()
        assert "hunter2" not in raw
        assert REDACTED in raw
        records = [json.loads(line) for line in raw.splitlines()]
        request = next(r for r in records if r["event"] == "request")
        assert request["params"]["token"] == REDACTED
        assert request["params"]["shard"] == "1"
        assert request["request_id"].startswith("r")
        events = {r["event"] for r in records}
        assert {"listening", "request", "stopped"} <= events

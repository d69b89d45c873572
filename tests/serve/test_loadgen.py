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

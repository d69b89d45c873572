"""The multi-process front-end: shard affinity, deployment
equivalence, routing, drain handoff, group commit, and respawn.

The load-bearing claims, each pinned here:

* :meth:`ShardAffinityMap.shard_of` equals the federation placement's
  live choice for every key (the whole front-end design rests on
  predicting placement without touching the federation);
* a multi-worker supervisor, a single-process gateway, and an
  in-process backend produce **byte-identical** period reports for the
  same workload;
* shutdown drains buffered ops through the coordinator handoff, and
  offline striped-WAL recovery reproduces the live run exactly;
* group commit batches concurrent stripe appends into fewer fsyncs
  than mutations;
* a SIGKILLed worker is respawned and reloads its unsettled buffer
  from its stripe, with every invoice issued exactly once.
"""

import asyncio
import json
import time

import pytest

from repro.cluster import FederatedAdmissionService
from repro.cluster.affinity import ShardAffinityMap, affinity_key
from repro.dsms.streams import SyntheticStream
from repro.serve import (
    AdmissionGateway,
    GatewayClient,
    GatewayConfig,
    HostBackend,
    run_load,
)
from repro.serve.frontend import (
    COORDINATOR,
    FrontendConfig,
    GatewaySupervisor,
    stripe_directory,
)
from repro.serve.gateway import report_document
from repro.utils.validation import ValidationError
from repro.wal import recover_striped_gateway, wal_exists
from tests.strategies import select_query

pytestmark = pytest.mark.serve

QUIET = {"quiet": True}


def build_cluster(num_shards=4, placement="consistent-hash",
                  capacity=20.0):
    return FederatedAdmissionService.build(
        num_shards=num_shards,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=capacity,
        mechanism="CAT",
        ticks_per_period=4,
        placement=placement,
    )


def queries(n, start=0):
    return [select_query(f"q{i}", f"owner{i}", bid=4.0 + (i % 3),
                         cost=1.0) for i in range(start, start + n)]


def canonical(document):
    return json.dumps(document, sort_keys=True)


def reference_run(batches, **cluster_kwargs):
    """The in-process ground truth: one backend, direct submits."""
    backend = HostBackend(build_cluster(**cluster_kwargs))
    reports = []
    for batch in batches:
        for query in batch:
            backend.submit(query)
        reports.append(canonical(report_document(backend.tick())))
    return backend, reports


async def drive_batches(host, port, batches):
    """Submit each batch over the wire, tick, return report bytes."""
    reports = []
    async with GatewayClient(host, port, client_id="drv") as client:
        for batch in batches:
            for query in batch:
                status, body = await client.submit(query)
                assert status == 200, (query.query_id, status, body)
            status, body = await client.tick()
            assert status == 200, body
            reports.append(canonical(body["report"]))
    return reports


def frontend_config(workers=2, wal_dir=None, **overrides):
    gateway = GatewayConfig(
        **QUIET, port=0,
        wal_dir=None if wal_dir is None else str(wal_dir),
        **overrides)
    return FrontendConfig(workers=workers, gateway=gateway)


def invoice_keys(backend):
    return sorted(
        (shard, invoice.period, invoice.query_id)
        for shard, service in enumerate(backend.services)
        for invoice in service.ledger.invoices)


class TestShardAffinity:
    def test_shard_of_matches_live_placement(self):
        backend = HostBackend(build_cluster(num_shards=5))
        affinity = ShardAffinityMap.for_cluster(
            backend.host.cluster, num_workers=3)
        for query in queries(40):
            shard = backend.submit(query)
            assert affinity.shard_of(affinity_key(query)) == shard

    def test_affinity_key_prefers_owner(self):
        query = select_query("qid", "the-owner", bid=1.0, cost=1.0)
        assert affinity_key(query) == "the-owner"
        anonymous = select_query("qid", "x", bid=1.0, cost=1.0)
        object.__setattr__(anonymous, "owner", None)
        assert affinity_key(anonymous) == "qid"

    def test_worker_groups_partition_contiguously(self):
        affinity = ShardAffinityMap(8, 3)
        groups = affinity.worker_groups()
        assert [list(group) for group in groups] == [
            [0, 1, 2], [3, 4, 5], [6, 7]]
        flat = [shard for group in groups for shard in group]
        assert flat == list(range(8))

    def test_more_workers_than_shards(self):
        affinity = ShardAffinityMap(2, 4)
        groups = affinity.worker_groups()
        assert [len(group) for group in groups] == [1, 1, 0, 0]
        for key in ("a", "b", "c", "owner9"):
            assert affinity.worker_of(key) in (0, 1)

    def test_worker_of_agrees_with_shard_ranges(self):
        affinity = ShardAffinityMap(7, 2, seed=3)
        for index in range(50):
            key = f"client{index}"
            shard = affinity.shard_of(key)
            worker = affinity.worker_of(key)
            assert shard in affinity.shards_of_worker(worker)
            assert affinity.worker_of_shard(shard) == worker

    def test_bounds_are_validated(self):
        affinity = ShardAffinityMap(4, 2)
        with pytest.raises(ValidationError):
            affinity.worker_of_shard(4)
        with pytest.raises(ValidationError):
            affinity.shards_of_worker(2)
        with pytest.raises(ValidationError):
            ShardAffinityMap(0, 1)

    def test_for_cluster_requires_consistent_hash(self):
        backend = HostBackend(build_cluster(placement="round-robin"))
        with pytest.raises(ValidationError):
            ShardAffinityMap.for_cluster(backend.host.cluster, 2)


class TestDeploymentEquivalence:
    def test_reports_byte_identical_across_deployments(self):
        batches = [queries(10), queries(10, start=10)]
        _, expected = reference_run(batches)

        async def single_process():
            gateway = AdmissionGateway(
                build_cluster(), GatewayConfig(**QUIET, port=0))
            await gateway.start()
            try:
                return await drive_batches(*gateway.address, batches)
            finally:
                await gateway.stop(final_settle=False)

        assert asyncio.run(single_process()) == expected

        supervisor = GatewaySupervisor(
            build_cluster, frontend_config(workers=2))
        with supervisor:
            observed = asyncio.run(
                drive_batches(*supervisor.address, batches))
        assert observed == expected

    def test_worker_report_view_matches_coordinator(self):
        batches = [queries(8)]
        _, expected = reference_run(batches)
        supervisor = GatewaySupervisor(
            build_cluster, frontend_config(workers=2)).start()
        try:
            host, port = supervisor.address
            asyncio.run(drive_batches(host, port, batches))

            async def reports():
                bodies = []
                # Fresh connections: SO_REUSEPORT may land each on a
                # different worker; every answer must agree.
                for _ in range(6):
                    async with GatewayClient(host, port) as client:
                        status, body = await client.report()
                        assert status == 200
                        bodies.append(canonical(body["report"]))
                return bodies

            for body in asyncio.run(reports()):
                assert body == expected[0]
        finally:
            supervisor.stop()


class TestRouting:
    def test_single_connection_forwards_peer_owned_keys(self):
        affinity = ShardAffinityMap.for_cluster(
            HostBackend(build_cluster()).host.cluster, num_workers=2)
        batch = queries(16)
        owners = {affinity.worker_of(affinity_key(q)) for q in batch}
        assert owners == {0, 1}, "workload must span both workers"

        supervisor = GatewaySupervisor(
            build_cluster, frontend_config(workers=2)).start()
        try:
            async def drive():
                async with GatewayClient(
                        *supervisor.address, client_id="c") as client:
                    for query in batch:
                        status, body = await client.submit(query)
                        assert status == 200, body
                        assert body["shard"] == affinity.shard_of(
                            affinity_key(query))
                    status, body = await client.metrics()
                    assert status == 200
                    return body["frontend"]

            frontend = asyncio.run(drive())
            # One keep-alive connection lands on one worker; the peer
            # owns some of the 16 keys, so forwarding must have fired.
            assert frontend["forwarded"] >= 1
            assert frontend["workers"] == 2
            start, stop = frontend["shard_range"]
            assert list(range(start, stop)) == list(
                affinity.shards_of_worker(frontend["worker"]))
        finally:
            supervisor.stop()

    def test_withdraw_probes_peers_then_404(self):
        supervisor = GatewaySupervisor(
            build_cluster, frontend_config(workers=2)).start()
        try:
            async def drive():
                async with GatewayClient(
                        *supervisor.address, client_id="c") as client:
                    for query in queries(4):
                        status, _ = await client.submit(query)
                        assert status == 200
                    status, body = await client.withdraw("q2")
                    assert status == 200, body
                    status, _ = await client.withdraw("q2")
                    assert status == 404
                    status, _ = await client.withdraw("never-seen")
                    assert status == 404

            asyncio.run(drive())
        finally:
            supervisor.stop()

    def test_duplicate_submission_rejected(self):
        supervisor = GatewaySupervisor(
            build_cluster, frontend_config(workers=2)).start()
        try:
            async def drive():
                query = queries(1)[0]
                async with GatewayClient(
                        *supervisor.address, client_id="c") as client:
                    status, _ = await client.submit(query)
                    assert status == 200
                    status, body = await client.submit(query)
                    assert status == 400, body
                    assert "already submitted" in body["error"]

            asyncio.run(drive())
        finally:
            supervisor.stop()


class TestDrainHandoff:
    def test_shutdown_settles_buffered_ops_via_handoff(self, tmp_path):
        wal_dir = tmp_path / "wal"
        batch = queries(12)
        reference, expected = reference_run([batch])

        supervisor = GatewaySupervisor(
            build_cluster,
            frontend_config(workers=2, wal_dir=wal_dir,
                            wal_group_commit=True)).start()
        try:
            async def submit_only():
                async with GatewayClient(
                        *supervisor.address, client_id="c") as client:
                    for query in batch:
                        status, _ = await client.submit(query)
                        assert status == 200
            asyncio.run(submit_only())
        finally:
            # No tick was issued: the rolling drain must hand every
            # worker's buffer to the coordinator for a final settle.
            supervisor.stop()

        for worker in range(2):
            assert wal_exists(stripe_directory(wal_dir, worker))
        backend = HostBackend(build_cluster())
        log, consumed = recover_striped_gateway(wal_dir, backend)
        log.close()
        assert backend.period == 1
        assert canonical(
            report_document(backend.last_report)) == expected[0]
        assert backend.total_revenue() == reference.total_revenue()
        assert sum(consumed.values()) == len(batch)
        keys = invoice_keys(backend)
        assert keys == invoice_keys(reference)
        assert len(keys) == len(set(keys))


class TestGroupCommit:
    def test_concurrent_mutations_share_fsyncs(self, tmp_path):
        supervisor = GatewaySupervisor(
            build_cluster,
            frontend_config(workers=2, wal_dir=tmp_path / "wal",
                            wal_group_commit=True,
                            wal_group_window=0.005,
                            client_rate=1e6, client_burst=1e6,
                            peer_rate=1e9, peer_burst=1e9)).start()
        try:
            host, port = supervisor.address
            result = asyncio.run(run_load(
                host, port, arrivals="poisson:rate=100000,seed=7",
                requests=80, concurrency=16))
            assert result.completed == 80, result.statuses

            async def metrics():
                async with GatewayClient(host, port) as client:
                    status, body = await client.metrics()
                    assert status == 200
                    return body

            document = asyncio.run(metrics())
            commit = document["wal"]["group_commit"]
            assert commit["mutations"] >= 10
            assert commit["fsyncs"] < commit["mutations"]
            assert commit["fsyncs_per_mutation"] < 1.0
            stripe = document["frontend"]["stripe"]
            assert stripe["enabled"]
            assert stripe["fsyncs"] < stripe["records"]
        finally:
            supervisor.stop()


class TestSupervisorRespawn:
    def test_sigkill_mid_buffer_respawns_and_converges(self, tmp_path):
        wal_dir = tmp_path / "wal"
        first, second = queries(12), queries(12, start=12)
        reference, expected = reference_run([first, second])

        supervisor = GatewaySupervisor(
            build_cluster,
            frontend_config(workers=2, wal_dir=wal_dir,
                            wal_group_commit=True)).start()
        try:
            host, port = supervisor.address

            async def submit(batch):
                async with GatewayClient(
                        host, port, client_id="c") as client:
                    for query in batch:
                        await resilient_submit(client, query)

            async def settle():
                async with GatewayClient(
                        host, port, client_id="c") as client:
                    status, body = await client.tick()
                    assert status == 200, body
                    return canonical(body["report"])

            asyncio.run(submit(first))
            assert asyncio.run(settle()) == expected[0]

            # Half the second batch acked, then SIGKILL worker 1 with
            # its buffer non-empty.
            asyncio.run(submit(second[:6]))
            pid = supervisor.worker_pid(1)
            supervisor.kill_worker(1)
            deadline = time.time() + 20
            while (supervisor.worker_pid(1) == pid
                   or supervisor.respawns[1] == 0):
                assert time.time() < deadline, "worker never respawned"
                time.sleep(0.05)
            asyncio.run(submit(second[6:]))
            assert asyncio.run(settle()) == expected[1]

            async def revenue():
                async with GatewayClient(host, port) as client:
                    status, body = await client.report()
                    assert status == 200
                    return body["revenue"]
            live_revenue = asyncio.run(revenue())
        finally:
            supervisor.stop()

        backend = HostBackend(build_cluster())
        log, _ = recover_striped_gateway(wal_dir, backend)
        log.close()
        assert backend.period == 2
        assert backend.total_revenue() == live_revenue
        assert canonical(
            report_document(backend.last_report)) == expected[1]
        keys = invoice_keys(backend)
        assert keys == invoice_keys(reference)
        assert len(keys) == len(set(keys))


class TestLoadgenFanout:
    def test_fanout_merges_samples_and_statuses(self):
        supervisor = GatewaySupervisor(
            build_cluster,
            frontend_config(workers=2, client_rate=1e6,
                            client_burst=1e6, peer_rate=1e9,
                            peer_burst=1e9)).start()
        try:
            host, port = supervisor.address
            result = asyncio.run(run_load(
                host, port, arrivals="poisson:rate=100000,seed=11",
                requests=40, concurrency=2, processes=2))
        finally:
            supervisor.stop()
        assert result.completed == 40
        assert result.errors == 0
        assert result.statuses.get("200") == 40
        assert len(result.latency_s) == 40
        assert result.requests_per_s > 0
        assert result.latency_ms["p50"] <= result.latency_ms["p99"]

    def test_fanout_requires_positive_processes(self):
        with pytest.raises(ValidationError):
            asyncio.run(run_load("127.0.0.1", 1, requests=1,
                                 processes=0))


class TestSupervisorValidation:
    def test_rejects_round_robin_cluster(self):
        supervisor = GatewaySupervisor(
            lambda: build_cluster(placement="round-robin"),
            frontend_config(workers=2))
        with pytest.raises(ValidationError):
            supervisor.start()

    def test_config_requires_workers(self):
        with pytest.raises(ValidationError):
            FrontendConfig(workers=0)


async def resilient_submit(client, query, attempts=60):
    """Submit with reconnect-and-retry: survives the window where a
    killed worker's shared listening socket queues the connection."""
    from repro.serve import HttpError

    for _ in range(attempts):
        try:
            status, body = await asyncio.wait_for(
                client.submit(query), 5.0)
        except (OSError, HttpError, asyncio.TimeoutError):
            await client.close()
            await asyncio.sleep(0.1)
            continue
        if status == 200:
            return
        await asyncio.sleep(0.1)
    raise AssertionError(f"submit never acked: {query.query_id}")

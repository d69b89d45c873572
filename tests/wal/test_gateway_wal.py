"""Gateway durability: WAL'd ops and settles survive an abrupt stop.

The "crash" here is closing the listening socket and dropping the
gateway object without ``stop()`` — no drain, no final sync — then
starting a fresh gateway over the same WAL directory.  Everything a
client got a ``200`` for must still be there.
"""

import asyncio
import os

import pytest

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.serve import AdmissionGateway, GatewayClient, GatewayConfig
from tests.strategies import select_query

pytestmark = [pytest.mark.wal, pytest.mark.serve]

QUIET = {"quiet": True}


def build_cluster(seed: int = 0):
    return FederatedAdmissionService.build(
        num_shards=2,
        sources=[SyntheticStream("s", rate=2.0, seed=seed)],
        capacity=20.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="round-robin",
    )


def query(n: int, bid: float = 4.0):
    return select_query(f"q{n}", f"owner{n}", bid=bid, cost=1.0)


async def started(wal_dir, **overrides):
    config = GatewayConfig(**{**QUIET, "wal_dir": str(wal_dir),
                              "wal_fsync": "always", **overrides})
    gateway = AdmissionGateway(build_cluster(), config)
    await gateway.start()
    return gateway


async def crash(gateway):
    gateway._server.close()
    await gateway._server.wait_closed()


async def wait_replayed(client, tries: int = 100):
    for _ in range(tries):
        status, health = await client.health()
        if status == 200 and health["recovery"] != "replaying":
            return health
        await asyncio.sleep(0.05)
    raise AssertionError("gateway never finished its WAL replay")


async def wait_clean(client):
    health = await wait_replayed(client)
    assert health["recovery"] == "clean", health
    return health


def gateway_invoices(gateway):
    return [
        (shard, invoice.period, invoice.query_id)
        for shard, service in enumerate(gateway.backend.services)
        for invoice in service.ledger.invoices
    ]


class TestGatewayRecovery:
    def test_acknowledged_state_survives_an_abrupt_stop(self, tmp_path):
        async def go():
            first = await started(tmp_path / "wal")
            async with GatewayClient(*first.address) as client:
                status, health = await client.health()
                assert health["recovered_from_wal"] is False
                for n in range(4):
                    status, _ = await client.submit(query(n))
                    assert status == 200
                status, ticked = await client.tick()
                assert status == 200
                status, _ = await client.submit(query(9))
                assert status == 200
                status, metrics = await client.metrics()
                reference = (metrics["period"], metrics["revenue"])
                assert metrics["wal"]["enabled"] is True
                assert metrics["wal"]["records"] > 0
            await crash(first)

            second = await started(tmp_path / "wal")
            async with GatewayClient(*second.address) as client:
                health = await wait_clean(client)
                assert health["status"] == "ok"
                assert health["recovered_from_wal"] is True
                assert health["replayed_records"] == 6
                status, metrics = await client.metrics()
                assert (metrics["period"], metrics["revenue"]) == \
                    reference
                assert metrics["pending"] == 1  # q9 rode the WAL
                assert metrics["wal"]["replayed"] == 6
                # The recovered gateway keeps serving.
                status, ticked = await client.tick()
                assert status == 200
                assert ticked["period"] == reference[0] + 1
            invoices = gateway_invoices(second)
            assert len(invoices) == len(set(invoices))
            await second.stop()

        asyncio.run(go())

    def test_withdraw_survives_recovery(self, tmp_path):
        async def go():
            first = await started(tmp_path / "wal")
            async with GatewayClient(*first.address) as client:
                await client.submit(query(0))
                await client.submit(query(1))
                status, _ = await client.withdraw("q0")
                assert status == 200
            await crash(first)

            second = await started(tmp_path / "wal")
            async with GatewayClient(*second.address) as client:
                await wait_clean(client)
                status, metrics = await client.metrics()
                assert metrics["pending"] == 1
                status, ticked = await client.tick()
                admitted = [qid for shard in ticked["report"]["shards"]
                            for qid in shard["admitted"]]
                assert admitted == ["q1"]
            await second.stop()

        asyncio.run(go())

    def test_compaction_bounds_the_replay(self, tmp_path):
        async def go():
            first = await started(tmp_path / "wal", compact_every=1)
            async with GatewayClient(*first.address) as client:
                for period in range(3):
                    await client.submit(query(period))
                    await client.tick()
                status, metrics = await client.metrics()
                reference = (metrics["period"], metrics["revenue"])
                assert metrics["wal"]["compactions"] == 3
            await crash(first)

            second = await started(tmp_path / "wal", compact_every=1)
            async with GatewayClient(*second.address) as client:
                await wait_clean(client)
                status, metrics = await client.metrics()
                assert (metrics["period"], metrics["revenue"]) == \
                    reference
                # Everything before the checkpoint was folded away.
                assert metrics["wal"]["replayed"] == 0
            await second.stop()

        asyncio.run(go())

    def test_requests_get_503_while_replaying(self, tmp_path):
        async def go():
            first = await started(tmp_path / "wal")
            async with GatewayClient(*first.address) as client:
                for n in range(6):
                    await client.submit(query(n))
                await client.tick()
            await crash(first)

            second = await started(tmp_path / "wal")
            # The socket is up while the replay runs in a worker —
            # mutating requests are refused with Retry-After, never
            # applied to a half-recovered backend.
            async with GatewayClient(*second.address) as client:
                status, body = await client.submit(query(7))
                if status == 503:
                    assert "replaying" in body["error"]
                else:
                    assert status == 200  # replay already finished
                await wait_clean(client)
                status, _ = await client.submit(query(8))
                assert status == 200
            await second.stop()

        asyncio.run(go())

    def test_stop_syncs_the_wal_before_closing(self, tmp_path):
        from repro.wal import records as rec, scan_wal

        async def go():
            gateway = await started(tmp_path / "wal",
                                    wal_fsync="batch:1000")
            async with GatewayClient(*gateway.address) as client:
                for n in range(3):
                    await client.submit(query(n))
            await gateway.stop()

        asyncio.run(go())
        scan = scan_wal(tmp_path / "wal")
        ops = [r for r in scan.records if r.kind == rec.RECORD_OP]
        assert len(ops) == 3

    def test_host_backend_round_trips_through_the_wal(self, tmp_path):
        from repro.service import ServiceBuilder

        def build_service():
            return (ServiceBuilder()
                    .with_sources(SyntheticStream("s", rate=2.0, seed=0))
                    .with_capacity(20.0)
                    .with_mechanism("CAT")
                    .with_ticks_per_period(4)
                    .build())

        async def go():
            config = GatewayConfig(**{**QUIET,
                                      "wal_dir": str(tmp_path / "wal"),
                                      "wal_fsync": "always"})
            first = AdmissionGateway(build_service(), config)
            await first.start()
            async with GatewayClient(*first.address) as client:
                await client.submit(query(0))
                await client.tick()
                await client.submit(query(1))
                status, metrics = await client.metrics()
                reference = (metrics["period"], metrics["revenue"])
            await crash(first)

            second = AdmissionGateway(build_service(), config)
            await second.start()
            async with GatewayClient(*second.address) as client:
                await wait_clean(client)
                status, metrics = await client.metrics()
                assert (metrics["period"], metrics["revenue"]) == \
                    reference
                assert metrics["pending"] == 1
            await second.stop()

        asyncio.run(go())


class TestReceiptEvents:
    """A gateway receipt's ``events`` is joined on replay like its
    period and revenue: the driver's count, ``0`` for a host."""

    def test_tampered_events_is_a_hard_error_on_gateway_replay(
            self, tmp_path):
        from repro.serve import DriverBackend
        from repro.sim import SimulationDriver, SubscriptionOptions
        from repro.utils.validation import ValidationError
        from repro.wal import recover_gateway_backend
        from tests.wal.test_recovery import rewrite_last_receipt

        def build_backend():
            return DriverBackend(SimulationDriver(
                build_cluster(),
                subscriptions=SubscriptionOptions(seed=1)))

        async def go(wal_dir):
            config = GatewayConfig(**QUIET, wal_dir=str(wal_dir),
                                   wal_fsync="always")
            gateway = AdmissionGateway(build_backend(), config)
            await gateway.start()
            async with GatewayClient(*gateway.address) as client:
                for n in range(4):
                    status, _ = await client.submit(query(n))
                    assert status == 200
                status, _ = await client.tick()
                assert status == 200
            await crash(gateway)
            return gateway.backend.driver.events_processed

        events = asyncio.run(go(tmp_path / "wal"))
        assert events > 0
        recover_gateway_backend(tmp_path / "wal", build_backend()).close()
        rewrite_last_receipt(tmp_path / "wal", events=lambda n: n - 1)
        backend = build_backend()
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ValidationError) as failed:
            recover_gateway_backend(tmp_path / "wal", backend)
        # The failed replay closed the log it had reopened.
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert "events" in str(failed.value)


class TestGroupCommit:
    """``wal_fsync="always"`` on the gateway *is* group commit:
    concurrent acknowledged mutations share fsyncs, and every one of
    them is still there after an abrupt stop."""

    OPEN = {"client_rate": 1e6, "client_burst": 1e6,
            "peer_rate": 1e9, "peer_burst": 1e9}

    async def loaded(self, wal_dir):
        from repro.serve import run_load

        gateway = await started(wal_dir, **self.OPEN)
        result = await run_load(
            *gateway.address, arrivals="poisson:rate=100000,seed=7",
            requests=80, concurrency=16)
        assert result.completed == 80, result.statuses
        return gateway, result

    def test_concurrent_mutations_share_fsyncs(self, tmp_path):
        async def go():
            gateway, _ = await self.loaded(tmp_path / "wal")
            async with GatewayClient(*gateway.address) as client:
                status, metrics = await client.metrics()
            await gateway.stop(final_settle=False)
            assert status == 200
            commit = metrics["wal"]["group_commit"]
            assert commit["mutations"] == 80
            assert commit["fsyncs"] < commit["mutations"]
            assert commit["fsyncs_per_mutation"] < 1.0

        asyncio.run(go())

    def test_acknowledged_mutations_survive_an_abrupt_stop(self, tmp_path):
        async def go():
            first, result = await self.loaded(tmp_path / "wal")
            await crash(first)

            second = await started(tmp_path / "wal", **self.OPEN)
            async with GatewayClient(*second.address) as client:
                health = await wait_clean(client)
                assert health["recovered_from_wal"] is True
                assert health["replayed_records"] == 80
            pending = {query_id
                       for service in second.backend.services
                       for query_id in service.pending_ids}
            assert pending == set(result.query_ids)
            assert len(pending) == 80
            await second.stop(final_settle=False)

        asyncio.run(go())

    @pytest.mark.parametrize("policy,committed", [
        ("always", True), (" ALWAYS ", True),
        ("batch:256", False), ("never", False)])
    def test_only_always_commits_in_groups_and_metrics_say_so(
            self, tmp_path, policy, committed):
        async def go():
            gateway = await started(tmp_path / "wal", wal_fsync=policy)
            async with GatewayClient(*gateway.address) as client:
                status, _ = await client.submit(query(0))
                assert status == 200
                status, metrics = await client.metrics()
            await gateway.stop(final_settle=False)
            assert (gateway._committer is not None) is committed
            assert ("group_commit" in metrics["wal"]) is committed
            # The configured policy, not the "never" the log is opened
            # with under the committer.
            assert metrics["wal"]["fsync_policy"] == policy
            if committed:
                assert "window_s" not in metrics["wal"]["group_commit"]

        asyncio.run(go())


class TestFrontendDirectoryRefused:
    """A WAL directory an older build's ``serve --workers N`` wrote
    keeps its acknowledged ops in ``stripe-NN/`` logs this build does
    not read: it is refused by name, never recovered without them."""

    def test_striped_directory_is_refused_and_gateway_fails_closed(
            self, tmp_path):
        from repro.serve import HostBackend
        from repro.utils.validation import ValidationError
        from repro.wal import (
            WriteAheadLog,
            gateway_wal_state,
            recover_gateway_backend,
        )

        wal_dir = tmp_path / "wal"
        state = gateway_wal_state(HostBackend(build_cluster()))
        WriteAheadLog.create(
            wal_dir, {**state, "consumed": {"0": 0, "1": 0}}).close()
        stripe = WriteAheadLog.create(
            wal_dir / "stripe-00", {"kind": "stripe", "worker": 0,
                                    "seq": 0})
        stripe.append_op({"seq": 1, "request": {"op": "submit"}})
        stripe.close()

        with pytest.raises(ValidationError) as refused:
            recover_gateway_backend(wal_dir, HostBackend(build_cluster()))
        message = str(refused.value)
        assert ("written by a build that has the multi-worker "
                "front-end") in message
        assert "stripe-" in message
        assert "malformed" not in message

        async def go():
            gateway = await started(wal_dir)
            async with GatewayClient(*gateway.address) as client:
                health = await wait_replayed(client)
                assert health["status"] == "draining"
                assert health["recovery"] == "failed"
                assert health["recovered_from_wal"] is False
                status, _ = await client.submit(query(0))
                assert status == 503
            await gateway.stop(final_settle=False)

        asyncio.run(go())

"""A WAL directory is replayed by the runtime that wrote it, or
refused exactly as found.

Every record in a log is somebody's acknowledged data, so a recovery
decides whose directory it is *before* it reopens it: pointing ``sim
--wal`` at a gateway's directory (one mistyped path) or a gateway at a
sim run's must leave every byte where it was, and say so in one line.
"""

import asyncio
import hashlib

import pytest

from repro.__main__ import main
from repro.serve import AdmissionGateway, GatewayClient, GatewayConfig
from repro.wal import records as rec, scan_wal
from tests.strategies import select_query
from tests.wal.test_gateway_wal import wait_replayed
from tests.wal.workloads import build_service

pytestmark = pytest.mark.wal

SIM = ["sim", "--periods", "3", "--rate", "5", "--ticks", "4"]


def checksums(directory):
    return {path.name: hashlib.md5(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def gateway_over(wal_dir):
    return AdmissionGateway(build_service(), GatewayConfig(
        quiet=True, wal_dir=str(wal_dir), wal_fsync="always"))


def only_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith("repro: error:"), captured.err
    assert "Traceback" not in captured.err
    return captured.err


def test_sim_cli_refuses_a_gateway_directory_untouched(tmp_path, capsys):
    """``sim --wal <gateway dir>``: ten submits, a tick, six more
    submits — each answered 200 — must all still be in the segment."""
    wal_dir = tmp_path / "gateway-wal"

    async def serve():
        gateway = gateway_over(wal_dir)
        await gateway.start()
        async with GatewayClient(*gateway.address) as client:
            for n in range(16):
                if n == 10:
                    status, _ = await client.tick()
                    assert status == 200
                status, _ = await client.submit(
                    select_query(f"q{n}", f"owner{n}", bid=4.0, cost=1.0))
                assert status == 200
        await gateway.stop(final_settle=False)

    asyncio.run(serve())
    before = checksums(wal_dir)

    assert main([*SIM, "--wal", str(wal_dir)]) == 2
    error = only_error_line(capsys)
    assert str(wal_dir) in error
    assert "written by a gateway run" in error
    assert checksums(wal_dir) == before
    ops = [r for r in scan_wal(wal_dir).records
           if r.kind == rec.RECORD_OP]
    assert len(ops) == 16


def test_gateway_refuses_a_sim_directory_untouched_and_says_failed(
        tmp_path, capsys):
    """The other direction fails closed — and ``/healthz`` tells the
    failed replay from a clean start or an ordinary drain."""
    wal_dir = tmp_path / "sim-wal"
    assert main([*SIM, "--wal", str(wal_dir)]) == 0
    capsys.readouterr()
    before = checksums(wal_dir)

    async def serve():
        gateway = gateway_over(wal_dir)
        await gateway.start()
        async with GatewayClient(*gateway.address) as client:
            health = await wait_replayed(client)
            status, body = await client.submit(
                select_query("q0", "owner0", bid=4.0, cost=1.0))
        await gateway.stop(final_settle=False)
        return health, status, body

    health, status, body = asyncio.run(serve())
    assert health["status"] == "draining"
    assert health["recovery"] == "failed"
    assert health["recovered_from_wal"] is False
    assert health["replayed_records"] == 0
    assert "written by a sim run" in health["error"]
    assert "\n" not in health["error"]
    assert status == 503
    assert "could not replay its write-ahead log" in body["error"]
    assert "resubmit elsewhere" not in body["error"]
    assert checksums(wal_dir) == before


def test_healthz_of_a_clean_start_carries_no_error(tmp_path):
    async def serve():
        gateway = gateway_over(tmp_path / "wal")
        await gateway.start()
        async with GatewayClient(*gateway.address) as client:
            _, health = await client.health()
        await gateway.stop(final_settle=False)
        return health

    health = asyncio.run(serve())
    assert (health["status"], health["recovery"]) == ("ok", "clean")
    assert "error" not in health


def test_sim_cli_refuses_a_regular_file(tmp_path, capsys):
    path = tmp_path / "not-a-directory"
    path.write_text("somebody's notes\n")
    assert main([*SIM, "--wal", str(path)]) == 2
    assert str(path) in only_error_line(capsys)
    assert path.read_text() == "somebody's notes\n"

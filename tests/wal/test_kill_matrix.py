"""The kill -9 matrix: SIGKILL a live run at every registered
crashpoint, rerun, and demand byte-identical convergence.

Two halves:

* **sim** — the child IS the CLI (``python -m repro sim --wal``).  The
  armed child dies by real SIGKILL mid-run; rerunning the identical
  command must recover and write a ``final_report.json`` byte-identical
  to the uninterrupted reference, with every invoice issued exactly
  once.
* **serve** — the child stands up a real gateway over loopback and
  drives a fixed op sequence; after the kill, the parent recovers a
  fresh gateway over the same WAL, finishes the sequence (exactly the
  acknowledged-op resume a client with retries performs), and must land
  on the reference state.

A crashpoint whose armed child exits 0 was never reached — that is a
test failure too, so the matrix doubles as a reachability check.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PYTHONPATH = os.pathsep.join([os.path.join(REPO, "src"), REPO])

pytestmark = pytest.mark.wal

SIM_ARGS = ["--periods", "8", "--rate", "30", "--capacity", "50",
            "--seed", "3", "--compact-every", "3",
            "--wal-fsync", "batch:4"]

#: crashpoint -> hit count placing the crash mid-run (hit 1 of the
#: append sites is the genesis checkpoint; compaction fires at periods
#: 3 and 6; settles at periods 1..8).  The run appends 11 frames — a
#: receipt per settle plus three checkpoints — and hit 7 is period 5's
#: receipt, between the two compactions.
SIM_MATRIX = {
    "wal.append.before-frame": 7,
    "wal.append.after-frame": 7,
    "wal.compact.before-snapshot": 2,
    "wal.compact.after-snapshot": 2,
    "wal.compact.after-checkpoint": 2,
    "wal.compact.after-prune": 2,
    "driver.settle.before-period-record": 4,
    "driver.settle.after-period-record": 4,
    "io.save.after-tmp": 2,
}


def run_sim(wal_dir, crashpoint=None):
    env = {**os.environ, "PYTHONPATH": PYTHONPATH}
    env.pop("REPRO_CRASHPOINT", None)
    if crashpoint is not None:
        env["REPRO_CRASHPOINT"] = crashpoint
    return subprocess.run(
        [sys.executable, "-m", "repro", "sim", *SIM_ARGS,
         "--wal", str(wal_dir)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)


def final_report(wal_dir):
    return (wal_dir / "final_report.json").read_bytes()


def assert_exactly_once_invoices(report_bytes):
    document = json.loads(report_bytes)
    keys = [(entry["shard"], period, query_id)
            for entry in document["invoices"]
            for period, query_id, *_ in entry["invoices"]]
    assert len(keys) == len(set(keys)), "duplicate invoices"
    assert keys, "billing ledger is empty — workload too small"


@pytest.fixture(scope="module")
def sim_reference(tmp_path_factory):
    wal_dir = tmp_path_factory.mktemp("sim-reference") / "wal"
    proc = run_sim(wal_dir)
    assert proc.returncode == 0, proc.stderr
    return final_report(wal_dir)


class TestSimKillMatrix:
    @pytest.mark.parametrize(
        "crashpoint", sorted(SIM_MATRIX),
        ids=lambda name: name.replace(".", "-"))
    def test_kill_then_rerun_converges(self, tmp_path, sim_reference,
                                       crashpoint):
        wal_dir = tmp_path / "wal"
        armed = f"{crashpoint}:{SIM_MATRIX[crashpoint]}"
        crashed = run_sim(wal_dir, crashpoint=armed)
        assert crashed.returncode == -9, (
            f"{armed} never fired (rc={crashed.returncode}): "
            f"{crashed.stderr[-500:]}")
        assert not (wal_dir / "final_report.json").exists()

        resumed = run_sim(wal_dir)
        assert resumed.returncode == 0, resumed.stderr
        report = final_report(wal_dir)
        assert report == sim_reference
        assert_exactly_once_invoices(report)

    def test_double_crash_still_converges(self, tmp_path, sim_reference):
        # Crash, recover into another crash, recover again.
        wal_dir = tmp_path / "wal"
        first = run_sim(wal_dir,
                        crashpoint="driver.settle.after-period-record:3")
        assert first.returncode == -9
        second = run_sim(wal_dir,
                         crashpoint="driver.settle.before-period-record:3")
        assert second.returncode == -9
        final = run_sim(wal_dir)
        assert final.returncode == 0, final.stderr
        assert final_report(wal_dir) == sim_reference


SERVE_CHILD = """\
import asyncio, json, sys

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.serve import AdmissionGateway, GatewayClient, GatewayConfig
from tests.strategies import select_query
from tests.wal.test_kill_matrix import SERVE_OPS, apply_op, gateway_state


def build_cluster():
    return FederatedAdmissionService.build(
        num_shards=2,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=20.0, mechanism="CAT", ticks_per_period=4,
        placement="round-robin")


async def main(wal_dir, result_path):
    config = GatewayConfig(quiet=True,
                           wal_dir=wal_dir, wal_fsync="always")
    gateway = AdmissionGateway(build_cluster(), config)
    await gateway.start()
    async with GatewayClient(*gateway.address) as client:
        for op in SERVE_OPS:
            await apply_op(client, op)
    state = gateway_state(gateway)
    await gateway.stop()
    with open(result_path, "w") as handle:
        json.dump(state, handle)


asyncio.run(main(*sys.argv[1:3]))
"""

#: The op sequence every serve child runs; each op durably logs
#: exactly one WAL record, so resuming = skipping the logged prefix.
SERVE_OPS = (
    *[("submit", n) for n in range(4)],
    ("tick",),
    ("submit", 4),
    ("submit", 5),
    ("withdraw", "q5"),  # still pending: submitted after the settle
    ("tick",),
    ("tick",),
)

SERVE_MATRIX = {
    # hit 1 of the append sites is the genesis checkpoint record.
    "wal.append.before-frame": 4,
    "wal.append.after-frame": 6,
    "gateway.tick.before-period-record": 2,
    "gateway.tick.after-period-record": 2,
}


async def apply_op(client, op):
    from tests.strategies import select_query

    kind = op[0]
    if kind == "submit":
        n = op[1]
        status, body = await client.submit(
            select_query(f"q{n}", f"owner{n}", bid=4.0, cost=1.0))
    elif kind == "withdraw":
        status, body = await client.withdraw(op[1])
    else:
        status, body = await client.tick()
    assert status == 200, (op, status, body)


def gateway_state(gateway):
    return {
        "period": gateway.backend.period,
        "revenue": gateway.backend.total_revenue(),
        "pending": gateway.backend.pending_count(),
        "invoices": sorted(
            [shard, invoice.period, invoice.query_id]
            for shard, service in enumerate(gateway.backend.services)
            for invoice in service.ledger.invoices),
    }


def run_serve_child(tmp_path, wal_dir, crashpoint=None):
    script = tmp_path / "serve_child.py"
    script.write_text(SERVE_CHILD)
    result_path = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": PYTHONPATH}
    env.pop("REPRO_CRASHPOINT", None)
    if crashpoint is not None:
        env["REPRO_CRASHPOINT"] = crashpoint
    proc = subprocess.run(
        [sys.executable, str(script), str(wal_dir), str(result_path)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)
    return proc, result_path


@pytest.fixture(scope="module")
def serve_reference(tmp_path_factory):
    base = tmp_path_factory.mktemp("serve-reference")
    proc, result_path = run_serve_child(base, base / "wal")
    assert proc.returncode == 0, proc.stderr
    return json.loads(result_path.read_text())


@pytest.mark.serve
class TestServeKillMatrix:
    # ``wal_fsync="always"`` serves under the group committer (the
    # log's own policy is then "never"): a 200 must still mean on disk.
    @pytest.mark.parametrize(
        "crashpoint", sorted(SERVE_MATRIX),
        ids=lambda name: name.replace(".", "-"))
    def test_kill_recover_finish_converges(self, tmp_path,
                                           serve_reference, crashpoint):
        import asyncio

        from repro.wal import records as rec, scan_wal
        from tests.wal.test_gateway_wal import (
            build_cluster,
            wait_clean,
        )
        from repro.serve import (
            AdmissionGateway,
            GatewayClient,
            GatewayConfig,
        )

        wal_dir = tmp_path / "wal"
        armed = f"{crashpoint}:{SERVE_MATRIX[crashpoint]}"
        proc, _ = run_serve_child(tmp_path, wal_dir, crashpoint=armed)
        assert proc.returncode == -9, (
            f"{armed} never fired (rc={proc.returncode}): "
            f"{proc.stderr[-500:]}")

        # Ops the clients hold 200s for == records in the log; the
        # resumed client continues from the first unacknowledged op.
        applied = sum(1 for record in scan_wal(wal_dir).records
                      if record.kind in (rec.RECORD_OP,
                                         rec.RECORD_PERIOD))

        async def finish():
            config = GatewayConfig(quiet=True,
                                   wal_dir=str(wal_dir),
                                   wal_fsync="always")
            gateway = AdmissionGateway(build_cluster(), config)
            await gateway.start()
            async with GatewayClient(*gateway.address) as client:
                await wait_clean(client)
                for op in SERVE_OPS[applied:]:
                    await apply_op(client, op)
            state = gateway_state(gateway)
            await gateway.stop()
            return state

        state = asyncio.run(finish())
        assert state == serve_reference
        keys = [tuple(k) for k in state["invoices"]]
        assert len(keys) == len(set(keys)), "duplicate invoices"

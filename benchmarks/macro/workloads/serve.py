"""The two serving workloads: closed-loop clients over loopback HTTP.

Both stand an :class:`~repro.serve.AdmissionGateway` up on the child's
event loop and drive it from two keep-alive
:class:`~repro.serve.GatewayClient` connections on the *same* loop — a
closed loop, because a saturation rate is the one serving number that
stays put on a shared 2-core box, and one process, because a gateway in
a second process does not get steadier however it is normalised.

``serve_submit`` is the pure submit path over a host-backed 4-shard
federation (no WAL).  ``serve_durable`` mixes reads, withdraws and
subscriptions over a driver-backed gateway with the write-ahead log on.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import time
from collections import Counter

import calib
from harness import Meter, Workload, check_outcomes

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import (
    cluster_report_to_dict,
    load_cluster_snapshot,
    save_cluster_snapshot,
)
from repro.serve import AdmissionGateway, GatewayClient, GatewayConfig
from repro.serve.loadgen import materialize
from repro.sim import SimulationDriver, SubscriptionOptions
from repro.sim.arrivals import as_continuous_query

CONNECTIONS = 2
SHARDS = 4
WARMUP_SHARE = 0.05
RESTART_REPEATS = 5
#: How far into the measured slices serve_submit snapshots its cluster.
SNAPSHOT_AT = 0.25

SUBMIT, SUBSCRIBE, WITHDRAW, REPORT, METRICS = range(5)


def build_cluster(seed: int) -> FederatedAdmissionService:
    """The 4-shard CAT federation ``bench_serve.py`` serves."""
    return FederatedAdmissionService.build(
        num_shards=SHARDS,
        sources=[SyntheticStream("s", rate=2.0, seed=seed)],
        capacity=40.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="consistent-hash",
    )


def open_config(**overrides) -> GatewayConfig:
    """Rate limits out of the way: the workload measures the server."""
    return GatewayConfig(quiet=True, client_rate=1e9, client_burst=1e9,
                         peer_rate=1e9, peer_burst=1e9, **overrides)


def check_shard_document(checks, shard: dict, where: str) -> None:
    """Capacity never exceeded and payment <= bid, from the wire bytes."""
    instance, outcome = shard["instance"], shard["outcome"]
    bids = {q["id"]: q["bid"] for q in instance["queries"]}
    operators = {q["id"]: q["operators"] for q in instance["queries"]}
    payments = outcome["payments"]
    used = sum(instance["operators"][op] for op in
               {op for qid in payments for op in operators[qid]})
    checks.check(used <= instance["capacity"] + 1e-6,
                 f"{where}: load {used} over capacity "
                 f"{instance['capacity']}")
    checks.check(all(pay <= bids[qid] + 1e-9
                     for qid, pay in payments.items()),
                 f"{where}: a payment exceeds its bid")
    checks.check(sorted(payments) == sorted(shard["admitted"]),
                 f"{where}: admitted ids differ from the paying ids")


class Connection:
    """One client connection and what its script needs to remember."""

    def __init__(self, client: GatewayClient) -> None:
        self.client = client
        self.newest: "str | None" = None


class ServeWorkload(Workload):
    """Gateway + clients + the sliced closed loop; subclasses script it."""

    slice_ops = 200
    slices_per_settle = 5
    # Request slices are socket round trips on the event loop, which
    # is what the echo part does; the CPU part under-reads the noise
    # they feel (settles, CPU-bound in a worker thread, use both).
    kernel_mix = {"slice": calib.ECHO_ONLY}

    def __init__(self, options) -> None:
        super().__init__(options)
        self.gateway: "AdmissionGateway | None" = None
        self.connections: list[Connection] = []
        self.arrivals: list = []
        self._cursor = 0
        self.rtts: list[float] = []
        self.statuses: Counter = Counter()
        self.shard_hits: Counter = Counter()
        #: ids acknowledged (net of withdrawals) since the last settle.
        self.window: set[str] = set()
        #: (tick body, ids the period should have auctioned) per settle.
        self.settled: list[tuple[dict, set]] = []
        self.sizes = {"connections": CONNECTIONS, "shards": SHARDS,
                      "slice_ops": self.slice_ops,
                      "ops_per_settle":
                          self.slice_ops * self.slices_per_settle}

    # -- scripting hooks -------------------------------------------------

    def arrivals_per_slice(self) -> int:
        """Seeded arrivals one slice consumes."""
        return self.slice_ops

    def script(self, arrivals: list) -> list[list]:
        """Per-connection op lists for one slice's *arrivals*."""
        raise NotImplementedError

    def build_target(self):
        raise NotImplementedError

    def gateway_config(self) -> GatewayConfig:
        return open_config()

    # -- phases ------------------------------------------------------------

    async def setup(self) -> None:
        total = self.planned_slices()
        warm = max(1, round(total * WARMUP_SHARE))
        self.arrivals = materialize(
            f"poisson:rate=5,seed={self.seed}",
            (total + warm) * self.arrivals_per_slice())
        self.sizes["arrivals"] = len(self.arrivals)
        self.gateway = AdmissionGateway(self.build_target(),
                                        self.gateway_config())
        await self.gateway.start()
        host, port = self.gateway.address
        for index in range(CONNECTIONS):
            client = GatewayClient(host, port, client_id=f"c{index}")
            await client.connect()
            self.connections.append(Connection(client))
        await self.warm_up(warm)

    async def warm_up(self, slices: int) -> None:
        """The first 5 % of the ops, untimed, on one connection."""
        first = self.connections[0]
        #: Arrivals in the order the warm-up put them on the wire.
        self.warm_order = []
        for _ in range(slices):
            for ops in self.script(self.take_arrivals()):
                self.warm_order += [arrival for _kind, arrival, _category
                                    in ops if arrival is not None]
                await self.play(first, ops)
        await self.settle()

    def take_arrivals(self) -> list:
        count = self.arrivals_per_slice()
        chunk = self.arrivals[self._cursor:self._cursor + count]
        self._cursor += count
        return chunk

    async def play(self, conn: Connection, ops: list) -> None:
        client = conn.client
        clock = time.perf_counter
        rtts, statuses = self.rtts, self.statuses
        for kind, arrival, category in ops:
            started = clock()
            if kind == SUBMIT:
                status, body = await client.submit(arrival.query)
            elif kind == SUBSCRIBE:
                status, body = await client.submit(arrival.query,
                                                   category=category)
            elif kind == WITHDRAW:
                status, body = await client.withdraw(conn.newest)
            elif kind == REPORT:
                status, body = await client.report()
            else:
                status, body = await client.metrics()
            rtts.append(clock() - started)
            statuses[status] += 1
            if status != 200:
                continue
            if kind <= SUBSCRIBE:
                conn.newest = body["query_id"]
                self.window.add(conn.newest)
                self.shard_hits[body.get("shard")] += 1
            elif kind == WITHDRAW:
                self.window.discard(conn.newest)

    async def run_slice(self) -> None:
        scripts = self.script(self.take_arrivals())
        await asyncio.gather(*(
            self.play(conn, ops)
            for conn, ops in zip(self.connections, scripts)))

    async def settle(self) -> dict:
        status, body = await self.connections[0].client.tick()
        self.statuses[status] += 1
        self.settled.append((body if status == 200 else {},
                             self.window))
        self.window = set()
        return body

    async def measure(self, meter: Meter, slices: int) -> None:
        done = 0
        while done < slices and not meter.overrun():
            await meter.timed("slice", self.slice_ops, self.run_slice)
            done += 1
            if done % self.slices_per_settle == 0:
                await meter.timed("settle", 1, self.settle)
                if self.after_settle(done / slices):
                    await meter.mark()
        if self.window:
            # An unsettled tail would leak into the restart state.
            await meter.timed("settle", 1, self.settle)

    def after_settle(self, progress: float) -> bool:
        """Untimed work between slices; True if it took real time."""
        return False

    async def verify(self) -> None:
        requests = sum(self.statuses.values())
        bad = requests - self.statuses[200]
        self.checks.ops(requests, bad,
                        f"non-200 responses: {dict(self.statuses)}")
        for body, expected in self.settled:
            self.verify_settle(body, expected)
        self.layer["serve.rtt_p50_ms"] = (
            statistics.median(self.rtts) * 1e3)
        self.layer["serve.rtt_p99_ms"] = (
            statistics.quantiles(self.rtts, n=100)[98] * 1e3)
        self.layer["serve.non200_share"] = bad / max(1, requests)

    def verify_settle(self, body: dict, expected: set) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        for conn in self.connections:
            await conn.client.close()
        if self.gateway is not None:
            await self.gateway.stop(final_settle=False)
        await super().close()


# ----------------------------------------------------------------------
# serve_submit
# ----------------------------------------------------------------------


class ServeSubmit(ServeWorkload):
    name = "serve_submit"

    def build_target(self):
        self.cluster = build_cluster(self.seed)
        self.snapshot_path = None
        return self.cluster

    def script(self, arrivals: list) -> list[list]:
        return [[(SUBMIT, arrival, None)
                 for arrival in arrivals[index::CONNECTIONS]]
                for index in range(CONNECTIONS)]

    async def warm_up(self, slices: int) -> None:
        await super().warm_up(slices)
        self.warm_report = self.settled[-1][0].get("report")
        #: Last period's winners and the rebalancer's placements: both
        #: run, so both are re-auctioned with the next period.
        self.carried: set = set()

    def verify_settle(self, body: dict, expected: set) -> None:
        period = body.get("period")
        report = body.get("report") or {}
        shards = report.get("shards", [])
        seen = [qid for shard in shards
                for qid in shard["admitted"] + shard["rejected"]]
        self.checks.check(
            len(seen) == len(set(seen))
            and set(seen) == expected | self.carried,
            f"period {period}: admitted + rejected ({len(seen)}) != "
            f"submitted ({len(expected)}) + carried over "
            f"({len(self.carried)})")
        self.carried = {qid for shard in shards
                        for qid in shard["admitted"]}
        self.carried |= {migration["query_id"]
                         for migration in report.get("migrations", [])}
        for index, shard in enumerate(shards):
            check_shard_document(self.checks, shard,
                                 f"period {period} shard {index}")

    def after_settle(self, progress: float) -> bool:
        # Snapshots are O(history): taken a quarter of the way in, the
        # restart costs ~1 s instead of ~4 s and still grows with
        # whatever a change adds to per-period state.
        if self.snapshot_path is not None or progress < SNAPSHOT_AT:
            return False
        self.take_snapshot()
        return True

    def take_snapshot(self) -> None:
        self.snapshot_path = self.scratch("cluster.ckpt")
        started = time.perf_counter()
        save_cluster_snapshot(self.cluster.snapshot(), self.snapshot_path)
        self.layer["io.snapshot_save_s"] = time.perf_counter() - started
        self.layer["io.snapshot_mb"] = (
            self.snapshot_path.stat().st_size / 2 ** 20)
        self.pre_restart = (self.cluster.period,
                            self.cluster.total_revenue())

    async def restart(self, meter: Meter) -> None:
        if self.snapshot_path is None:
            self.take_snapshot()
        path = self.snapshot_path
        for _ in range(self.repeats(RESTART_REPEATS)):
            gateway, _sample = await meter.one_shot(
                "restart", lambda: self._restart_once(path))
            restored = gateway.backend.host.cluster
            self.checks.check(
                (restored.period, restored.total_revenue())
                == self.pre_restart,
                "restored cluster period/revenue differ from the "
                "snapshotted ones")
            await gateway.stop(final_settle=False)
            gateway = restored = None   # collectable before the next

    async def _restart_once(self, path) -> AdmissionGateway:
        cluster = FederatedAdmissionService.restore(
            load_cluster_snapshot(path))
        gateway = AdmissionGateway(cluster, open_config())
        await gateway.start()
        async with GatewayClient(*gateway.address) as client:
            status, _body = await client.health()
        self.checks.check(status == 200, "restarted /healthz not 200")
        return gateway

    async def verify(self) -> None:
        await super().verify()
        hits = [self.shard_hits[index] for index in range(SHARDS)]
        self.layer["cluster.shard_skew"] = (
            max(hits) / (sum(hits) / SHARDS))
        # The gateway adds transport, never semantics: the warm-up
        # pass went over one connection in list order, so the same
        # submissions made in process must settle to the same bytes.
        local = build_cluster(self.seed)
        for arrival in self.warm_order:
            local.submit(as_continuous_query(arrival.query))
        expected = cluster_report_to_dict(local.run_period())
        self.checks.check(
            json.dumps(self.warm_report, sort_keys=True)
            == json.dumps(expected, sort_keys=True),
            "warm-up settle over the gateway is not byte-identical "
            "to the in-process settle")


# ----------------------------------------------------------------------
# serve_durable
# ----------------------------------------------------------------------

S, W, R, M = SUBMIT, WITHDRAW, REPORT, METRICS
#: 14 submits, 3 subscribes, 1 withdraw, 1 report, 1 metrics.
PATTERN = (S, S, S, S, "day", S, S, S, W, S, S, "week", S, S, R, S, S,
           "month", S, M)
PATTERN_ARRIVALS = sum(1 for op in PATTERN if op == S or isinstance(op, str))


class ServeDurable(ServeWorkload):
    name = "serve_durable"

    slice_ops = 160
    slices_per_settle = 5
    compact_every = 16

    def arrivals_per_slice(self) -> int:
        return self.slice_ops // len(PATTERN) * PATTERN_ARRIVALS

    def build_driver(self) -> SimulationDriver:
        return SimulationDriver(
            build_cluster(self.seed),
            subscriptions=SubscriptionOptions(seed=self.seed))

    def build_target(self):
        self.driver = self.build_driver()
        self.wal_dir = self.scratch("wal")
        self.sizes["wal_fsync"] = "batch:256"
        self.sizes["compact_every"] = self.compact_every
        return self.driver

    def gateway_config(self) -> GatewayConfig:
        # The JSONL request log is on, as a deployed gateway has it:
        # the one workload where serve.logs does work.
        return open_config(wal_dir=str(self.wal_dir),
                           wal_fsync="batch:256",
                           compact_every=self.compact_every,
                           log_path=str(self.scratch("gateway.jsonl")))

    def script(self, arrivals: list) -> list[list]:
        scripts = []
        feed = iter(arrivals)
        patterns = self.slice_ops // len(PATTERN) // CONNECTIONS
        for _ in range(CONNECTIONS):
            ops = []
            for _ in range(patterns):
                for op in PATTERN:
                    if op == S:
                        ops.append((SUBMIT, next(feed), None))
                    elif isinstance(op, str):
                        ops.append((SUBSCRIBE, next(feed), op))
                    else:
                        ops.append((op, None, None))
            scripts.append(ops)
        return scripts

    async def measure(self, meter: Meter, slices: int) -> None:
        before = await self._wal_stats()
        ops_before = sum(self.statuses.values())
        await super().measure(meter, slices)
        after = await self._wal_stats()
        ops = max(1, sum(self.statuses.values()) - ops_before)
        self.layer["wal.bytes_per_op"] = (
            after["appended_bytes"] - before["appended_bytes"]) / ops
        self.layer["wal.fsyncs_per_kop"] = (
            after["fsyncs"] - before["fsyncs"]) * 1e3 / ops

    async def _wal_stats(self) -> dict:
        _status, document = await self.connections[0].client.metrics()
        return document["wal"]

    def verify_settle(self, body: dict, expected: set) -> None:
        period = body.get("period")
        report = body.get("report") or {}
        seen = report.get("admitted", []) + report.get("rejected", [])
        renewed = len(report.get("renewed", []))
        self.checks.check(
            len(seen) == len(expected) + renewed
            and expected <= set(seen),
            f"period {period}: admitted + rejected ({len(seen)}) != "
            f"submitted ({len(expected)}) + renewed ({renewed})")

    async def restart(self, meter: Meter) -> None:
        client = self.connections[0].client
        _status, self.pre_report = await client.report()
        # Stop cleanly (syncs and closes the log) so the copies below
        # are of a quiescent directory.
        for conn in self.connections:
            await conn.client.close()
        await self.gateway.stop(final_settle=False)
        self.layer["wal.snapshot_mb"] = sum(
            path.stat().st_size
            for path in self.wal_dir.glob("snapshot-*")) / 2 ** 20
        self.recovered = None
        for index in range(self.repeats(RESTART_REPEATS)):
            copy = self.scratch(f"wal-copy-{index}")
            shutil.copytree(self.wal_dir, copy)
            gateway, _sample = await meter.one_shot(
                "restart", lambda: self._restart_once(copy))
            if self.recovered is None:
                self.recovered = await self._recovered_view(gateway)
            await gateway.stop(final_settle=False)
            gateway = None              # collectable before the next
            shutil.rmtree(copy, ignore_errors=True)

    async def _restart_once(self, wal_dir) -> AdmissionGateway:
        gateway = AdmissionGateway(
            self.build_driver(),
            open_config(wal_dir=str(wal_dir), wal_fsync="batch:256",
                        compact_every=self.compact_every))
        await gateway.start()
        async with GatewayClient(*gateway.address) as client:
            while True:
                status, health = await client.health()
                if (status == 200 and health["recovered_from_wal"]
                        and health["recovery"] != "replaying"):
                    break
                await asyncio.sleep(0.005)
        self.layer["wal.replayed_records"] = health["replayed_records"]
        return gateway

    async def _recovered_view(self, gateway) -> dict:
        async with GatewayClient(*gateway.address) as client:
            _status, report = await client.report()
        invoices = [
            (shard, invoice.period, invoice.query_id)
            for shard, service in enumerate(gateway.backend.services)
            for invoice in service.ledger.invoices]
        return {"report": report, "invoices": invoices}

    async def verify(self) -> None:
        await super().verify()
        before, after = self.pre_report, self.recovered["report"]
        for document in (before, after):
            document.pop("request_id", None)
        self.checks.check(
            json.dumps(before, sort_keys=True)
            == json.dumps(after, sort_keys=True),
            "recovered /v1/report (incl. total revenue) differs from "
            "the pre-restart one")
        invoices = self.recovered["invoices"]
        self.checks.check(len(invoices) == len(set(invoices)),
                          "recovered ledger holds duplicate invoices")
        # Capacity and payment <= bid, per category auction, in process.
        for report in self.driver.reports:
            for shard, result in enumerate(report.shard_results):
                check_outcomes(self.checks, result.outcomes.values(),
                               f"period {report.period} shard {shard}")

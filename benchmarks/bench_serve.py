"""Serving-layer throughput, latency, scaling, and equivalence bench.

Stands up the serving layer over a multi-shard
:class:`~repro.cluster.FederatedAdmissionService` on real loopback
sockets and measures it with the seeded load generator
(:mod:`repro.serve.loadgen`):

* **equivalence** — the same seeded submissions driven through the
  gateway and driven in-process must settle to *byte-identical*
  period reports (the gateway adds transport, never semantics); the
  same check runs against a multi-process front-end, whose
  shard-affinity routing and coordinator settle must preserve
  per-shard submission order exactly;
* **throughput** — sustained requests/s and p50/p95/p99 request
  latency for a concurrent seeded load with periodic auction settles;
* **scaling** — the same load against ``repro serve --workers N``
  pre-fork front-ends (1/2/4/8 by default), with one forked load
  generator process per worker so the measurement is not bound by the
  client's GIL.

Standalone so CI can smoke it without pytest:

    python benchmarks/bench_serve.py                  # full-sized
    python benchmarks/bench_serve.py --smoke          # CI-sized
    python benchmarks/bench_serve.py --smoke --workers 2

Results are printed, written to ``benchmarks/out/serve.txt``, and
seeded into ``BENCH_serve.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import FederatedAdmissionService  # noqa: E402
from repro.dsms.streams import SyntheticStream  # noqa: E402
from repro.io import cluster_report_to_dict  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionGateway,
    FrontendConfig,
    GatewayClient,
    GatewayConfig,
    GatewaySupervisor,
    run_load,
)
from repro.serve.loadgen import materialize  # noqa: E402
from repro.sim.arrivals import as_continuous_query  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402

OUT_DIR = Path(__file__).parent / "out"
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def build_cluster(args) -> FederatedAdmissionService:
    return FederatedAdmissionService.build(
        num_shards=args.shards,
        sources=[SyntheticStream("s", rate=2.0, seed=args.seed)],
        capacity=args.capacity,
        mechanism=args.mechanism,
        ticks_per_period=args.ticks,
        placement="consistent-hash",
    )


def loadgen_config() -> GatewayConfig:
    """Rate limits out of the way: the bench measures the server."""
    return GatewayConfig(quiet=True, client_rate=100_000.0,
                         client_burst=100_000.0, peer_rate=1e9,
                         peer_burst=1e9)


def report_bytes(report) -> str:
    return json.dumps(cluster_report_to_dict(report), sort_keys=True)


async def check_equivalence(args) -> dict:
    """Gateway-mediated vs in-process: byte-identical period reports.

    The same seeded arrivals are submitted in the same order to two
    identically built federations — one over the wire (sequentially,
    so the submission order on the wire is the list order), one by
    direct calls — and both settle one period.
    """
    arrivals = materialize(args.arrivals_spec, args.equivalence_queries)

    served = build_cluster(args)
    gateway = AdmissionGateway(served, loadgen_config())
    await gateway.start()
    host, port = gateway.address
    async with GatewayClient(host, port, client_id="equiv") as client:
        for arrival in arrivals:
            status, _body = await client.submit(arrival.query)
            assert status == 200, f"submit failed with {status}"
        status, body = await client.tick()
        assert status == 200, f"tick failed with {status}"
    await gateway.stop()
    gateway_bytes = report_bytes(served.reports[-1])

    local = build_cluster(args)
    for arrival in arrivals:
        # The wire path materializes lazy SelectPlans; the in-process
        # reference must submit the same materialized plans.
        local.submit(as_continuous_query(arrival.query))
    local_bytes = report_bytes(local.run_period())

    identical = gateway_bytes == local_bytes
    assert identical, "gateway-mediated report diverged from in-process"
    return {
        "queries": len(arrivals),
        "byte_identical": identical,
        "report_bytes": len(gateway_bytes),
    }


def check_multiworker_equivalence(args, workers: int = 2) -> dict:
    """Pre-fork front-end vs in-process: byte-identical reports.

    Sequential submissions through a multi-worker supervisor (with
    shard-affinity forwarding in the path) must settle to the same
    bytes as direct in-process calls — routing and the coordinator
    drain preserve per-shard submission order exactly.
    """
    arrivals = materialize(args.arrivals_spec, args.equivalence_queries)

    async def drive(host, port):
        async with GatewayClient(host, port,
                                 client_id="equiv") as client:
            for arrival in arrivals:
                status, _body = await client.submit(arrival.query)
                assert status == 200, f"submit failed with {status}"
            status, body = await client.tick()
            assert status == 200, f"tick failed with {status}"
            return body["report"]

    config = FrontendConfig(workers=workers, gateway=loadgen_config())
    with GatewaySupervisor(lambda: build_cluster(args),
                           config) as supervisor:
        host, port = supervisor.address
        report = asyncio.run(drive(host, port))
    frontend_bytes = json.dumps(report, sort_keys=True)

    local = build_cluster(args)
    for arrival in arrivals:
        local.submit(as_continuous_query(arrival.query))
    local_bytes = report_bytes(local.run_period())

    identical = frontend_bytes == local_bytes
    assert identical, (
        f"{workers}-worker front-end report diverged from in-process")
    return {
        "workers": workers,
        "queries": len(arrivals),
        "byte_identical": identical,
    }


async def _measure_single(args) -> dict:
    """Single-process gateway baseline."""
    gateway = AdmissionGateway(build_cluster(args), loadgen_config())
    await gateway.start()
    host, port = gateway.address
    started = time.perf_counter()
    result = await run_load(
        host, port,
        arrivals=args.arrivals_spec,
        requests=args.requests,
        concurrency=args.concurrency,
        tick_every=max(1, args.requests // args.periods))
    elapsed = time.perf_counter() - started
    async with GatewayClient(host, port) as client:
        _status, metrics = await client.metrics()
    await gateway.stop()
    assert result.completed == args.requests, result.statuses
    return {
        "workers": 1,
        "requests": result.requests,
        "concurrency": args.concurrency,
        "loadgen_processes": 1,
        "ticks": result.ticks,
        "seconds": elapsed,
        "requests_per_s": result.requests_per_s,
        "latency_ms": result.latency_ms,
        "server_latency_ms": metrics["latency_ms"],
        "statuses": result.statuses,
    }


def _measure_workers(args, workers: int) -> dict:
    """Pre-fork front-end throughput at *workers* workers.

    One forked load generator process per worker (capped at 8), each
    driving a slice of the same seeded arrivals — a single Python
    client cannot saturate a multi-process server through one GIL.
    """
    processes = min(workers, 8)
    config = FrontendConfig(workers=workers, gateway=loadgen_config())
    with GatewaySupervisor(lambda: build_cluster(args),
                           config) as supervisor:
        host, port = supervisor.address
        started = time.perf_counter()
        result = asyncio.run(run_load(
            host, port,
            arrivals=args.arrivals_spec,
            requests=args.requests,
            concurrency=args.concurrency,
            # tick_every counts completions *per generator process*,
            # so the same value yields the same ~args.periods settles
            # in total as the single-process run.
            tick_every=max(1, args.requests // args.periods),
            processes=processes))
        elapsed = time.perf_counter() - started
    assert result.completed == args.requests, result.statuses
    return {
        "workers": workers,
        "requests": result.requests,
        "concurrency": args.concurrency,
        "loadgen_processes": processes,
        "ticks": result.ticks,
        "seconds": elapsed,
        "requests_per_s": result.requests_per_s,
        "latency_ms": result.latency_ms,
        "statuses": result.statuses,
    }


def measure_scaling(args) -> list[dict]:
    rows = []
    for workers in args.worker_counts:
        if workers == 1:
            rows.append(asyncio.run(_measure_single(args)))
        else:
            rows.append(_measure_workers(args, workers))
        print(f"  {workers} worker(s): "
              f"{rows[-1]['requests_per_s']:.0f} req/s")
    return rows


def parse_workers(spec: str) -> list[int]:
    counts = sorted({int(part) for part in spec.split(",") if part})
    if not counts or min(counts) < 1:
        raise SystemExit(f"bad --workers list {spec!r}")
    if 1 not in counts:
        counts.insert(0, 1)     # the curve needs its baseline
    return counts


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="gateway serving throughput, latency, worker "
                    "scaling, and gateway-vs-in-process equivalence")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small counts, fast exit)")
    parser.add_argument("--requests", type=int, default=None,
                        help="loadgen submissions "
                             "(default 2000; smoke 300)")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--periods", type=int, default=10,
                        help="auction settles spread over the load")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--capacity", type=float, default=40.0)
    parser.add_argument("--mechanism", default="CAT")
    parser.add_argument("--ticks", type=int, default=4)
    parser.add_argument("--equivalence-queries", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", default=None,
                        help="comma list of pre-fork worker counts "
                             "for the scaling curve (default 1,2,4,8; "
                             "smoke 1,2); 1 is always included as "
                             "the baseline")
    args = parser.parse_args(argv)

    if args.requests is None:
        args.requests = 300 if args.smoke else 2_000
    if args.workers is None:
        args.workers = "1,2" if args.smoke else "1,2,4,8"
    args.worker_counts = parse_workers(args.workers)
    args.arrivals_spec = f"poisson:rate=5,seed={args.seed}"

    equivalence = asyncio.run(check_equivalence(args))
    multi_equivalence = check_multiworker_equivalence(
        args, workers=min(max(args.worker_counts), 2) if
        max(args.worker_counts) > 1 else 2)
    print("scaling curve:")
    scaling = measure_scaling(args)
    throughput = scaling[0]
    single_rps = throughput["requests_per_s"]
    cores = os.cpu_count() or 1
    multi = [row for row in scaling if row["workers"] > 1]
    if multi:
        # Printed, never asserted: on one or two cores the load
        # generator and the workers time-slice the same CPUs, so the
        # curve reads forwarding overhead, not parallel speedup.
        best = max(row["requests_per_s"] for row in multi)
        print(f"note: {cores} CPU core(s) — best multi-worker "
              f"{best:.0f} vs single-process {single_rps:.0f} req/s "
              f"({best / single_rps:.2f}x)")

    result = {
        "workload": {
            "arrivals": args.arrivals_spec,
            "requests": args.requests,
            "concurrency": args.concurrency,
            "shards": args.shards,
            "capacity": args.capacity,
            "mechanism": args.mechanism,
            "ticks_per_period": args.ticks,
            "seed": args.seed,
            "cpu_count": cores,
        },
        "equivalence": equivalence,
        "multiworker_equivalence": multi_equivalence,
        "throughput": throughput,
        "scaling": [
            {**row,
             "speedup": round(row["requests_per_s"] / single_rps, 3)}
            for row in scaling],
        "smoke": bool(args.smoke),
    }

    latency = throughput["latency_ms"]
    rows = [
        ["requests", throughput["requests"]],
        ["concurrency", throughput["concurrency"]],
        ["settles", throughput["ticks"]],
        ["seconds", throughput["seconds"]],
        ["requests/s", throughput["requests_per_s"]],
        ["latency p50 (ms)", latency["p50"]],
        ["latency p95 (ms)", latency["p95"]],
        ["latency p99 (ms)", latency["p99"]],
        ["equivalence queries", equivalence["queries"]],
        ["byte-identical report", equivalence["byte_identical"]],
        ["multi-worker identical",
         multi_equivalence["byte_identical"]],
    ]
    for row in scaling:
        rows.append([f"req/s @ {row['workers']} worker(s)",
                     row["requests_per_s"]])
    table = format_table(
        ["metric", "value"], rows, precision=2,
        title=(f"Serving gateway — {args.shards} shards, "
               f"{args.mechanism}, {args.requests} requests over "
               f"loopback HTTP"))
    print(table)

    # Smoke runs go to the out dir (like the sibling benchmarks), so
    # CI never clobbers the seeded full-run BENCH_serve.json.
    bench_json = (OUT_DIR / "BENCH_serve_smoke.json" if args.smoke
                  else BENCH_JSON)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "serve.txt").write_text(table + "\n")
    bench_json.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {bench_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

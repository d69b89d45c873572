"""Sharded federation: placement, rebalancing, cluster checkpoints.

Demonstrates the ``repro.cluster`` scale-out layer end to end:

1. build a 3-shard :class:`FederatedAdmissionService` where every
   shard is a full admission service (own engine, ledger, CAT
   mechanism), routed by a seeded consistent-hash on the client id;
2. submit three clients' query portfolios — the hash ring co-locates
   each client's queries on one shard;
3. run two cluster periods and watch the rebalancer migrate rejected
   queries onto shards with spare capacity (they run free for the
   rest of the period, then compete in their new shard's auction);
4. checkpoint the whole cluster to one file, resume it, and replay a
   period — the resumed :class:`ClusterReport` is byte-identical.

Run:  python examples/cluster_federation.py
"""

import json
import tempfile
from pathlib import Path

from repro.cluster import FederatedAdmissionService
from repro.dsms import ContinuousQuery, SelectOperator, SyntheticStream
from repro.io import cluster_report_to_dict


def accept_every_tuple(_tuple) -> bool:
    """Module-level predicate: checkpoint files require picklable plans."""
    return True


def client_query(client: str, index: int, period: int,
                 bid: float, cost: float) -> ContinuousQuery:
    qid = f"{client}_p{period}_q{index}"
    op = SelectOperator(f"sel_{qid}", "events", accept_every_tuple,
                        cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id, bid=bid,
                           owner=client)


def submissions_for(period: int) -> list[ContinuousQuery]:
    portfolios = {
        "alice": [(55.0, 2.0), (40.0, 1.5), (30.0, 1.0)],
        "bob": [(80.0, 2.5), (25.0, 1.0)],
        "carol": [(60.0, 2.0), (45.0, 1.5), (35.0, 1.0), (20.0, 0.5)],
    }
    return [
        client_query(client, index, period, bid + period, cost)
        for client, portfolio in portfolios.items()
        for index, (bid, cost) in enumerate(portfolio)
    ]


def report_line(report) -> str:
    return (f"period {report.period}: revenue={report.total_revenue:.2f} "
            f"admitted={len(report.admitted)} "
            f"rejected={len(report.rejected)} "
            f"migrated={list(report.migrated)} "
            f"util={0.0 if report.utilization is None else report.utilization:.2f}")


def main() -> None:
    cluster = FederatedAdmissionService.build(
        num_shards=3,
        sources=[SyntheticStream("events", rate=6, seed=11)],
        capacity=25.0,
        mechanism="CAT",
        ticks_per_period=15,
        placement="consistent-hash:seed=7",
    )

    print("placement (consistent-hash on client id):")
    for query in submissions_for(1):
        shard = cluster.submit(query)
        print(f"  {query.query_id:<16} owner={query.owner:<6} -> shard {shard}")
    print()

    print(report_line(cluster.run_period()))
    for query in submissions_for(2):
        cluster.submit(query)
    print(report_line(cluster.run_period()))
    print()

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "cluster.ckpt"
        cluster.save_checkpoint(checkpoint)
        print(f"checkpoint: {checkpoint.stat().st_size} bytes, "
              f"{cluster.num_shards} shard envelopes composed")

        resumed = FederatedAdmissionService.load_checkpoint(checkpoint)
        for target in (cluster, resumed):
            for query in submissions_for(3):
                target.submit(query)
        original = cluster.run_period()
        replayed = resumed.run_period()
        identical = (
            json.dumps(cluster_report_to_dict(original), sort_keys=True)
            == json.dumps(cluster_report_to_dict(replayed), sort_keys=True))
        print(report_line(original))
        print(f"resumed replay byte-identical: {identical}")
        assert identical

    print(f"\ncluster revenue over 3 periods: {cluster.total_revenue():.2f}")


if __name__ == "__main__":
    main()

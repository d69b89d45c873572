"""Property-based invariants of the sharded federation.

The economic guarantees the paper proves for one center must survive
sharding.  Hypothesis drives randomized multi-shard, multi-client,
multi-period workloads through :class:`FederatedAdmissionService` and
checks, for every period:

* **capacity feasibility** — no shard's admitted set (auction winners
  plus migrated-in queries) exceeds its capacity;
* **budget balance** — cluster profit is exactly the sum of shard
  profits, which is exactly what the ledgers invoiced;
* **placement determinism** — the same seed and workload produce the
  same placement and byte-identical cluster reports;
* **no double billing** — each query is invoiced at most once per
  period, and a migrated query is invoiced zero times in the period it
  migrates (migration is free-riding on spare capacity, not a sale).
"""

import json

import pytest
from hypothesis import given, settings

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import cluster_report_to_dict

from tests.strategies import cluster_workloads

pytestmark = pytest.mark.cluster

EPSILON = 1e-6

#: ≥ 100 examples per property (the acceptance bar of this suite).
invariant_settings = settings(max_examples=100, deadline=None)


def build_cluster(workload, rebalance=True):
    return FederatedAdmissionService.build(
        num_shards=workload.num_shards,
        sources=[SyntheticStream("s", rate=workload.rate,
                                 seed=workload.seed, poisson=False)],
        capacity=workload.capacity,
        mechanism="CAT",
        ticks_per_period=3,
        placement=workload.placement,
        rebalance=rebalance,
    )


def run_workload(workload, rebalance=True):
    cluster = build_cluster(workload, rebalance=rebalance)
    reports = cluster.run_periods(workload.submissions)
    return cluster, reports


@given(cluster_workloads())
@invariant_settings
def test_per_shard_capacity_never_exceeded(workload):
    cluster, reports = run_workload(workload)
    for report in reports:
        migrated_load = {}
        for migration in report.migrations:
            migrated_load[migration.target] = (
                migrated_load.get(migration.target, 0.0) + migration.load)
        for index, shard_report in enumerate(report.shard_reports):
            used = shard_report.outcome.used_capacity
            assert used <= workload.capacity + EPSILON
            assert (used + migrated_load.get(index, 0.0)
                    <= workload.capacity + EPSILON)


@given(cluster_workloads())
@invariant_settings
def test_cluster_profit_is_sum_of_shard_profits(workload):
    cluster, reports = run_workload(workload)
    for report in reports:
        assert report.total_revenue == pytest.approx(
            sum(r.revenue for r in report.shard_reports))
    assert cluster.total_revenue() == pytest.approx(
        sum(report.total_revenue for report in reports))
    assert cluster.total_revenue() == pytest.approx(
        sum(shard.ledger.total_revenue() for shard in cluster.shards))


@given(cluster_workloads())
@invariant_settings
def test_placement_is_deterministic_given_a_seed(workload):
    first = build_cluster(workload)
    second = build_cluster(workload)
    first_reports, second_reports = [], []
    for batch in workload.submissions:
        first_placed = [first.submit(q) for q in batch]
        second_placed = [second.submit(q) for q in batch]
        assert first_placed == second_placed
        first_reports.append(first.run_period())
        second_reports.append(second.run_period())
    for ours, theirs in zip(first_reports, second_reports):
        assert (json.dumps(cluster_report_to_dict(ours), sort_keys=True)
                == json.dumps(cluster_report_to_dict(theirs),
                              sort_keys=True))


@given(cluster_workloads())
@invariant_settings
def test_migrated_query_is_never_double_billed(workload):
    cluster, reports = run_workload(workload)
    for report in reports:
        billed = [
            invoice.query_id
            for shard in cluster.shards
            for invoice in shard.ledger.invoices
            if invoice.period == report.period
        ]
        assert len(billed) == len(set(billed)), (
            f"period {report.period} billed a query twice: {billed}")
        for query_id in report.migrated:
            assert billed.count(query_id) == 0, (
                f"migrated query {query_id} was billed in the period "
                f"it migrated")

"""The pooled batch auction path: parallel == sequential.

``run_period_all`` dispatches independent shard auctions across a
thread pool (auctions are side-effect-free until settlement); these
tests pin that the pooled path produces byte-identical cluster reports
to the sequential :meth:`run_period` — including for randomized
mechanisms, whose per-shard RNG streams must be consumed in shard
order either way — and that auction failures still roll back cleanly.
"""

import json

import pytest
from hypothesis import given, settings

from repro.cluster import FederatedAdmissionService
from repro.core.mechanism import Mechanism, register_mechanism
from repro.dsms.streams import SyntheticStream
from repro.io import cluster_report_to_dict

from tests.strategies import cluster_workloads, select_query

pytestmark = pytest.mark.cluster


def build_cluster(mechanism="two-price:seed=7", num_shards=3,
                  capacity=8.0, selection=None, auction_workers=None):
    return FederatedAdmissionService.build(
        num_shards=num_shards,
        sources=[SyntheticStream("s", rate=4, seed=5, poisson=False)],
        capacity=capacity,
        mechanism=mechanism,
        ticks_per_period=3,
        selection=selection,
        placement="round-robin",
        auction_workers=auction_workers,
    )


def submissions(period, count=7):
    return [
        select_query(f"p{period}q{i}", owner=f"c{i % 3}",
                     bid=10.0 + 3 * i, cost=0.5 + 0.25 * i)
        for i in range(count)
    ]


def report_bytes(report):
    return json.dumps(cluster_report_to_dict(report), sort_keys=True)


def run_periods(cluster, periods, batch):
    reports = []
    for period in range(1, periods + 1):
        for query in submissions(period):
            cluster.submit(query)
        reports.append(cluster.run_period_all() if batch
                       else cluster.run_period())
    return reports


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("selection", [None, "fast"])
    def test_randomized_mechanism_reports_identical(self, selection):
        sequential = build_cluster(selection=selection)
        pooled = build_cluster(selection=selection)
        for left, right in zip(run_periods(sequential, 3, batch=False),
                               run_periods(pooled, 3, batch=True)):
            assert report_bytes(left) == report_bytes(right)
        assert sequential.total_revenue() == pooled.total_revenue()

    def test_single_worker_pool_identical_to_wide_pool(self):
        narrow = build_cluster(auction_workers=1)
        wide = build_cluster(auction_workers=8)
        for left, right in zip(run_periods(narrow, 2, batch=True),
                               run_periods(wide, 2, batch=True)):
            assert report_bytes(left) == report_bytes(right)

    def test_shared_mechanism_object_stays_sequential(self):
        """Shards sharing one live mechanism draw RNG in shard order."""
        from repro.core import TwoPrice

        sequential = build_cluster(mechanism=TwoPrice(seed=3))
        pooled = build_cluster(mechanism=TwoPrice(seed=3))
        assert len({id(s.mechanism) for s in pooled.shards}) == 1
        for left, right in zip(run_periods(sequential, 2, batch=False),
                               run_periods(pooled, 2, batch=True)):
            assert report_bytes(left) == report_bytes(right)

    @given(workload=cluster_workloads(max_periods=2))
    @settings(max_examples=25, deadline=None)
    def test_property_batch_equals_sequential_with_fast_selection(
            self, workload):
        def build(selection):
            return FederatedAdmissionService.build(
                num_shards=workload.num_shards,
                sources=[SyntheticStream(
                    "s", rate=workload.rate, seed=workload.seed)],
                capacity=workload.capacity,
                mechanism="two-price:seed=13",
                ticks_per_period=2,
                selection=selection,
                placement=workload.placement,
            )

        sequential = build("reference")
        pooled = build("fast")
        for batch in workload.submissions:
            for query in batch:
                sequential.submit(query)
                pooled.submit(query)
            left = sequential.run_period()
            right = pooled.run_period_all()
            assert report_bytes(left) == report_bytes(right)


class _Explosive(Mechanism):
    name = "explosive"

    def _select(self, instance):
        raise RuntimeError("auction blew up")


class TestFailurePropagation:
    def test_auction_failure_rolls_back_and_is_retryable(self):
        register_mechanism("explosive-parallel", _Explosive)
        cluster = build_cluster(mechanism="explosive-parallel",
                                num_shards=2)
        for query in submissions(1, count=4):
            cluster.submit(query)
        pending_before = set(cluster.pending_ids)
        with pytest.raises(RuntimeError, match="auction blew up"):
            cluster.run_period_all()
        assert cluster.period == 0
        assert cluster.pending_ids == pending_before
        for shard in cluster.shards:
            assert shard.period == 0
        # Swap in a working mechanism and retry the period.
        for shard in cluster.shards:
            shard.mechanism = (
                __import__("repro.core", fromlist=["CAT"]).CAT())
        report = cluster.run_period_all()
        assert report.period == 1

    def test_restored_cluster_defaults_auction_workers(self):
        cluster = build_cluster(auction_workers=4)
        restored = FederatedAdmissionService.restore(cluster.snapshot())
        assert restored.auction_workers is None


def test_checkpoint_resume_continues_identically():
    """A mid-run checkpoint resumes byte-identically on the pool."""
    reference = build_cluster()
    pooled = build_cluster(auction_workers=2)
    for query in submissions(1):
        reference.submit(query)
    for query in submissions(1):
        pooled.submit(query)
    reference.run_period()
    pooled.run_period_all()
    restored = FederatedAdmissionService.restore(pooled.snapshot())
    restored.auction_workers = 2
    for query in submissions(2):
        reference.submit(query)
    for query in submissions(2):
        restored.submit(query)
    left = reference.run_period()
    right = restored.run_period_all()
    assert report_bytes(left) == report_bytes(right)

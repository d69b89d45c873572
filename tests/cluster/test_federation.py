"""Unit tests for the federation facade and rebalancer."""

import json
import re

import pytest
from hypothesis import given, settings

from repro.cluster import (
    FederatedAdmissionService,
    Rebalancer,
    RoundRobinPlacement,
)
from repro.core import CAT
from repro.core.mechanism import Mechanism
from repro.dsms.streams import SyntheticStream
from repro.io import cluster_report_to_dict
from repro.utils.validation import ValidationError

from tests.strategies import cluster_workloads, select_query

pytestmark = pytest.mark.cluster


def build_cluster(num_shards=2, capacity=10.0, mechanism="CAT",
                  placement="round-robin", rebalance=True, ticks=4):
    return FederatedAdmissionService.build(
        num_shards=num_shards,
        sources=[SyntheticStream("s", rate=4, seed=5, poisson=False)],
        capacity=capacity,
        mechanism=mechanism,
        ticks_per_period=ticks,
        placement=placement,
        rebalance=rebalance,
    )


def report_bytes(report):
    return json.dumps(cluster_report_to_dict(report), sort_keys=True)


def build_randomized(num_shards=3):
    """Round-robin shards, each with its own seeded Two-price."""
    return build_cluster(num_shards=num_shards, capacity=8.0,
                         mechanism="two-price:seed=7", ticks=3)


def submissions(period, count=7):
    return [
        select_query(f"p{period}q{i}", owner=f"c{i % 3}",
                     bid=10.0 + 3 * i, cost=0.5 + 0.25 * i)
        for i in range(count)
    ]


def rng_state(mechanism):
    return mechanism._rng.bit_generator.state


class _Explosive(Mechanism):
    name = "explosive"

    def _select(self, instance):
        raise RuntimeError("auction blew up")


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValidationError, match="at least one shard"):
            FederatedAdmissionService(shards=[])

    def test_rejects_duplicate_shard_objects(self):
        shard = build_cluster(num_shards=1).shards[0]
        with pytest.raises(ValidationError, match="twice"):
            FederatedAdmissionService(shards=[shard, shard])

    def test_starts_at_the_period_its_shards_reached(self):
        shard = build_cluster(num_shards=1).shards[0]
        for period in range(3):
            shard.submit(select_query(f"q{period}", "a", 10.0, 1.0))
            shard.run_period()
        cluster = FederatedAdmissionService(shards=[shard])
        assert cluster.period == 3
        cluster.submit(select_query("next", "a", 10.0, 1.0))
        report = cluster.run_period()
        assert report.period == 4
        assert [r.period for r in report.shard_reports] == [4]

    def test_refuses_shards_at_different_periods(self):
        ahead, behind = build_cluster(num_shards=2).shards
        ahead.submit(select_query("q", "a", 10.0, 1.0))
        ahead.run_period()
        with pytest.raises(ValidationError, match=r"periods \[1, 0\]"):
            FederatedAdmissionService(shards=[ahead, behind])

    def test_build_validates_shard_count(self):
        with pytest.raises(ValidationError, match="num_shards"):
            build_cluster(num_shards=0)

    def test_spec_mechanisms_are_per_shard_instances(self):
        cluster = build_cluster(num_shards=3, mechanism="two-price:seed=7")
        mechanisms = {id(shard.mechanism) for shard in cluster.shards}
        assert len(mechanisms) == 3

    def test_live_mechanism_object_is_shared(self):
        from repro.core import CAT

        mechanism = CAT()
        cluster = FederatedAdmissionService.build(
            num_shards=2,
            sources=[SyntheticStream("s", rate=4, seed=5, poisson=False)],
            capacity=10.0,
            mechanism=mechanism,
            ticks_per_period=4,
        )
        assert all(shard.mechanism is mechanism
                   for shard in cluster.shards)


class TestRouting:
    def test_submit_returns_chosen_shard(self):
        cluster = build_cluster(num_shards=3)
        placed = [cluster.submit(select_query(f"q{i}", f"c{i}", 10.0, 1.0))
                  for i in range(3)]
        assert placed == [0, 1, 2]  # round-robin
        assert cluster.pending_ids == {"q0", "q1", "q2"}

    def test_duplicate_id_rejected_cluster_wide(self):
        cluster = build_cluster(num_shards=3)
        cluster.submit(select_query("dup", "a", 10.0, 1.0))
        # round-robin would route the second copy to a *different*
        # shard, whose own queue knows nothing about the first.
        with pytest.raises(ValidationError, match="shard 0"):
            cluster.submit(select_query("dup", "b", 20.0, 1.0))

    def test_duplicate_of_running_query_rejected(self):
        cluster = build_cluster(num_shards=2)
        cluster.submit(select_query("q", "a", 10.0, 1.0))
        cluster.run_period()
        assert cluster.locate("q") == 0
        with pytest.raises(ValidationError, match="already submitted"):
            cluster.submit(select_query("q", "b", 5.0, 1.0))

    def test_withdraw_routes_to_owning_shard(self):
        cluster = build_cluster(num_shards=3)
        cluster.submit(select_query("q0", "a", 10.0, 1.0))
        cluster.submit(select_query("q1", "b", 20.0, 1.0))
        withdrawn = cluster.withdraw("q1")
        assert withdrawn.query_id == "q1"
        assert cluster.pending_ids == {"q0"}

    def test_withdraw_unknown_names_cluster_pending(self):
        cluster = build_cluster(num_shards=2)
        cluster.submit(select_query("q0", "a", 10.0, 1.0))
        with pytest.raises(ValidationError, match="q0"):
            cluster.withdraw("ghost")

    def test_withdraw_unknown_names_only_the_first_few(self):
        cluster = build_cluster(num_shards=2)
        for n in range(40):
            cluster.submit(select_query(f"q{n:02d}", "a", 10.0, 1.0))
        with pytest.raises(ValidationError) as excinfo:
            cluster.withdraw("ghost")
        message = str(excinfo.value)
        assert "(40 pending)" in message
        assert len(re.findall(r"q\d\d", message)) == 5

    def test_misbehaving_policy_caught(self):
        class OutOfRange(RoundRobinPlacement):
            def choose(self, query, shards):
                return 99

        cluster = build_cluster(num_shards=2)
        cluster.placement = OutOfRange()
        with pytest.raises(ValidationError, match="shards 0..1"):
            cluster.submit(select_query("q", "a", 1.0, 1.0))


class TestClusterPeriods:
    def test_idle_shards_still_advance(self):
        cluster = build_cluster(num_shards=3,
                                placement="consistent-hash:seed=0")
        cluster.submit(select_query("q0", "alice", 10.0, 1.0))
        report = cluster.run_period()
        assert cluster.period == 1
        idle = [r for r in report.shard_reports
                if r.outcome.mechanism == "idle"]
        assert len(idle) == 2
        for shard_report in idle:
            assert shard_report.revenue == 0.0
            assert shard_report.engine_ticks == 4  # streams kept flowing
        assert all(shard.period == 1 for shard in cluster.shards)

    def test_fully_idle_period(self):
        cluster = build_cluster(num_shards=2)
        report = cluster.run_period()
        assert report.total_revenue == 0.0
        assert report.admitted == ()
        assert cluster.period == 1

    def test_prepare_failure_rolls_back_cleanly(self, monkeypatch):
        """A failure building a shard's auction input: nothing billed
        yet ⇒ full rollback, the period is retryable."""
        def boom(*_args):
            raise ValidationError("boom")

        cluster = build_cluster(num_shards=2)
        cluster.submit(select_query("q0", "a", 10.0, 1.0))
        monkeypatch.setattr(cluster.shards[0].coordinator, "build", boom)
        with pytest.raises(ValidationError, match="boom"):
            cluster.run_period()
        assert cluster.period == 0
        assert all(shard.period == 0 for shard in cluster.shards)
        assert cluster.pending_ids == {"q0"}
        assert cluster.reports == []

        monkeypatch.undo()
        report = cluster.run_period()  # retry succeeds
        assert report.period == 1

    def test_auction_failure_rolls_back_and_is_retryable(self):
        cluster = build_randomized(num_shards=2)
        for shard in cluster.shards:
            shard.mechanism = _Explosive()
        for query in submissions(1, count=4):
            cluster.submit(query)
        pending_before = set(cluster.pending_ids)
        with pytest.raises(RuntimeError, match="auction blew up"):
            cluster.run_period()
        assert cluster.period == 0
        assert cluster.pending_ids == pending_before
        for shard in cluster.shards:
            assert shard.period == 0
        # Swap in a working mechanism and retry the period.
        for shard in cluster.shards:
            shard.mechanism = CAT()
        report = cluster.run_period()
        assert report.period == 1

    def test_failed_period_stops_at_the_first_failing_auction(self):
        """Auctions run in shard order and stop at the first error:
        the shards before it drew one period of randomness, the shards
        after it none."""
        def build():
            cluster = build_randomized(num_shards=3)
            for i in range(12):  # four light queries a shard: all in H
                cluster.submit(select_query(
                    f"q{i}", owner=f"c{i % 3}", bid=10.0 + i, cost=0.25))
            return cluster

        unfailed = build()
        fresh = [rng_state(shard.mechanism) for shard in unfailed.shards]
        unfailed.run_period()

        cluster = build()
        cluster.shards[1].mechanism = _Explosive()
        pending_before = set(cluster.pending_ids)
        with pytest.raises(RuntimeError, match="auction blew up"):
            cluster.run_period()
        assert rng_state(cluster.shards[2].mechanism) == fresh[2]
        assert (rng_state(cluster.shards[0].mechanism)
                == rng_state(unfailed.shards[0].mechanism) != fresh[0])
        assert cluster.period == 0
        assert [shard.period for shard in cluster.shards] == [0, 0, 0]
        assert cluster.pending_ids == pending_before
        assert cluster.reports == []

        cluster.shards[1].mechanism = CAT()
        report = cluster.run_period()  # retry succeeds
        assert report.period == 1
        assert [shard.period for shard in cluster.shards] == [1, 1, 1]

    def test_post_settlement_failure_commits_the_period(self, monkeypatch):
        """Once a shard billed, the period is consumed: counters stay
        aligned everywhere even though no report is recorded."""
        def boom(*_args, **_kwargs):
            raise ValidationError("boom")

        cluster = build_cluster(num_shards=2)
        cluster.submit(select_query("q0", "a", 10.0, 1.0))
        monkeypatch.setattr(cluster.shards[0].engine, "transition", boom)
        with pytest.raises(ValidationError, match="boom"):
            cluster.run_period()
        assert cluster.period == 1
        assert all(shard.period == 1 for shard in cluster.shards)
        assert cluster.reports == []

    def test_cluster_report_aggregates(self):
        cluster = build_cluster(num_shards=2, capacity=30.0)
        for i in range(4):
            cluster.submit(select_query(f"q{i}", f"c{i}", 20.0 + i, 1.0))
        report = cluster.run_period()
        assert report.num_shards == 2
        assert report.total_revenue == pytest.approx(
            sum(r.revenue for r in report.shard_reports))
        assert set(report.admitted) <= {"q0", "q1", "q2", "q3"}
        assert report.utilization is not None

    def test_run_periods_convenience(self):
        cluster = build_cluster(num_shards=2)
        reports = cluster.run_periods([
            [select_query("a", "u1", 10.0, 1.0)],
            [select_query("b", "u2", 20.0, 1.0)],
        ])
        assert [r.period for r in reports] == [1, 2]
        assert cluster.period == 2

    def test_pool_options_are_refused(self):
        """The thread-pool batch path and its options are gone."""
        from repro.__main__ import main
        from repro.sim import SimulationDriver

        with pytest.raises(TypeError, match="auction_workers"):
            FederatedAdmissionService.build(
                num_shards=2,
                sources=[SyntheticStream("s", rate=4, seed=5)],
                capacity=10.0, mechanism="CAT", auction_workers=2)
        cluster = build_cluster(num_shards=2)
        with pytest.raises(TypeError, match="batch"):
            cluster.run_periods([[]], batch=True)
        with pytest.raises(TypeError, match="batch"):
            SimulationDriver(cluster, batch=True)
        for argv in (["sim", "--batch"],
                     ["cluster", "--auction-workers", "2"],
                     ["simulate", "--backend", "columnar"]):
            with pytest.raises(SystemExit) as refused:
                main(argv)
            assert refused.value.code == 2, argv

    @given(workload=cluster_workloads(max_periods=2))
    @settings(max_examples=25, deadline=None)
    def test_property_fast_selection_equals_reference(self, workload):
        def build(selection):
            cluster = FederatedAdmissionService.build(
                num_shards=workload.num_shards,
                sources=[SyntheticStream(
                    "s", rate=workload.rate, seed=workload.seed)],
                capacity=workload.capacity,
                mechanism="two-price:seed=13",
                ticks_per_period=2,
                placement=workload.placement,
            )
            for shard in cluster.shards:
                shard.mechanism.use_selection(selection)
            return cluster

        reference = build("reference")
        fast = build("fast")
        for batch in workload.submissions:
            for query in batch:
                reference.submit(query)
                fast.submit(query)
            left = reference.run_period()
            right = fast.run_period()
            assert report_bytes(left) == report_bytes(right)


class TestRebalancing:
    def overload_one_shard(self, rebalance=True, **kwargs):
        """All of one client's queries hash to one small shard; the
        other shard stays empty with full capacity."""
        cluster = build_cluster(
            num_shards=2, capacity=4.0,
            placement="consistent-hash:seed=0", rebalance=rebalance,
            **kwargs)
        # rate 4 × cost 1.0 = load 4 per query: exactly one fits a shard.
        for i in range(3):
            cluster.submit(select_query(f"q{i}", "alice", 50.0 - i, 1.0))
        return cluster

    def test_rejected_queries_migrate_to_spare_capacity(self):
        cluster = self.overload_one_shard()
        report = cluster.run_period()
        assert len(report.admitted) == 1
        assert len(report.migrated) == 1  # one more fits on the twin
        migration = report.migrations[0]
        assert migration.origin != migration.target
        target = cluster.shards[migration.target]
        assert migration.query_id in target.engine.admitted_ids

    def test_migration_is_not_billed(self):
        cluster = self.overload_one_shard()
        report = cluster.run_period()
        migrated = report.migrations[0].query_id
        for shard in cluster.shards:
            assert all(invoice.query_id != migrated
                       for invoice in shard.ledger.invoices)

    def test_migrated_query_reauctioned_on_target_next_period(self):
        cluster = self.overload_one_shard()
        report = cluster.run_period()
        migration = report.migrations[0]
        next_report = cluster.run_period()
        target_report = next_report.shard_reports[migration.target]
        assert (migration.query_id in target_report.admitted
                or migration.query_id in target_report.rejected)

    def test_rebalance_can_be_disabled(self):
        cluster = self.overload_one_shard(rebalance=False)
        report = cluster.run_period()
        assert report.migrations == ()
        assert len(report.rejected) == 2

    def test_max_migrations_cap(self):
        cluster = self.overload_one_shard()
        cluster.rebalancer = Rebalancer(max_migrations=0)
        report = cluster.run_period()
        assert report.migrations == ()

    def test_no_migration_onto_a_conflicting_operator(self):
        """A client-chosen op id the target runs under another
        definition keeps the query where it is: rejected, not moved,
        and no shard is left in a transition."""
        cluster = build_cluster(num_shards=2)
        # Loads (rate 4): big 8 and qx 4 overflow shard 0; qy leaves
        # shard 1 room for qx but runs sel_x at another cost.
        cluster.submit(select_query("big", "a", 100.0, 2.0), shard=0)
        cluster.submit(select_query("qx", "b", 1.0, 1.0, op_id="sel_x"),
                       shard=0)
        cluster.submit(select_query("qy", "c", 50.0, 0.5, op_id="sel_x"),
                       shard=1)
        report = cluster.run_period()
        assert report.migrations == ()
        assert report.rejected == ("qx",)
        assert [cluster.run_period().admitted for _ in range(2)] == [
            ("big", "qy")] * 2

    def test_rejected_load_accounts_for_migrations(self):
        unbalanced = self.overload_one_shard(rebalance=False)
        balanced = self.overload_one_shard()
        without = unbalanced.run_period()
        with_rebalance = balanced.run_period()
        assert with_rebalance.rejected_load < without.rejected_load


def test_backend_option_is_refused():
    with pytest.raises(TypeError, match="backend"):
        FederatedAdmissionService.build(
            num_shards=2,
            sources=[SyntheticStream("s", rate=4, seed=5)],
            capacity=10.0, mechanism="CAT", backend="scalar")


def test_checkpoint_resume_continues_identically():
    """A mid-run checkpoint resumes byte-identically."""
    reference = build_randomized()
    interrupted = build_randomized()
    for query in submissions(1):
        reference.submit(query)
    for query in submissions(1):
        interrupted.submit(query)
    reference.run_period()
    interrupted.run_period()
    restored = FederatedAdmissionService.restore(interrupted.snapshot())
    for query in submissions(2):
        reference.submit(query)
    for query in submissions(2):
        restored.submit(query)
    left = reference.run_period()
    right = restored.run_period()
    assert report_bytes(left) == report_bytes(right)

"""One submit costs the same whatever the backlog: measured by bytes.

Time is noise on a shared box; allocation is not.  With 20 000 ids held
(2 500 pending + 2 500 running on each of 4 shards) a single copy of
one shard's id set is over 64 KiB and a copy of the backlog over 1 MiB,
so a submit path that allocates less than 64 KiB at peak provably built
none.  The second half pins the other side of the bargain: the id
properties are live views now, so the three callers that hold them
across a mutation must still see a stable set.
"""

import tracemalloc

import pytest

from repro.cluster import FederatedAdmissionService
from repro.cluster.rebalance import Rebalancer
from repro.core.result import AuctionOutcome
from repro.dsms.streams import SyntheticStream
from repro.serve import DriverBackend, HostBackend
from repro.sim import SimulationDriver
from repro.sim.driver import LatencyProbe
from repro.utils.validation import ValidationError
from tests.strategies import select_query

SHARDS = 4
#: Per shard and per container; a dict grows (reallocates) when an
#: insert crosses 2/3 of a power of two — 2 500 -> 2 501 and
#: 10 000 -> 10 001 are far from one (2 730, 10 922).
HELD = 2500
BUDGET = 64 * 1024


def query(name: str):
    return select_query(name, f"owner-{name}", bid=4.0, cost=1.0)


def loaded_cluster() -> FederatedAdmissionService:
    cluster = FederatedAdmissionService.build(
        num_shards=SHARDS,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=20.0, mechanism="CAT", ticks_per_period=4,
        placement="round-robin")
    for index, shard in enumerate(cluster.shards):
        for n in range(HELD):
            shard.engine.admit(query(f"run{index}-{n}"))
            shard.submit(query(f"wait{index}-{n}"))
    return cluster


def peak_bytes(operation) -> int:
    """Peak traced allocation of one call, above the level before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        operation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture(scope="module")
def cluster():
    return loaded_cluster()


class TestSubmitAllocatesNoBacklogCopy:
    def test_the_yardstick(self, cluster):
        """What the budget is measured against: one shard's ids."""
        shard = cluster.shards[0]
        assert peak_bytes(lambda: set(shard.pending_ids)) > BUDGET
        assert sum(len(s.pending_ids) + len(s.engine.admitted_ids)
                   for s in cluster.shards) == 2 * SHARDS * HELD

    def test_federation_submit(self, cluster):
        fresh = query("fresh-federation")
        assert peak_bytes(lambda: cluster.submit(fresh)) < BUDGET
        assert cluster.locate("fresh-federation") is not None

    def test_host_backend_submit_and_pending_count(self, cluster):
        backend = HostBackend(cluster)
        fresh = query("fresh-host")
        counted = []

        def submit():
            backend.submit(fresh)
            counted.append(backend.pending_count())

        before = backend.pending_count()
        assert peak_bytes(submit) < BUDGET
        assert counted == [before + 1]

    def test_driver_backend_submit(self, cluster):
        backend = DriverBackend(SimulationDriver(cluster))
        for n in range(4 * HELD):
            backend.submit(query(f"inbox-{n}"))
        fresh = query("fresh-driver")
        before = backend.pending_count()
        assert before >= 8 * HELD
        assert peak_bytes(lambda: backend.submit(fresh)) < BUDGET
        assert backend.pending_count() == before + 1
        # Duplicates are still caught in every container ...
        for taken in ("fresh-driver", "inbox-0", "wait2-7", "run3-9"):
            with pytest.raises(ValidationError,
                               match="already submitted"):
                backend.submit(query(taken))
        # ... and a withdraw from the middle of the inbox keeps order.
        assert backend.withdraw("inbox-5000").query_id == "inbox-5000"
        order = list(backend._inbox)
        assert order[4999:5001] == ["inbox-4999", "inbox-5001"]
        assert order[-1] == "fresh-driver"


def small_service():
    return FederatedAdmissionService.build(
        num_shards=1, sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=20.0, mechanism="CAT", ticks_per_period=4).shards[0]


class TestLiveViews:
    def test_views_follow_the_containers_and_cannot_write(self):
        service = small_service()
        pending, running = service.pending_ids, service.engine.admitted_ids
        assert not pending and not running
        service.submit(query("a"))
        service.engine.admit(query("b"))
        assert pending == {"a"} and running == {"b"}
        assert len(pending) == 1 and (pending | running) == {"a", "b"}
        for view in (pending, running):
            assert not hasattr(view, "add")
            assert not hasattr(view, "discard")

    def test_transition_sees_a_stable_running_set(self):
        service = small_service()
        for name in ("a", "b", "c"):
            service.engine.admit(query(name))
        service.submit(query("d"))
        changes = []
        transition = service.engine.transition

        def recorded(add=(), remove=()):
            changes.append(([plan.query_id for plan in add], list(remove)))
            transition(add=add, remove=remove)

        service.engine.transition = recorded
        preparation = service.prepare_period()
        settlement = service.settle_period(preparation, AuctionOutcome(
            preparation.instance, {"b": 0.0, "d": 0.0}))
        assert changes == [(["d"], ["a", "c"])]
        assert settlement.rejected == ("a", "c")
        assert service.engine.admitted_ids == {"b", "d"}

    def test_probe_sync_sees_a_stable_running_set(self):
        probe = LatencyProbe([SyntheticStream("s", rate=2.0, seed=0)],
                             capacity=20.0)
        plans = {name: query(name) for name in ("a", "b", "c", "d")}
        probe.sync({name: plans[name] for name in ("a", "b", "c")})
        probe.sync({name: plans[name] for name in ("b", "d")})
        assert probe.engine.admitted_ids == {"b", "d"}

    def test_migration_keeps_the_targets_running_set(self):
        origin, target = small_service(), small_service()
        for name in ("a", "b"):
            target.engine.admit(query(name))
        origin.submit(query("moved"))
        preparation = origin.prepare_period()
        settlement = origin.settle_period(
            preparation, AuctionOutcome(preparation.instance, {}))
        migrations = Rebalancer().rebalance(
            [origin, target], {0: settlement}, {0: {"moved": 2.0}})
        assert [(m.query_id, m.target) for m in migrations] == [("moved", 1)]
        assert target.engine.admitted_ids == {"a", "b", "moved"}

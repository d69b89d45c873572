"""Count mode ≡ tuple mode for the bounded-work scheduled engine.

In count mode (``ScheduledEngine(count_mode=True)`` over sources whose
origins stamp the emitting tick) a network of source-fed passthrough
selects feeding sinks queues ``[birth tick, count]`` runs instead of
tuples.  The reference is the same network over a stream that makes no
origin-stamp promise, which keeps tuple queues from the first tick.
Every observable the latency probe reads is compared tick by tick:
work, delivery totals, queue depth, latency samples, per-query
``LatencyStats`` and every operator's counters.
"""

import copy
import pickle

import pytest

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.scheduler import ScheduledEngine
from repro.dsms.streams import SyntheticStream
from repro.sim.arrivals import pass_all

POLICIES = ("fifo", "round-robin", "longest-queue-first", "cheapest-first")
#: Offered work is ~15.6 units per tick: 4 builds a backlog, 60 does not.
CAPACITIES = {"tight": 4.0, "ample": 60.0}
SEEDS = (0, 1, 2)
TICKS = 25


class TupleStream(SyntheticStream):
    """The same stream without the origin-stamp promise: an engine
    over it keeps tuple queues from the start."""

    origin_tick_stamped = False


def even_ticks(t):
    """A select that is not a passthrough (count mode refuses it)."""
    return t.tick % 2 == 0


def select_query(query_id, op_id, stream, cost, predicate=pass_all):
    op = SelectOperator(op_id, stream, predicate, cost_per_tuple=cost,
                        selectivity_estimate=1.0)
    return ContinuousQuery(query_id, (op,), sink_id=op_id, bid=1.0)


def build(stream_type, seed, capacity, policy):
    return ScheduledEngine(
        [stream_type("a", rate=6.0, seed=seed),
         stream_type("b", rate=3.0, seed=seed + 100)],
        capacity, policy=policy, count_mode=True)


#: tick → what happens before it runs.  ``q3`` shares ``a0`` with
#: ``q0`` (one sink, two queries); removing ``q1`` drops its queue,
#: removing ``q0`` keeps the shared one.
SCHEDULE = {
    1: [("admit", "q0", "a0", "a", 1.0),
        ("admit", "q1", "a1", "a", 0.5),
        ("admit", "q2", "b0", "b", 2.0)],
    6: [("admit", "q3", "a0", "a", 1.0),
        ("admit", "q4", "b_free", "b", 0.0)],
    11: [("remove", "q1"), ("remove", "q0")],
    16: [("admit", "q5", "a2", "a", 0.3)],
}


def observe(engine):
    return {
        "work_done": engine.work_done,
        "delivered_count": engine.delivered_count,
        "delivered_latency": engine.delivered_latency,
        "total_queued": engine.total_queued(),
        "latency_samples": list(engine.latency_samples),
        "latency": {query_id: (stats.total, stats.count, stats.maximum)
                    for query_id, stats in engine.latency.items()},
        "operators": {op_id: (op.processed_tuples, op.emitted_tuples,
                              engine.queue_length(op_id))
                      for op_id, op in engine.catalog.operators.items()},
    }


def run_both(seed, capacity, policy, schedule, copies=()):
    """Yield (tick, count-mode observation, tuple-mode observation).

    *copies* maps a tick to a function of the count-mode engine: its
    result runs beside it from that tick on, and each yield carries
    the copies made so far after the reference."""
    counted = build(SyntheticStream, seed, capacity, policy)
    reference = build(TupleStream, seed, capacity, policy)
    copied = []
    for tick in range(1, TICKS + 1):
        if tick in copies:
            copied.append(copies[tick](counted))
        for engine in (counted, reference, *copied):
            for step in schedule.get(tick, ()):
                if step[0] == "admit":
                    engine.admit(select_query(*step[1:]))
                else:
                    engine.remove(step[1])
            engine.run(1)
        yield tick, counted, reference, *copied


@pytest.mark.parametrize("capacity", sorted(CAPACITIES))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_count_mode_equals_tuple_queues(policy, seed, capacity):
    for tick, counted, reference in run_both(
            seed, CAPACITIES[capacity], policy, SCHEDULE):
        assert counted._counts and not reference._counts
        assert observe(counted) == observe(reference), f"tick {tick}"
    if capacity == "tight":
        assert reference.total_queued() > 0
    assert reference.delivered_count > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_deactivation_keeps_the_backlog_latencies(policy, seed):
    """A non-passthrough select admitted over a backlog turns count
    mode off; the queued runs become placeholder tuples whose births
    match the real tuples the reference queued."""
    schedule = dict(SCHEDULE)
    schedule[8] = [("admit", "q9", "odd", "a", 1.0, even_ticks)]
    for tick, counted, reference in run_both(
            seed, CAPACITIES["tight"], policy, schedule):
        if tick == 7:
            assert counted._counts and counted.total_queued() > 0
        if tick >= 8:
            assert not counted._counts
        assert observe(counted) == observe(reference), f"tick {tick}"


def pickled(engine):
    return pickle.loads(pickle.dumps(engine))


def assert_table_is_the_engines_own(engine):
    """The drain table is rebuilt from this engine's own queues and
    stats, in topological order."""
    assert list(engine._table) == [op.op_id for op in engine._order]
    for op_id, (op, same_id, cost, runs, sinks) in engine._table.items():
        assert op is engine.catalog.operators[op_id] and same_id == op_id
        assert cost == op.cost_per_tuple
        assert runs is engine._run_queues[op_id]
        assert all(stats is engine.latency[query_id] for stats, query_id
                   in zip(sinks, engine._sinks.get(op_id, ()), strict=True))
    for name, feeds in engine._feeds.items():
        assert [runs for _op_id, runs in feeds] == [
            engine._run_queues[op.op_id]
            for op in engine._stream_consumers[name]]


@pytest.mark.parametrize("copier", [pickled, copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_copy_mid_schedule_continues(policy, copier):
    """Copies taken with a backlog, before and after the removals, run
    beside the engine they were copied from; all match the tuple
    reference, so no copy drains the original's queues."""
    copies = {8: copier, 13: copier}
    for tick, counted, reference, *copied in run_both(
            0, CAPACITIES["tight"], policy, SCHEDULE, copies):
        for engine in copied:
            assert engine._counts
            assert_table_is_the_engines_own(engine)
            assert observe(engine) == observe(reference), f"tick {tick}"
        assert observe(counted) == observe(reference), f"tick {tick}"
    assert len(copied) == 2 and reference.total_queued() > 0


def test_the_table_is_never_pickled():
    engine = build(SyntheticStream, 0, CAPACITIES["tight"], "fifo")
    engine.admit(select_query("q0", "a0", "a", 1.0))
    assert engine._table and engine._feeds
    assert not {"_table", "_feeds"} & set(engine.__getstate__())


def test_an_old_probe_checkpoint_rebuilds_its_table():
    """The committed sim checkpoint's probe engine was pickled before
    the table existed: it restores with the table rebuilt, and resumes
    as its own state continues through tuple queues."""
    from repro.io import load_sim_snapshot
    from repro.sim import SimulationDriver
    from tests.checkpoints import TIERS

    (tier,) = [tier for tier in TIERS if tier.name == "sim"]
    driver = SimulationDriver.restore(load_sim_snapshot(tier.fixture))
    engine = driver.probes[0].engine
    assert engine._counts and engine._table
    assert_table_is_the_engines_own(engine)
    reference = copy.deepcopy(engine)
    reference._deactivate_counts()
    for tick in range(TICKS):
        engine.run(1)
        reference.run(1)
        assert observe(engine) == observe(reference), f"tick {tick}"
    assert engine.delivered_count > 0

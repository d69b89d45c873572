"""A select subclass's own ``_process`` runs on every engine path.

``_process`` is an operator's one processing hook.  A select that
overrides it is not a passthrough network, whatever its predicate, so
the stream engine runs it through the interpreter (a transition's held
tick included) and a count-mode scheduled engine drops back to tuple
queues; either way the override decides what is delivered.
"""

import pytest

from repro.dsms.engine import StreamEngine
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.scheduler import ScheduledEngine
from repro.dsms.streams import SyntheticStream
from repro.sim.arrivals import pass_all

TICKS = 12


class EvenTicksOnly(SelectOperator):
    """Keeps what its predicate keeps, from even ticks only."""

    def _process(self, batches):
        return [t for t in super()._process(batches) if t.tick % 2 == 0]


def keep_all(t):
    return True


PREDICATES = {"pass_all": pass_all, "plain": keep_all}


class Recorded(SyntheticStream):
    """A synthetic stream that keeps every batch it emitted."""

    def __init__(self) -> None:
        super().__init__("a", rate=3.0, seed=0)
        self.batches = []

    def emit(self, tick):
        batch = super().emit(tick)
        self.batches.append(batch)
        return batch

    def even_tick_tuples(self, first_batch=0):
        return [t for batch in self.batches[first_batch:] for t in batch
                if t.tick % 2 == 0]


def query(query_id, op_id, predicate):
    op = EvenTicksOnly(op_id, "a", predicate, cost_per_tuple=1.0,
                       selectivity_estimate=0.5)
    return ContinuousQuery(query_id, (op,), sink_id=op_id, bid=1.0)


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_the_stream_engine_runs_the_override(predicate):
    source = Recorded()
    engine = StreamEngine([source])
    engine.admit(query("q0", "s0", PREDICATES[predicate]))
    engine.run(TICKS)
    # A warm transition's held tick runs through the interpreter; the
    # new query sees the held batch onward.
    engine.transition(add=(query("q1", "s1", PREDICATES[predicate]),))
    engine.run(TICKS)
    expected = {"q0": source.even_tick_tuples(),
                "q1": source.even_tick_tuples(TICKS)}
    assert all(expected.values())
    assert engine.results == expected
    assert engine.report.delivered_tuples == {
        query_id: len(log) for query_id, log in expected.items()}


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_tuple_queues_run_the_override(predicate):
    source = Recorded()
    engine = ScheduledEngine([source], capacity=1000.0, policy="fifo")
    engine.admit(query("q", "s", PREDICATES[predicate]))
    engine.run(TICKS)
    expected = source.even_tick_tuples()
    assert expected and engine.results["q"] == expected
    assert engine.delivered_count == len(expected)


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_count_mode_falls_back_and_runs_the_override(predicate):
    source = Recorded()
    engine = ScheduledEngine([source], capacity=1000.0, policy="fifo",
                             count_mode=True)
    engine.admit(query("q", "s", PREDICATES[predicate]))
    assert not engine._counts
    engine.run(TICKS)
    # Results are not kept in count mode: the latencies are the record.
    assert engine.results["q"] == []
    expected = len(source.even_tick_tuples())
    assert expected and engine.delivered_count == expected
    assert engine.latency_samples == [0] * expected
    assert engine.latency["q"].count == expected

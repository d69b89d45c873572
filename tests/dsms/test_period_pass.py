"""A passthrough network's period pass ≡ the per-tick interpreter.

``StreamEngine.run(k)`` settles a network of stock constant-true
selects reading sources in one pass; the oracle is ``k`` calls of
``_execute_tick`` (the interpreter every other network runs) on a deep
copy taken before.  Compared: the meter's per-operator work, in key
order and to the bit; every ``EngineReport`` field; each result log,
by value across the two engines and by identity against the tuples the
engine's own sources emitted; operator counters, the tick and the
sources' next draw.  Two of the three sources may share one generator,
so the draw order (tick-major, source-minor) shows.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms.engine import StreamEngine
from repro.dsms.operators import JoinOperator, SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.sim.arrivals import pass_all


class Recorded(SyntheticStream):
    """A synthetic stream that keeps every batch it emitted."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batches = []

    def emit(self, tick):
        batch = super().emit(tick)
        self.batches.append(batch)
        return batch


def even_ticks(t):
    """A select that filters (not a passthrough)."""
    return t.tick % 2 == 0


def same_key(t):
    return 0


COSTS = st.one_of(st.sampled_from([0.0, 0.1, 1.0, 2.5]),
                  st.floats(0.0, 10.0))


@st.composite
def networks(draw):
    """Sources, the operator each op id names, and run steps: ticks to
    run, then the queries admitted before the next run."""
    rates = draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3))
    shared = draw(st.booleans())
    poisson = draw(st.booleans())
    op_pool = {
        f"op{index}": (f"s{draw(st.integers(0, len(rates) - 1))}",
                       draw(COSTS))
        for index in range(draw(st.integers(1, 4)))}
    query_ids = iter(f"q{index}" for index in range(100))

    def queries():
        # Several queries may name one op id: a shared operator.
        return [(next(query_ids), op_id) for op_id in draw(
            st.lists(st.sampled_from(sorted(op_pool)), max_size=4))]

    first = queries()
    steps = [(draw(st.integers(1, 8)), queries())
             for _ in range(draw(st.integers(1, 3)))]
    offered = sum(rates[int(source[1:])] * cost
                  for source, cost in op_pool.values())
    capacity = draw(st.none() | st.floats(0.0, offered))
    return rates, shared, poisson, op_pool, first, steps, capacity


def build(rates, shared, poisson, capacity):
    rng = np.random.default_rng(7) if shared else None
    return StreamEngine(
        [Recorded(f"s{index}", rate=rate, poisson=poisson,
                  seed=index if rng is None else rng)
         for index, rate in enumerate(rates)], capacity=capacity)


def plans(op_pool, pairs):
    return [ContinuousQuery(
        query_id,
        (SelectOperator(op_id, op_pool[op_id][0], pass_all,
                        cost_per_tuple=op_pool[op_id][1],
                        selectivity_estimate=1.0),),
        sink_id=op_id) for query_id, op_id in pairs]


def observe(engine):
    report = engine.report
    fields = {field.name: getattr(report, field.name)
              for field in dataclasses.fields(report)}
    fields["total_work"] = float(fields["total_work"]).hex()
    fields["delivered_tuples"] = list(fields["delivered_tuples"].items())
    return {
        "meter": [(op_id, work.hex())
                  for op_id, work in engine.meter._work.items()],
        "meter_ticks": engine.meter.ticks,
        "report": fields,
        "results": {query_id: list(log)
                    for query_id, log in engine.results.items()},
        "operators": {op_id: (op.processed_tuples, op.emitted_tuples)
                      for op_id, op in engine.catalog.operators.items()},
        "tick": engine.current_tick,
    }


def assert_logs_are_the_emitted_tuples(engine, admitted_at):
    """Each log holds, by identity, what its sink's source emitted
    from the tick its query was admitted."""
    sources = engine._sources
    for query in engine.catalog.iter_queries():
        name = engine.catalog.operators[query.sink_id].inputs[0]
        emitted = [t for batch in sources[name].batches[
            admitted_at[query.query_id]:] for t in batch]
        log = engine.results[query.query_id]
        assert [id(t) for t in log] == [id(t) for t in emitted]


def next_draw(engine):
    tick = engine.current_tick + 1
    return [(name, source.emitted, source.emit(tick))
            for name, source in engine._sources.items()]


def per_tick(engine, ticks):
    for _ in range(ticks):
        engine._execute_tick()


class TestPeriodPassIsThePerTickPath:
    @settings(max_examples=150, deadline=None)
    @given(network=networks())
    def test_run_equals_ticks_of_the_interpreter(self, network):
        rates, shared, poisson, op_pool, first, steps, capacity = network
        engine = build(rates, shared, poisson, capacity)
        admitted_at = {}
        for query in plans(op_pool, first):
            engine.admit(query)
            admitted_at[query.query_id] = 0
        for ticks, added in steps:
            oracle = copy.deepcopy(engine)
            engine.run(ticks)
            per_tick(oracle, ticks)
            assert observe(engine) == observe(oracle)
            assert pickle.dumps(engine) == pickle.dumps(oracle)
            queries = plans(op_pool, added)
            # The next batch any source emits is the first a new query
            # sees (held and replayed on a warm engine).
            emitted = len(next(iter(engine._sources.values())).batches)
            for query in queries:
                admitted_at[query.query_id] = emitted
            engine.transition(add=queries)
        assert_logs_are_the_emitted_tuples(engine, admitted_at)
        # A pickled engine resumes as the interpreter continues.
        restored = pickle.loads(pickle.dumps(engine))
        oracle = copy.deepcopy(engine)
        restored.run(3)
        per_tick(oracle, 3)
        assert observe(restored) == observe(oracle)
        assert next_draw(restored) == next_draw(oracle)


@pytest.fixture
def stream():
    return [SyntheticStream("a", rate=3, seed=0),
            SyntheticStream("b", rate=2, seed=1)]


def select(op_id, source, predicate=pass_all):
    return SelectOperator(op_id, source, predicate, cost_per_tuple=1.0,
                          selectivity_estimate=1.0)


class CostlySelect(SelectOperator):
    """A passthrough select metered through its own ``work``."""

    def work(self, batches):
        return 2.0 * super().work(batches)


NOT_PASSTHROUGH = {
    "filtering-select": lambda: (select("f", "a", even_ticks),),
    "join": lambda: (JoinOperator("j", "a", "b", same_key, same_key,
                                  window=2),),
    "overridden-work": lambda: (CostlySelect("c", "a", pass_all),),
    "select-over-select": lambda: (select("x", "a"), select("y", "x")),
}


class TestWhichPathRuns:
    def test_a_passthrough_network_runs_no_tick(self, stream, monkeypatch):
        engine = StreamEngine(stream)
        engine.admit(ContinuousQuery("q", (select("p", "a"),), "p"))
        monkeypatch.setattr(StreamEngine, "_execute_tick", None)
        engine.run(4)
        assert engine.report.ticks == 4

    @pytest.mark.parametrize("network", sorted(NOT_PASSTHROUGH))
    def test_any_other_network_runs_tick_by_tick(
            self, stream, network, monkeypatch):
        engine = StreamEngine(stream)
        operators = NOT_PASSTHROUGH[network]()
        engine.admit(ContinuousQuery("q", operators, operators[-1].op_id))
        monkeypatch.setattr(StreamEngine, "_run_passthrough", None)
        engine.run(4)
        assert engine.report.ticks == 4

    def test_the_program_follows_the_catalog(self, stream):
        """Admitting a filter turns the pass off, removing it on again."""
        engine = StreamEngine(stream)
        engine.admit(ContinuousQuery("q", (select("p", "a"),), "p"))
        assert engine._passthrough_program() is not None
        engine.admit(ContinuousQuery(
            "f", (select("f", "a", even_ticks),), "f"))
        assert engine._passthrough_program() is None
        engine.remove("f")
        assert engine._passthrough_program() is not None

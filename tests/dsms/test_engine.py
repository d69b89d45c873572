"""Stream-engine execution tests: sharing, metering, transition."""

import pytest

from repro.dsms.backend import ScalarBackend
from repro.dsms.engine import StreamEngine
from repro.dsms.operators import (
    AggregateOperator,
    JoinOperator,
    SelectOperator,
)
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.dsms.streams import SyntheticStream
from repro.utils.validation import ValidationError


def passthrough(op_id, source="s", cost=1.0):
    return SelectOperator(op_id, source, lambda t: True,
                          cost_per_tuple=cost, selectivity_estimate=1.0)


@pytest.fixture
def engine():
    return StreamEngine(
        [SyntheticStream("s", rate=4, poisson=False, seed=0)],
        capacity=100.0)


def keyed_payload(_rng, tick, index):
    return {"k": "ab"[index % 2], "v": float(tick + index)}


def nan_payload(_rng, _tick, index):
    return {"k": float("nan"), "x": index}


def positive(t):
    """True of every :func:`keyed_payload` tuple, but opaque to the
    interpreter: the select runs its predicate, not the pass-through
    fast path."""
    return t.value("v") > 0.0


def key(t):
    return t.value("k")


@pytest.fixture
def keyed_engine():
    return StreamEngine(
        [SyntheticStream("s", rate=3, poisson=False, seed=0,
                         payload_fn=keyed_payload)],
        capacity=100.0)


class TestExecution:
    def test_results_flow_to_sink(self, engine):
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(5)
        assert len(engine.results["q"]) == 20  # 4/tick × 5

    def test_shared_operator_executes_once(self, engine):
        shared = passthrough("shared")
        shared_again = passthrough("shared")
        engine.admit(ContinuousQuery("q1", (shared,), sink_id="shared"))
        engine.admit(ContinuousQuery("q2", (shared_again,),
                                     sink_id="shared"))
        engine.run(5)
        # The merged operator instance processed 20 tuples, not 40.
        merged = engine.catalog.operators["shared"]
        assert merged.processed_tuples == 20
        assert len(engine.results["q1"]) == 20
        assert len(engine.results["q2"]) == 20

    def test_shared_subgraph_executes_once(self, keyed_engine):
        shared = SelectOperator("shared", "s", positive,
                                selectivity_estimate=1.0)
        shared_again = SelectOperator("shared", "s", positive,
                                      selectivity_estimate=1.0)
        keyed_engine.admit(
            ContinuousQuery("q1", (shared,), sink_id="shared"))
        keyed_engine.admit(
            ContinuousQuery("q2", (shared_again,), sink_id="shared"))
        keyed_engine.run(5)
        merged = keyed_engine.catalog.operators["shared"]
        assert merged.processed_tuples == 15  # 3/tick × 5, not doubled
        assert len(keyed_engine.results["q1"]) == 15
        assert keyed_engine.results["q1"] == keyed_engine.results["q2"]

    def test_work_metering(self, engine):
        engine.admit(ContinuousQuery(
            "q", (passthrough("a", cost=2.0),), sink_id="a"))
        engine.run(10)
        loads = engine.measured_loads()
        assert loads["a"] == pytest.approx(8.0)  # 4 tuples × 2.0

    def test_overridden_work_meters_identically(self, keyed_engine):
        """A subclass overriding ``work`` is metered through it, not
        through the interpreter's inlined ``len × cost``."""
        class CostlySelect(SelectOperator):
            def work(self, batches):
                return 2.0 * super().work(batches)

        sel = CostlySelect("sel", "s", positive, cost_per_tuple=1.0)
        keyed_engine.admit(ContinuousQuery("q", (sel,), sink_id="sel"))
        keyed_engine.run(3)
        assert keyed_engine.measured_loads() == {"sel": 6.0}  # 2 × 3

    def test_nan_join_keys_match_nothing(self):
        engine = StreamEngine(
            [SyntheticStream("a", rate=3, poisson=False, seed=0,
                             payload_fn=nan_payload),
             SyntheticStream("b", rate=3, poisson=False, seed=1,
                             payload_fn=nan_payload)])
        join = JoinOperator("j", "a", "b", key, key, window=2)
        engine.admit(ContinuousQuery("q", (join,), sink_id="j"))
        engine.run(3)
        assert engine.results["q"] == []

    def test_backend_option_is_gone(self):
        with pytest.raises(TypeError, match="backend"):
            StreamEngine([SyntheticStream("s", rate=1)],
                         backend="scalar")

    def test_unknown_stream_rejected(self, engine):
        with pytest.raises(ValidationError):
            engine.admit(ContinuousQuery(
                "q", (passthrough("a", source="nope"),), sink_id="a"))
        assert engine.admitted_ids == set()

    def test_report_accumulates(self, engine):
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        report = engine.run(4)
        assert report.ticks == 4
        assert report.source_tuples == 16
        assert report.delivered_tuples["q"] == 16
        assert report.utilization == pytest.approx(4.0 / 100.0)

    def test_overload_counted(self):
        engine = StreamEngine(
            [SyntheticStream("s", rate=10, poisson=False, seed=0)],
            capacity=5.0)
        engine.admit(ContinuousQuery(
            "q", (passthrough("a", cost=1.0),), sink_id="a"))
        report = engine.run(3)
        assert report.overload_ticks == 3


class TestTransition:
    def test_no_tuples_lost_across_transition(self, engine):
        """Connection points hold arrivals; a continuing query sees a
        gap-free stream (every source tuple reaches its sink)."""
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(3)                      # 12 tuples
        engine.begin_transition()
        engine.hold_tick()
        engine.hold_tick()                 # 8 tuples held ...
        engine.end_transition()            # ... then replayed
        engine.run(3)                      # 12 tuples
        source = engine._sources["s"]
        assert len(engine.results["q"]) == source.emitted
        # Origins are unique → nothing duplicated either.
        origins = [t.origin for t in engine.results["q"]]
        assert len(set(origins)) == len(origins)

    def test_held_tuples_counted_while_holding(self, engine):
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.begin_transition()
        engine.hold_tick()
        assert engine.held_tuples() == 4
        engine.end_transition()
        assert engine.held_tuples() == 0

    def test_add_and_remove_queries(self, engine):
        engine.admit(ContinuousQuery("q1", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(2)
        new_query = ContinuousQuery("q2", (passthrough("b"),),
                                    sink_id="b")
        engine.transition(add=[new_query], remove=["q1"])
        assert engine.admitted_ids == {"q2"}
        engine.run(2)
        # q2 receives the held tick's tuples plus the new ticks.
        assert len(engine.results["q2"]) == 4 + 8

    def test_drain_flushes_partial_aggregates(self, engine):
        agg = AggregateOperator("agg", "s", "x", len, window=10)
        engine.admit(ContinuousQuery("q", (agg,), sink_id="agg"))
        engine.run(3)  # window not yet full → nothing emitted
        assert engine.results["q"] == []
        engine.begin_transition()
        drained = engine.drain(["q"])
        engine.end_transition(remove=["q"])
        assert drained["q"] == 1
        assert engine.results["q"][0].value("partial") is True
        assert engine.results["q"][0].value("count") == 12

    def test_drain_defaults_to_every_query(self, engine):
        agg = AggregateOperator("agg", "s", "x", len, window=10)
        engine.admit(ContinuousQuery("qa", (agg,), sink_id="agg"))
        engine.admit(ContinuousQuery("qp", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(2)
        engine.begin_transition()
        assert engine.drain() == {"qa": 1, "qp": 0}
        engine.end_transition()
        assert [t.value("count") for t in engine.results["qa"]] == [8]

    def test_transition_drains_the_removed_query(self, engine):
        agg = AggregateOperator("agg", "s", "x", len, window=10)
        engine.admit(ContinuousQuery("q", (agg,), sink_id="agg"))
        engine.run(3)
        engine.begin_transition()
        engine.drain(["q"])
        engine.hold_tick()
        engine.hold_tick()
        engine.end_transition(remove=["q"])
        partial, = engine.results["q"]
        assert partial.value("partial") is True
        assert partial.value("count") == 12

    def test_recycled_op_id_starts_with_fresh_state(self, keyed_engine):
        """A removed aggregate's buffered window must not leak into a
        *new* operator object re-admitted under the same op id."""
        first = AggregateOperator("agg", "s", "v", sum, window=3)
        keyed_engine.admit(ContinuousQuery("q", (first,), sink_id="agg"))
        keyed_engine.run(1)  # mid-window: one tick buffered
        keyed_engine.begin_transition()
        keyed_engine.end_transition(remove=["q"])  # no held tuples
        second = AggregateOperator("agg", "s", "v", sum, window=3)
        keyed_engine.admit(
            ContinuousQuery("q2", (second,), sink_id="agg"))
        keyed_engine.run(3)
        # Ticks 2-4 only: none of the first operator's three tuples.
        assert [t.value("count")
                for t in keyed_engine.results["q2"]] == [9]

    def test_cannot_run_mid_transition(self, engine):
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.begin_transition()
        with pytest.raises(ValidationError):
            engine.run(1)
        engine.end_transition()

    def test_double_transition_rejected(self, engine):
        engine.begin_transition()
        with pytest.raises(ValidationError):
            engine.begin_transition()

    def test_bad_query_fails_transition_atomically(self, engine):
        """An unknown-stream plan in the add set must not strand the
        transition half-applied (removals done, points holding)."""
        engine.admit(ContinuousQuery("q1", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(2)
        bad = ContinuousQuery("q2", (passthrough("b", source="nope"),),
                              sink_id="b")
        with pytest.raises(ValidationError, match="unknown streams"):
            engine.transition(add=[bad], remove=["q1"])
        # q1 still runs; the next transition opens cleanly.
        assert engine.admitted_ids == {"q1"}
        engine.begin_transition()
        engine.end_transition()
        engine.run(1)

    @pytest.mark.parametrize("change", [
        dict(add=[ContinuousQuery("q1", (passthrough("c"),), sink_id="c")]),
        dict(add=[ContinuousQuery("q2", (passthrough("b"),), sink_id="b"),
                  ContinuousQuery("q2", (passthrough("c"),), sink_id="c")]),
        dict(remove=["ghost"]),
        dict(add=[ContinuousQuery("q2", (passthrough("a", cost=2.0),),
                                  sink_id="a")]),
        dict(add=[ContinuousQuery("q2", (passthrough("b"),), sink_id="b"),
                  ContinuousQuery("q3", (passthrough("b", cost=2.0),),
                                  sink_id="b")], remove=["q1"]),
        dict(add=[ContinuousQuery("q2", (passthrough("b", source="a"),),
                                  sink_id="b")], remove=["q1"]),
    ], ids=["admitted-id", "repeated-id", "unknown-remove",
            "conflicting-operator", "conflicting-adds",
            "reads-a-removed-operator"])
    def test_refused_change_leaves_the_engine_as_it_was(
            self, engine, change):
        """Every change set is checked before the transition opens."""
        engine.admit(ContinuousQuery("q1", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(2)
        with pytest.raises(ValidationError):
            engine.transition(**change)
        assert engine.admitted_ids == {"q1"}
        assert engine.current_tick == 2
        assert engine.held_tuples() == 0
        engine.run(1)
        assert len(engine.results["q1"]) == 12

    @pytest.mark.parametrize("add", [
        [ContinuousQuery("q", (passthrough("a"),), sink_id="a")] * 2,
        [ContinuousQuery("q", (passthrough("a"),), sink_id="a"),
         ContinuousQuery("r", (passthrough("a", cost=2.0),), sink_id="a")],
    ], ids=["repeated-id", "conflicting-adds"])
    def test_cold_engine_admits_all_or_nothing(self, engine, add):
        with pytest.raises(ValidationError):
            engine.transition(add=add)
        assert not engine.admitted_ids

    def test_removed_operator_id_may_return_redefined(self, engine):
        engine.admit(ContinuousQuery("q1", (passthrough("a"),),
                                     sink_id="a"))
        engine.transition(
            add=[ContinuousQuery("q2", (passthrough("a", cost=2.0),),
                                 sink_id="a")],
            remove=["q1"])
        assert engine.catalog.operators["a"].cost_per_tuple == 2.0

    def test_cold_engine_admits_without_a_transition(self, engine):
        engine.transition(add=[ContinuousQuery(
            "q", (passthrough("a"),), sink_id="a")])
        assert engine.admitted_ids == {"q"}
        assert engine.current_tick == 0  # no hold, no replay tick


def test_engine_setstate_defaults_scalar_backend(keyed_engine):
    """A pickle from a build without ``backend`` / ``_order_cache``
    resumes on the interpreter."""
    keyed_engine.admit(ContinuousQuery(
        "q", (SelectOperator("sel", "s", positive),), sink_id="sel"))
    keyed_engine.run(2)
    delivered_before = len(keyed_engine.results["q"])
    # Emulate a pre-backend pickle: the attributes do not exist.
    state = dict(keyed_engine.__dict__)
    del state["backend"]
    catalog_state = dict(state["catalog"].__dict__)
    del catalog_state["_order_cache"]
    old_catalog = object.__new__(QueryPlanCatalog)
    old_catalog.__setstate__(catalog_state)
    state["catalog"] = old_catalog
    revived = object.__new__(StreamEngine)
    revived.__setstate__(state)
    assert isinstance(revived.backend, ScalarBackend)
    revived.run(2)  # must execute, not AttributeError
    assert len(revived.results["q"]) == delivered_before + 6

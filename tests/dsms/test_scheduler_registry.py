"""Spec-addressable scheduling policies + ScheduledEngine removal."""

import pytest

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.scheduler import (
    CheapestFirstPolicy,
    FifoPolicy,
    LongestQueueFirstPolicy,
    PolicySpec,
    RoundRobinPolicy,
    ScheduledEngine,
    make_policy,
    registered_policies,
    resolve_policy,
)
from repro.dsms.streams import SyntheticStream
from repro.utils.validation import ValidationError


def _keep(_t):
    return True


def _query(qid, cost=1.0):
    op = SelectOperator(f"sel_{qid}", "s", _keep, cost_per_tuple=cost,
                        selectivity_estimate=1.0)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id, bid=1.0)


class TestRegistry:
    def test_all_policies_registered(self):
        names = set(registered_policies())
        assert {"fifo", "round-robin", "longest-queue-first",
                "cheapest-first"} <= names

    def test_resolve_forms(self):
        assert isinstance(resolve_policy("fifo"), FifoPolicy)
        assert isinstance(resolve_policy("ROUND-ROBIN"),
                          RoundRobinPolicy)
        assert isinstance(
            resolve_policy(PolicySpec.parse("cheapest-first")),
            CheapestFirstPolicy)
        live = LongestQueueFirstPolicy()
        assert resolve_policy(live) is live
        with pytest.raises(ValidationError):
            resolve_policy(3.14)

    def test_unknown_name_lists_the_menu(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_policy("warp")
        assert "fifo" in str(excinfo.value)
        assert "round-robin" in str(excinfo.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            PolicySpec.parse("fifo:speed=9").validate()

    def test_make_policy(self):
        assert isinstance(make_policy("fifo"), FifoPolicy)

    def test_spec_str_roundtrip(self):
        assert str(PolicySpec.parse("fifo")) == "fifo"

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            PolicySpec("")


class TestFifoPolicy:
    def test_preserves_the_offered_topological_order(self):
        ops = [SelectOperator(f"op{i}", "s", _keep) for i in range(4)]
        assert FifoPolicy().order(ops, {}) == ops


class TestEngineIntegration:
    def test_engine_accepts_policy_spec_strings(self):
        engine = ScheduledEngine(
            [SyntheticStream("s", rate=3.0, seed=0)], capacity=10.0,
            policy="cheapest-first")
        assert isinstance(engine.policy, CheapestFirstPolicy)

    def test_remove_drops_orphaned_queues_keeps_shared(self):
        engine = ScheduledEngine(
            [SyntheticStream("s", rate=3.0, seed=0)], capacity=1.0)
        shared_op = SelectOperator("shared", "s", _keep,
                                   cost_per_tuple=5.0)
        first = ContinuousQuery("q1", (shared_op,), sink_id="shared",
                                bid=1.0)
        second = ContinuousQuery(
            "q2",
            (SelectOperator("shared", "s", _keep, cost_per_tuple=5.0),),
            sink_id="shared", bid=1.0)
        solo = _query("q3")
        for query in (first, second, solo):
            engine.admit(query)
        engine.run(3)  # builds queues (capacity is tiny)
        assert engine.admitted_ids == {"q1", "q2", "q3"}

        engine.remove("q1")
        # shared op still referenced by q2: queue survives.
        assert "shared" in engine._queues
        engine.remove("q2")
        assert "shared" not in engine._queues
        assert engine.admitted_ids == {"q3"}

    def test_remove_unknown_query_raises(self):
        engine = ScheduledEngine(
            [SyntheticStream("s", rate=3.0, seed=0)], capacity=1.0)
        # Same contract as the catalog (and StreamEngine.remove).
        with pytest.raises(KeyError):
            engine.remove("ghost")

    def test_latency_samples_match_the_latency_stats(self):
        engine = ScheduledEngine(
            [SyntheticStream("s", rate=3.0, seed=0)], capacity=50.0)
        engine.admit(_query("q1"))
        engine.run(5)
        assert engine.latency_samples
        stats = engine.latency["q1"]
        assert len(engine.latency_samples) == stats.count
        assert sum(engine.latency_samples) == pytest.approx(
            stats.total)

"""Bounded-work scheduled engine tests: queues, policies, latency."""

import pytest

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.scheduler import (
    CheapestFirstPolicy,
    LongestQueueFirstPolicy,
    RoundRobinPolicy,
    ScheduledEngine,
)
from repro.dsms.streams import SyntheticStream


def passthrough(op_id, source="s", cost=1.0):
    return SelectOperator(op_id, source, lambda t: True,
                          cost_per_tuple=cost, selectivity_estimate=1.0)


def make_engine(rate=5, capacity=10.0, policy=None, seed=0):
    return ScheduledEngine(
        [SyntheticStream("s", rate=rate, poisson=False, seed=seed)],
        capacity=capacity,
        policy=policy,
    )


class TestUnderloadedBehaviour:
    def test_everything_flows_through(self):
        engine = make_engine(rate=4, capacity=100.0)
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(5)
        assert len(engine.results["q"]) == 20
        assert engine.total_queued() == 0

    def test_same_tick_latency_when_capacity_ample(self):
        engine = make_engine(rate=4, capacity=100.0)
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(5)
        assert engine.mean_latency("q") == 0.0

    def test_pipeline_processed_within_tick(self):
        engine = make_engine(rate=3, capacity=100.0)
        a = passthrough("a")
        b = passthrough("b", source="a")
        engine.admit(ContinuousQuery("q", (a, b), sink_id="b"))
        engine.run(4)
        assert len(engine.results["q"]) == 12
        assert engine.total_queued() == 0


class TestOverloadedBehaviour:
    def test_budget_respected(self):
        engine = make_engine(rate=20, capacity=8.0)
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(10)
        assert engine.mean_work_per_tick <= 8.0 + 1e-9

    def test_queues_grow_without_admission_control(self):
        """Over-admission shows up as unbounded queueing — the failure
        mode the paper's admission auctions exist to prevent."""
        engine = make_engine(rate=20, capacity=8.0)
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(5)
        early = engine.total_queued()
        engine.run(10)
        assert engine.total_queued() > early

    def test_latency_grows_under_overload(self):
        engine = make_engine(rate=20, capacity=8.0)
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(20)
        assert engine.mean_latency("q") > 1.0
        assert engine.latency["q"].maximum >= 5

    def test_admitted_set_within_capacity_is_stable(self):
        """The auction's promise: union load ≤ capacity ⇒ no queue
        growth."""
        engine = make_engine(rate=5, capacity=10.0)
        engine.admit(ContinuousQuery("q1", (passthrough("a"),),
                                     sink_id="a"))
        engine.admit(ContinuousQuery("q2", (passthrough("b"),),
                                     sink_id="b"))
        engine.run(20)
        assert engine.total_queued() == 0


class TestPolicies:
    @pytest.mark.parametrize("policy_cls", [
        RoundRobinPolicy, LongestQueueFirstPolicy, CheapestFirstPolicy])
    def test_all_policies_conserve_tuples(self, policy_cls):
        engine = make_engine(rate=6, capacity=6.0, policy=policy_cls())
        engine.admit(ContinuousQuery("q1", (passthrough("a", cost=0.5),),
                                     sink_id="a"))
        engine.admit(ContinuousQuery("q2", (passthrough("b", cost=2.0),),
                                     sink_id="b"))
        engine.run(10)
        delivered = sum(len(r) for r in engine.results.values())
        queued = engine.total_queued()
        assert delivered + queued == 2 * 6 * 10  # both ops see all 60

    def test_cheapest_first_maximizes_throughput(self):
        def build(policy):
            engine = make_engine(rate=6, capacity=6.0, policy=policy,
                                 seed=3)
            engine.admit(ContinuousQuery(
                "cheap", (passthrough("a", cost=0.5),), sink_id="a"))
            engine.admit(ContinuousQuery(
                "dear", (passthrough("b", cost=3.0),), sink_id="b"))
            engine.run(10)
            return sum(len(r) for r in engine.results.values())

        assert build(CheapestFirstPolicy()) >= build(RoundRobinPolicy())

    def test_longest_queue_first_targets_backlog(self):
        engine = make_engine(rate=10, capacity=5.0,
                             policy=LongestQueueFirstPolicy())
        engine.admit(ContinuousQuery("q", (passthrough("a", cost=0.5),),
                                     sink_id="a"))
        engine.run(5)
        # The single operator still gets served every tick.
        assert len(engine.results["q"]) > 0


class TestValidation:
    def test_unknown_stream(self):
        from repro.utils.validation import ValidationError

        engine = make_engine()
        with pytest.raises(ValidationError):
            engine.admit(ContinuousQuery(
                "q", (passthrough("a", source="nope"),), sink_id="a"))

    def test_positive_capacity_required(self):
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            ScheduledEngine([], capacity=0.0)


class TestTransition:
    @staticmethod
    def plans():
        """Four plans over one shared operator, each with its own sink."""
        return [ContinuousQuery(
            f"q{index}", (passthrough("shared"),
                          passthrough(f"own{index}", source="shared")),
            sink_id=f"own{index}") for index in range(4)]

    def test_one_transition_is_one_plan_at_a_time(self):
        """A change set ends where removing, then admitting, each plan
        in turn ends — queued tuples, latencies and routing — with the
        routing rebuilt once."""
        single, batch = make_engine(capacity=3.0), make_engine(capacity=3.0)
        for engine in (single, batch):
            for plan in self.plans()[:3]:
                engine.admit(plan)
            engine.run(3)
        single.remove("q0")
        single.remove("q1")
        single.admit(self.plans()[3])
        rebuilds = []
        rebuild = batch._rebuild_routing
        batch._rebuild_routing = lambda: (rebuilds.append(1), rebuild())
        batch.transition(add=[self.plans()[3]], remove=["q0", "q1"])
        assert len(rebuilds) == 1
        for engine in (single, batch):
            engine.run(3)
        assert ({q: len(r) for q, r in batch.results.items()}
                == {q: len(r) for q, r in single.results.items()})
        assert batch.latency_samples == single.latency_samples
        assert batch.total_queued() == single.total_queued()
        assert ([op.op_id for op in batch._order]
                == [op.op_id for op in single._order])

    def test_a_refused_plan_keeps_the_ones_before_it(self):
        from repro.utils.validation import ValidationError

        engine = make_engine(rate=4, capacity=100.0)
        first, second = self.plans()[:2]
        stray = ContinuousQuery("bad", (passthrough("b", source="nope"),),
                                sink_id="b")
        with pytest.raises(ValidationError, match="unknown streams"):
            engine.transition(add=[first, stray, second])
        assert set(engine.admitted_ids) == {"q0"}
        engine.run(2)
        assert len(engine.results["q0"]) == 8

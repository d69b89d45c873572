"""Tuple-level load shedding tests (the intro's contrast)."""

import pytest

from repro.core import make_mechanism
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.shedding import (
    PriorityShedder,
    RandomShedder,
    SheddingEngine,
    run_shedding_comparison,
)
from repro.dsms.streams import SyntheticStream
from repro.dsms.tuples import StreamTuple
from repro.sim.arrivals import pass_all


def passthrough(op_id, source="s", cost=1.0, predicate=lambda t: True):
    return SelectOperator(op_id, source, predicate,
                          cost_per_tuple=cost, selectivity_estimate=1.0)


def make_batch(stream, count):
    return [StreamTuple(stream, 1, {}, origin=(f"{stream}#{i}",))
            for i in range(count)]


class TestShedders:
    def test_random_sheds_roughly_fraction(self):
        shedder = RandomShedder(seed=0)
        arrivals = {"s": make_batch("s", 1000)}
        kept = shedder.shed(arrivals, overload_fraction=0.3)
        assert len(kept["s"]) == pytest.approx(700, abs=60)
        assert shedder.dropped == 1000 - len(kept["s"])

    def test_random_zero_fraction_keeps_all(self):
        shedder = RandomShedder(seed=0)
        kept = shedder.shed({"s": make_batch("s", 50)}, 0.0)
        assert len(kept["s"]) == 50

    def test_priority_sheds_low_value_streams_first(self):
        shedder = PriorityShedder({"cheap": 1.0, "dear": 100.0}, seed=0)
        arrivals = {"cheap": make_batch("cheap", 40),
                    "dear": make_batch("dear", 40)}
        kept = shedder.shed(arrivals, overload_fraction=0.5)
        assert len(kept["cheap"]) == 0       # absorbed all drops
        assert len(kept["dear"]) == 40

    def test_priority_spills_over(self):
        shedder = PriorityShedder({"cheap": 1.0, "dear": 100.0}, seed=0)
        arrivals = {"cheap": make_batch("cheap", 10),
                    "dear": make_batch("dear", 40)}
        kept = shedder.shed(arrivals, overload_fraction=0.6)  # 30 of 50
        assert len(kept["cheap"]) == 0
        assert len(kept["dear"]) == 20


class TestSheddingEngine:
    # pass_all is marked constant-true, so a plain StreamEngine would
    # run its network a period per pass; the shedder must still see
    # every tick.
    @pytest.mark.parametrize("predicate", [lambda t: True, pass_all],
                             ids=["lambda", "pass_all"])
    def test_keeps_work_within_capacity(self, predicate):
        engine = SheddingEngine(
            [SyntheticStream("s", rate=20, poisson=False, seed=0)],
            capacity=10.0,
            shedder=RandomShedder(seed=1))
        engine.admit(ContinuousQuery(
            "q", (passthrough("a", predicate=predicate),), sink_id="a"))
        report = engine.run(10)
        # Work per tick ≈ capacity (sheds exactly the overload).
        assert report.work_per_tick <= 10.0 + 1e-6
        assert engine.shedder.dropped > 0

    def test_no_shedding_under_light_load(self):
        engine = SheddingEngine(
            [SyntheticStream("s", rate=3, poisson=False, seed=0)],
            capacity=100.0,
            shedder=RandomShedder(seed=1))
        engine.admit(ContinuousQuery("q", (passthrough("a"),),
                                     sink_id="a"))
        engine.run(5)
        assert engine.shedder.dropped == 0
        assert len(engine.results["q"]) == 15


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        def make_sources():
            return [SyntheticStream("s", rate=10, poisson=False, seed=1)]

        queries = []
        for i, bid in enumerate([50, 30, 20, 10]):
            queries.append(ContinuousQuery(
                f"q{i}", (passthrough(f"op{i}"),), sink_id=f"op{i}",
                bid=float(bid)))
        return run_shedding_comparison(
            make_sources, queries, capacity=25.0,
            mechanism=make_mechanism("CAT"), ticks=20)

    def test_admission_serves_winners_fully(self, comparison):
        assert comparison.winners_served_fully
        for qid in comparison.admission_winner_ids:
            assert comparison.admission_delivered[qid] == 200  # 10×20

    def test_admission_earns_revenue_shedding_does_not(self, comparison):
        assert comparison.admission_revenue > 0

    def test_shedding_degrades_everyone(self, comparison):
        assert comparison.shedding_dropped > 0
        for qid, delivered in comparison.shedding_delivered.items():
            assert delivered < 200  # nobody gets the full stream

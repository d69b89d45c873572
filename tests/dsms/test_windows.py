"""Sliding-window operator tests."""

from repro.dsms.tuples import StreamTuple
from repro.dsms.windows import (
    DistinctOperator,
    SlidingAggregateOperator,
    TopKOperator,
)


def batch(tick, payloads, stream="s"):
    return [StreamTuple(stream, tick, p, origin=(f"{stream}@{tick}#{i}",))
            for i, p in enumerate(payloads)]


class TestSlidingAggregate:
    def test_emits_every_tick(self):
        op = SlidingAggregateOperator("sl", "s", "v", sum, window=3)
        out1 = op.execute({"s": batch(1, [{"v": 1}])})
        out2 = op.execute({"s": batch(2, [{"v": 2}])})
        assert out1[0].value("value") == 1
        assert out2[0].value("value") == 3   # window covers both

    def test_window_slides(self):
        op = SlidingAggregateOperator("sl", "s", "v", sum, window=2)
        op.execute({"s": batch(1, [{"v": 10}])})
        op.execute({"s": batch(2, [{"v": 5}])})
        out = op.execute({"s": batch(3, [{"v": 1}])})
        # tick-1 tuple expired: 5 + 1.
        assert out[0].value("value") == 6

    def test_group_by(self):
        op = SlidingAggregateOperator(
            "sl", "s", "v", max, window=3,
            group_by=lambda t: t.value("g"))
        out = op.execute({"s": batch(1, [
            {"g": "a", "v": 1}, {"g": "a", "v": 7}, {"g": "b", "v": 3}])})
        values = {t.value("group"): t.value("value") for t in out}
        assert values == {"a": 7, "b": 3}

    def test_empty_tick_no_output(self):
        op = SlidingAggregateOperator("sl", "s", "v", sum, window=3)
        assert op.execute({"s": []}) == []

    def test_reset(self):
        op = SlidingAggregateOperator("sl", "s", "v", sum, window=3)
        op.execute({"s": batch(1, [{"v": 1}])})
        op.reset()
        assert op.pending_tuples() == 0


class TestDistinct:
    def test_dedup_within_window(self):
        op = DistinctOperator("d", "s", key=lambda t: t.value("k"),
                              window=5)
        out1 = op.execute({"s": batch(1, [{"k": "x"}, {"k": "x"},
                                          {"k": "y"}])})
        assert len(out1) == 2
        out2 = op.execute({"s": batch(2, [{"k": "x"}])})
        assert out2 == []   # still suppressed

    def test_key_reappears_after_window(self):
        op = DistinctOperator("d", "s", key=lambda t: t.value("k"),
                              window=2)
        op.execute({"s": batch(1, [{"k": "x"}])})
        out = op.execute({"s": batch(4, [{"k": "x"}])})
        assert len(out) == 1


class TestTopK:
    def test_ranks_by_score(self):
        op = TopKOperator("t", "s", score=lambda t: t.value("v"),
                          k=2, window=3)
        out = op.execute({"s": batch(1, [{"v": 5}, {"v": 9}, {"v": 1}])})
        assert [t.value("v") for t in out] == [9, 5]
        assert [t.value("rank") for t in out] == [1, 2]

    def test_window_expiry_drops_old_leaders(self):
        op = TopKOperator("t", "s", score=lambda t: t.value("v"),
                          k=1, window=2)
        op.execute({"s": batch(1, [{"v": 100}])})
        out = op.execute({"s": batch(3, [{"v": 7}])})
        assert [t.value("v") for t in out] == [7]

    def test_fewer_than_k(self):
        op = TopKOperator("t", "s", score=lambda t: t.value("v"),
                          k=5, window=3)
        out = op.execute({"s": batch(1, [{"v": 2}])})
        assert len(out) == 1


class TestEngineIntegration:
    def test_sliding_aggregate_in_engine(self):
        from repro.dsms.engine import StreamEngine
        from repro.dsms.plan import ContinuousQuery
        from repro.dsms.streams import SyntheticStream

        engine = StreamEngine(
            [SyntheticStream("s", rate=2, poisson=False, seed=0,
                             payload_fn=lambda rng, tick, i: {"v": 1})])
        op = SlidingAggregateOperator("sl", "s", "v", sum, window=4)
        engine.admit(ContinuousQuery("q", (op,), sink_id="sl"))
        engine.run(6)
        results = engine.results["q"]
        assert len(results) == 6          # one aggregate per tick
        assert results[-1].value("value") == 8   # 4 ticks × 2 tuples

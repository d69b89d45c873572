"""Experiment harness tests."""

import pytest

from repro.experiments.harness import (
    ExperimentScale,
    SweepCell,
    mechanism_factory,
    run_sharing_sweep,
)


TINY = ExperimentScale(num_sets=1, num_queries=60, degrees=(1, 4), seed=7)


class TestExperimentScale:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SETS", "2")
        monkeypatch.setenv("REPRO_QUERIES", "99")
        monkeypatch.setenv("REPRO_DEGREES", "1, 5,9")
        scale = ExperimentScale.from_env()
        assert scale.num_sets == 2
        assert scale.num_queries == 99
        assert scale.degrees == (1, 5, 9)

    def test_paper_scale(self):
        paper = ExperimentScale.paper()
        assert paper.num_sets == 50
        assert paper.num_queries == 2000
        assert paper.degrees == tuple(range(1, 61))

    def test_scaled_capacity(self):
        scale = ExperimentScale(num_queries=200)
        assert scale.scaled_capacity(15_000.0) == pytest.approx(1_500.0)

    def test_generators_are_seeded_independently(self):
        scale = ExperimentScale(num_sets=3, num_queries=30)
        seeds = {g.seed for g in scale.generators()}
        assert len(seeds) == 3


class TestSweepCell:
    def test_running_mean(self):
        from repro.core import make_mechanism
        from repro.workload import example1

        cell = SweepCell("CAT", 1)
        outcome = make_mechanism("CAT").run(example1())
        cell.add(outcome, 1.0)
        cell.add(outcome, 3.0)
        assert cell.samples == 2
        assert cell.runtime_ms == pytest.approx(2.0)
        assert cell.profit == pytest.approx(outcome.profit)


class TestRunSharingSweep:
    def test_produces_all_cells(self):
        result = run_sharing_sweep(TINY, 15_000.0,
                                   mechanisms=("CAF", "CAT"))
        assert set(result.cells) == {
            ("CAF", 1), ("CAF", 4), ("CAT", 1), ("CAT", 4)}
        for cell in result.cells.values():
            assert cell.samples == TINY.num_sets

    def test_series_extraction(self):
        result = run_sharing_sweep(TINY, 15_000.0, mechanisms=("CAT",))
        series = result.series("CAT", "admission_rate")
        assert [degree for degree, _ in series] == [1, 4]
        assert all(0 <= v <= 1 for _, v in series)

    def test_mechanism_factory_seeds_randomized(self):
        two_price = mechanism_factory("Two-price", 5)
        assert two_price.name == "Two-price"
        cat = mechanism_factory("CAT", 5)
        assert cat.name == "CAT"

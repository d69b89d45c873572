"""Churn-timeline experiment tests."""

import pytest

from repro.experiments.timeline import (
    ChurnConfig,
    run_timeline,
)

CONFIG = ChurnConfig(periods=6, arrivals_per_period=8,
                     catalogue_size=20, capacity=40.0)


@pytest.fixture(scope="module")
def timeline():
    return run_timeline(("CAF", "CAT", "Two-price"), CONFIG, seed=5)


class TestTimeline:
    def test_all_mechanisms_recorded(self, timeline):
        assert set(timeline.records) == {"CAF", "CAT", "Two-price"}
        for records in timeline.records.values():
            assert len(records) == CONFIG.periods

    def test_identical_arrival_sequences(self, timeline):
        """Period-1 candidate counts are equal across mechanisms
        (identical arrivals; divergence only comes from churn)."""
        first = {name: records[0].candidates
                 for name, records in timeline.records.items()}
        assert len(set(first.values())) == 1

    def test_revenue_non_negative_and_accumulates(self, timeline):
        for name in timeline.records:
            assert timeline.cumulative_revenue(name) > 0.0
            for record in timeline.records[name]:
                assert record.revenue >= 0.0
                assert 0 <= record.admitted <= record.candidates

    def test_utilization_bounded(self, timeline):
        for records in timeline.records.values():
            for record in records:
                assert 0.0 <= record.utilization <= 1.0 + 1e-9

    def test_render(self, timeline):
        text = timeline.render()
        assert "Churn timeline" in text
        assert "CAT" in text

    def test_deterministic(self):
        a = run_timeline(("CAT",), CONFIG, seed=9)
        b = run_timeline(("CAT",), CONFIG, seed=9)
        assert ([r.revenue for r in a.records["CAT"]]
                == [r.revenue for r in b.records["CAT"]])

    def test_population_persists_across_periods(self, timeline):
        """Candidates exceed per-period arrivals once churn retains
        earlier clients."""
        records = timeline.records["CAT"]
        assert any(r.candidates > CONFIG.arrivals_per_period
                   for r in records[1:])

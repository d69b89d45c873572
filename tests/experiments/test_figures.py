"""Figure regeneration tests — shape assertions, not absolute values."""

import pytest

from repro.experiments.figures import (
    PROFIT_CAPACITIES,
    figure4_profit,
    figure4a,
    figure4b,
    utilization_summary,
)
from repro.experiments.harness import (
    ExperimentScale,
    run_sharing_sweep,
)

#: Shared small-but-meaningful scale for figure shape tests.
SCALE = ExperimentScale(num_sets=2, num_queries=150,
                        degrees=(1, 2, 4, 8, 16), seed=11)


@pytest.fixture(scope="module")
def sweep_15k():
    return run_sharing_sweep(SCALE, 15_000.0)


@pytest.fixture(scope="module")
def sweep_5k():
    return run_sharing_sweep(SCALE, 5_000.0)


@pytest.fixture(scope="module")
def profit_figures(sweep_5k, sweep_15k):
    """Figures 4(c)–(f), keyed by capacity."""
    sweeps = {5_000.0: sweep_5k, 15_000.0: sweep_15k}
    return {capacity: figure4_profit(capacity, SCALE,
                                     sweep=sweeps.get(capacity))
            for capacity in PROFIT_CAPACITIES}


class TestFigure4a:
    def test_admission_increases_with_sharing(self, sweep_15k):
        figure = figure4a(SCALE, sweep=sweep_15k)
        for mechanism in ("CAF", "CAT", "Two-price"):
            series = [v for _, v in figure.series(mechanism)]
            assert series[-1] >= series[0] - 0.05, mechanism

    def test_two_price_admits_least(self, sweep_15k):
        figure = figure4a(SCALE, sweep=sweep_15k)
        for degree in SCALE.degrees:
            tp = figure.sweep.cell("Two-price", degree).admission_rate
            for name in ("CAF", "CAF+", "CAT", "CAT+"):
                assert tp <= figure.sweep.cell(
                    name, degree).admission_rate + 1e-9

    def test_render_contains_series(self, sweep_15k):
        text = figure4a(SCALE, sweep=sweep_15k).render()
        assert "Figure 4(a)" in text
        assert "Two-price" in text


class TestFigure4b:
    def test_density_mechanisms_beat_two_price_on_payoff(self, sweep_15k):
        """'the density based mechanisms always perform better than
        Two-price' for total user payoff."""
        figure = figure4b(SCALE, sweep=sweep_15k)
        for degree in SCALE.degrees:
            tp = figure.sweep.cell("Two-price", degree).total_user_payoff
            for name in ("CAF", "CAF+", "CAT", "CAT+"):
                assert figure.sweep.cell(
                    name, degree).total_user_payoff >= tp - 1e-9

    def test_caf_plus_payoff_at_least_caf(self, sweep_15k):
        """CAF+ admits a superset and charges no more than fair share."""
        figure = figure4b(SCALE, sweep=sweep_15k)
        for degree in SCALE.degrees:
            assert (figure.sweep.cell("CAF+", degree).total_user_payoff
                    >= figure.sweep.cell("CAF", degree).total_user_payoff
                    - 1e-6)


class TestFigure4Profit:
    def test_overloaded_capacity_shape(self, sweep_5k):
        """At capacity 5,000 (persistently overloaded): the density
        mechanisms beat Two-price at degree 1, and Two-price overtakes
        by the top of the sweep — the crossover of Figure 4(c)."""
        figure = figure4_profit(5_000.0, SCALE, sweep=sweep_5k)
        first = SCALE.degrees[0]
        last = SCALE.degrees[-1]
        tp_first = figure.sweep.cell("Two-price", first).profit
        tp_last = figure.sweep.cell("Two-price", last).profit
        assert figure.sweep.cell("CAF", first).profit > tp_first
        assert figure.sweep.cell("CAT", first).profit > tp_first
        assert tp_last > figure.sweep.cell("CAF", last).profit
        assert tp_last > figure.sweep.cell("CAT", last).profit

    def test_two_price_profit_increases_with_sharing(self, profit_figures):
        for capacity, figure in profit_figures.items():
            series = [v for _, v in figure.series("Two-price")]
            assert series[-1] >= series[0], capacity

    def test_crossover_shifts_left_as_capacity_grows(self, profit_figures):
        """Figure 4(c)→(f): 'the picture as a whole seems to shift ...
        to the lower end' — the first degree where Two-price's profit
        beats CAT's is non-increasing in capacity."""
        crossovers = [
            next((degree for degree in SCALE.degrees
                  if figure.sweep.cell("Two-price", degree).profit
                  > figure.sweep.cell("CAT", degree).profit),
                 float("inf"))
            for figure in profit_figures.values()]
        assert crossovers == sorted(crossovers, reverse=True)

    def test_plus_variants_profit_below_base_at_high_sharing(
            self, sweep_5k):
        """CAF+/CAT+ 'cannot charge much': their aggressive admission
        drives prices down relative to CAF/CAT as sharing grows."""
        figure = figure4_profit(5_000.0, SCALE, sweep=sweep_5k)
        degree = SCALE.degrees[-2]
        assert (figure.sweep.cell("CAF+", degree).profit
                <= figure.sweep.cell("CAF", degree).profit + 1e-6)
        assert (figure.sweep.cell("CAT+", degree).profit
                <= figure.sweep.cell("CAT", degree).profit + 1e-6)

    def test_figure_labels(self):
        scale = ExperimentScale(num_sets=1, num_queries=40,
                                degrees=(1,))
        assert figure4_profit(5_000.0, scale).figure == "Figure 4(c)"
        assert figure4_profit(20_000.0, scale).figure == "Figure 4(f)"


class TestUtilization:
    def test_overloaded_points_highly_utilized(self, sweep_15k):
        """Section VI: density mechanisms fill more than 98% of
        capacity, Two-price less — where demand exceeds capacity."""
        summary = utilization_summary(SCALE, sweep=sweep_15k)
        if summary.overloaded_degrees:
            for name in ("CAF", "CAT", "CAF+", "CAT+"):
                assert summary.mean_utilization(name) > 0.95, name
            assert (summary.mean_utilization("Two-price")
                    <= summary.mean_utilization("CAF+") + 1e-9)

    def test_render(self, sweep_15k):
        text = utilization_summary(SCALE, sweep=sweep_15k).render()
        assert "utilization" in text

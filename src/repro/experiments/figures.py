"""Figure 4 series: admission rate, user payoff, and profit-by-capacity.

Each function regenerates one paper figure as a numeric table (the
series the paper plots), using the shared sweep harness.  Figures
4(a)/(b)/(e) use system capacity 15,000; 4(c)–(f) sweep capacity from
5,000 to 20,000.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.experiments.harness import (
    FIGURE_MECHANISMS,
    ExperimentScale,
    SweepResult,
    run_sharing_sweep,
)
from repro.utils.tables import format_table

#: The capacities of Figures 4(c)–(f).
PROFIT_CAPACITIES = (5_000.0, 10_000.0, 15_000.0, 20_000.0)


@dataclass
class FigureResult:
    """One figure: a metric per mechanism across the sharing sweep."""

    figure: str
    metric: str
    sweep: SweepResult
    mechanisms: tuple[str, ...] = FIGURE_MECHANISMS

    def rows(self) -> list[list[object]]:
        """Degree-indexed rows, one column per mechanism."""
        table: list[list[object]] = []
        for degree in self.sweep.scale.degrees:
            row: list[object] = [degree]
            for name in self.mechanisms:
                row.append(getattr(self.sweep.cell(name, degree),
                                   self.metric))
            table.append(row)
        return table

    def render(self) -> str:
        """ASCII rendering of the figure's series."""
        title = (f"{self.figure} — {self.metric} vs. max degree of "
                 f"sharing (capacity {self.sweep.capacity_label:g}, "
                 f"{self.sweep.scale.num_queries} queries x "
                 f"{self.sweep.scale.num_sets} sets)")
        return format_table(
            ["degree", *self.mechanisms], self.rows(),
            precision=3, title=title)

    def series(self, mechanism: str) -> list[tuple[int, float]]:
        """(degree, value) points for one mechanism."""
        return self.sweep.series(mechanism, self.metric)


def figure4a(
    scale: ExperimentScale | None = None,
    sweep: SweepResult | None = None,
) -> FigureResult:
    """Figure 4(a): percentage of queries serviced, capacity 15,000."""
    scale = scale or ExperimentScale.from_env()
    sweep = sweep or run_sharing_sweep(scale, 15_000.0)
    return FigureResult("Figure 4(a)", "admission_rate", sweep)


def figure4b(
    scale: ExperimentScale | None = None,
    sweep: SweepResult | None = None,
) -> FigureResult:
    """Figure 4(b): total user payoff, capacity 15,000."""
    scale = scale or ExperimentScale.from_env()
    sweep = sweep or run_sharing_sweep(scale, 15_000.0)
    return FigureResult("Figure 4(b)", "total_user_payoff", sweep)


def figure4_profit(
    paper_capacity: float,
    scale: ExperimentScale | None = None,
    sweep: SweepResult | None = None,
) -> FigureResult:
    """Figures 4(c)–(f): system profit at one capacity.

    ``paper_capacity`` selects the sub-figure: 5,000 → (c), 10,000 →
    (d), 15,000 → (e), 20,000 → (f).
    """
    labels = {5_000.0: "(c)", 10_000.0: "(d)",
              15_000.0: "(e)", 20_000.0: "(f)"}
    label = labels.get(float(paper_capacity), "(profit)")
    scale = scale or ExperimentScale.from_env()
    sweep = sweep or run_sharing_sweep(scale, paper_capacity)
    return FigureResult(f"Figure 4{label}", "profit", sweep)


def figure4_all_profits(
    scale: ExperimentScale | None = None,
    capacities: Sequence[float] = PROFIT_CAPACITIES,
) -> list[FigureResult]:
    """All four profit sub-figures (4(c)–(f))."""
    scale = scale or ExperimentScale.from_env()
    return [figure4_profit(capacity, scale) for capacity in capacities]


@dataclass
class UtilizationSummary:
    """The Section VI utilization claim, measured.

    The paper: density mechanisms utilize more than 98% of capacity,
    Two-price 96–98%.  With Table III's own parameters the claim can
    only hold while total demand exceeds capacity, so the summary also
    reports the restriction to *overloaded* sweep points (demand ≥
    capacity): below that, capacity does not bind, so utilization
    measures the workload, not the mechanism.
    """

    sweep: SweepResult
    overloaded_degrees: tuple[int, ...]

    def mean_utilization(
        self, mechanism: str, overloaded_only: bool = True
    ) -> float:
        degrees = (self.overloaded_degrees if overloaded_only
                   else self.sweep.scale.degrees)
        if not degrees:
            return 0.0
        values = [self.sweep.cell(mechanism, d).utilization
                  for d in degrees]
        return sum(values) / len(values)

    def render(self) -> str:
        rows = []
        for name in FIGURE_MECHANISMS:
            rows.append([
                name,
                100.0 * self.mean_utilization(name, overloaded_only=True),
                100.0 * self.mean_utilization(name, overloaded_only=False),
            ])
        return format_table(
            ["mechanism", "util% (overloaded)", "util% (all degrees)"],
            rows, precision=2,
            title="System utilization (capacity 15,000 sweep)")


def utilization_summary(
    scale: ExperimentScale | None = None,
    sweep: SweepResult | None = None,
) -> UtilizationSummary:
    """Measure the utilization claim on the capacity-15,000 sweep."""
    scale = scale or ExperimentScale.from_env()
    sweep = sweep or run_sharing_sweep(scale, 15_000.0)
    capacity = scale.scaled_capacity(15_000.0)
    generator = scale.generators()[0]
    overloaded = tuple(
        degree for degree in scale.degrees
        if generator.instance(max_sharing=degree).total_demand()
        >= capacity
    )
    return UtilizationSummary(sweep=sweep, overloaded_degrees=overloaded)

"""Run every experiment and print the paper's tables and figures.

``python -m repro report`` regenerates, at the configured scale
(see :class:`repro.experiments.harness.ExperimentScale`):

* Figure 4(a) — admission rate vs. sharing (capacity 15,000);
* Figure 4(b) — total user payoff vs. sharing (capacity 15,000);
* Figures 4(c)–(f) — profit vs. sharing at capacities 5K–20K;
* the utilization summary;
* Table IV — mechanism runtimes;
* Figure 5 — CAR under lying workloads;
* Table I — empirical property verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.figures import (
    FigureResult,
    UtilizationSummary,
    figure4a,
    figure4b,
    figure4_profit,
    utilization_summary,
)
from repro.experiments.harness import (
    ExperimentScale,
    run_sharing_sweep,
)
from repro.experiments.lying import Figure5Result, figure5
from repro.experiments.runtime import RuntimeTable, table4_runtime
from repro.experiments.timeline import ChurnConfig, run_timeline
from repro.gametheory.properties import render_verdicts, verify_properties


@dataclass
class FullReport:
    """Every regenerated artifact, renderable as one text report."""

    scale: ExperimentScale
    figure_4a: FigureResult
    figure_4b: FigureResult
    profit_figures: list[FigureResult]
    utilization: UtilizationSummary
    table_4: RuntimeTable
    figure_5: Figure5Result
    figure_5_overloaded: Figure5Result | None = None
    properties_text: str = ""
    sections: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [
            f"repro experiment report — {self.scale.num_queries} queries"
            f" x {self.scale.num_sets} sets, degrees {self.scale.degrees}",
            "",
            self.figure_4a.render(), "",
            self.figure_4b.render(), "",
        ]
        for figure in self.profit_figures:
            parts.extend([figure.render(), ""])
        parts.extend([self.utilization.render(), ""])
        parts.extend([self.table_4.render(), ""])
        parts.extend([self.figure_5.render(), ""])
        if self.figure_5_overloaded is not None:
            parts.extend([self.figure_5_overloaded.render(), ""])
        if self.properties_text:
            parts.extend([self.properties_text, ""])
        parts.extend(self.sections)
        return "\n".join(parts)


def full_report(
    scale: ExperimentScale | None = None,
    include_properties: bool = True,
) -> FullReport:
    """Regenerate everything (shares the capacity-15K sweep)."""
    scale = scale or ExperimentScale.from_env()
    sweep_15k = run_sharing_sweep(scale, 15_000.0)
    profit_figures = [
        figure4_profit(5_000.0, scale),
        figure4_profit(10_000.0, scale),
        figure4_profit(15_000.0, scale, sweep=sweep_15k),
        figure4_profit(20_000.0, scale),
    ]
    report = FullReport(
        scale=scale,
        figure_4a=figure4a(scale, sweep=sweep_15k),
        figure_4b=figure4b(scale, sweep=sweep_15k),
        profit_figures=profit_figures,
        utilization=utilization_summary(scale, sweep=sweep_15k),
        table_4=table4_runtime(scale),
        figure_5=figure5(scale),
        figure_5_overloaded=figure5(scale, paper_capacity=5_000.0),
    )
    if include_properties:
        report.properties_text = render_verdicts(verify_properties())
    timeline = run_timeline(
        ("CAF", "CAT", "Two-price"),
        ChurnConfig(periods=12, arrivals_per_period=10,
                    catalogue_size=30, capacity=50.0),
        seed=scale.seed)
    report.sections.append(timeline.render())
    return report

"""Experiment harness regenerating every table and figure of Section VI.

``python -m repro report`` prints them all (:func:`full_report`); the
``benchmarks/bench_*.py`` scripts run one each."""

from repro.experiments.figures import (
    FigureResult,
    UtilizationSummary,
    figure4_all_profits,
    figure4_profit,
    figure4a,
    figure4b,
    utilization_summary,
)
from repro.experiments.harness import (
    FIGURE_MECHANISMS,
    PAPER_NUM_QUERIES,
    PAPER_NUM_SETS,
    TABLE4_MECHANISMS,
    ExperimentScale,
    SweepCell,
    SweepResult,
    mechanism_factory,
    run_sharing_sweep,
)
from repro.experiments.lying import FIGURE5_SERIES, Figure5Result, figure5
from repro.experiments.report import FullReport, full_report
from repro.experiments.runtime import (
    PAPER_TABLE4_MS,
    RuntimeTable,
    table4_runtime,
)
from repro.experiments.timeline import (
    BackpressureResult,
    BackpressureTick,
    ChurnConfig,
    PeriodRecord,
    TimelineResult,
    backpressure_rows,
    export_backpressure,
    run_backpressure,
    run_timeline,
)

__all__ = [
    "BackpressureResult",
    "BackpressureTick",
    "ChurnConfig",
    "ExperimentScale",
    "FIGURE5_SERIES",
    "FIGURE_MECHANISMS",
    "Figure5Result",
    "FigureResult",
    "FullReport",
    "PAPER_NUM_QUERIES",
    "PAPER_NUM_SETS",
    "PAPER_TABLE4_MS",
    "PeriodRecord",
    "RuntimeTable",
    "TimelineResult",
    "SweepCell",
    "SweepResult",
    "TABLE4_MECHANISMS",
    "UtilizationSummary",
    "backpressure_rows",
    "export_backpressure",
    "figure4_all_profits",
    "figure4_profit",
    "figure4a",
    "figure4b",
    "figure5",
    "full_report",
    "mechanism_factory",
    "run_backpressure",
    "run_sharing_sweep",
    "run_timeline",
    "table4_runtime",
    "utilization_summary",
]

"""The Section VI experiment harness.

The paper averages every metric over 50 workload sets of 2000 queries.
That scale is reachable here but slow in pure Python (CAF+/CAT+ pay a
quadratic movement-window computation), so the harness exposes a
*scale* that defaults to a reduced, shape-preserving configuration and
is overridable via environment variables:

* ``REPRO_SETS`` — number of workload sets (paper: 50, default 3);
* ``REPRO_QUERIES`` — queries per instance (paper: 2000, default 300);
* ``REPRO_DEGREES`` — comma-separated sharing sweep (paper: 1..60,
  default a 10-point subsample).

Capacities scale proportionally with the query count so the
capacity-to-demand ratio (which determines the figures' shape) matches
the paper's at any scale.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.mechanism import Mechanism, MechanismSpec
from repro.core.result import AuctionOutcome
from repro.utils.rng import derive_seed
from repro.workload.generator import (
    WorkloadConfig,
    WorkloadGenerator,
)

#: Paper scale constants.
PAPER_NUM_SETS = 50
PAPER_NUM_QUERIES = 2000

#: The evaluation line-up of Figure 4 plus the benchmarks of Table IV.
FIGURE_MECHANISMS = ("CAF", "CAF+", "CAT", "CAT+", "Two-price")
TABLE4_MECHANISMS = ("Random", "GV", "Two-price", "CAF", "CAF+",
                     "CAT", "CAT+")

_DEFAULT_DEGREES = (1, 2, 3, 5, 8, 12, 20, 30, 45, 60)


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return default if value is None else int(value)


def _env_degrees(default: tuple[int, ...]) -> tuple[int, ...]:
    value = os.environ.get("REPRO_DEGREES")
    if value is None:
        return default
    return tuple(int(part) for part in value.split(",") if part.strip())


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run: sets × queries × sharing degrees."""

    num_sets: int = 3
    num_queries: int = 300
    degrees: tuple[int, ...] = _DEFAULT_DEGREES
    seed: int = 2010  # the paper's year; any constant works

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Read the scale from ``REPRO_*`` environment variables."""
        return cls(
            num_sets=_env_int("REPRO_SETS", 3),
            num_queries=_env_int("REPRO_QUERIES", 300),
            degrees=_env_degrees(_DEFAULT_DEGREES),
            seed=_env_int("REPRO_SEED", 2010),
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The full Section VI scale (slow in pure Python)."""
        return cls(
            num_sets=PAPER_NUM_SETS,
            num_queries=PAPER_NUM_QUERIES,
            degrees=tuple(range(1, 61)),
        )

    def scaled_capacity(self, paper_capacity: float) -> float:
        """Paper capacity adjusted to the reduced query count."""
        return paper_capacity * self.num_queries / PAPER_NUM_QUERIES

    def generators(self) -> list[WorkloadGenerator]:
        """One seeded generator per workload set."""
        config = WorkloadConfig().scaled(self.num_queries)
        return [
            WorkloadGenerator(
                config=config, seed=derive_seed(self.seed, "set", index))
            for index in range(self.num_sets)
        ]


def mechanism_factory(name: str, seed: int) -> Mechanism:
    """Instantiate *name*, seeding the randomized mechanisms.

    Seeding is signature-driven: any registered mechanism whose factory
    takes a ``seed`` parameter (today Two-price and Random) gets one.
    """
    spec = MechanismSpec(name)
    if spec.accepts("seed"):
        spec = spec.with_params(seed=seed)
    return spec.create()


@dataclass
class SweepCell:
    """Metric statistics for one (mechanism, degree) cell of a sweep.

    Means are maintained incrementally; per-metric sums of squares
    allow standard deviations across workload sets (the paper averages
    50 sets — dispersion tells you whether a gap in the figures is
    real at reduced scale).
    """

    mechanism: str
    degree: int
    profit: float = 0.0
    admission_rate: float = 0.0
    total_user_payoff: float = 0.0
    utilization: float = 0.0
    runtime_ms: float = 0.0
    samples: int = 0
    _sum_squares: dict = field(default_factory=dict)

    _METRICS = ("profit", "admission_rate", "total_user_payoff",
                "utilization", "runtime_ms")

    def add(self, outcome: AuctionOutcome, runtime_ms: float) -> None:
        """Fold one run's metrics into the running statistics."""
        values = {
            "profit": outcome.profit,
            "admission_rate": outcome.admission_rate,
            "total_user_payoff": outcome.total_user_payoff,
            "utilization": outcome.utilization,
            "runtime_ms": runtime_ms,
        }
        n = self.samples
        for metric, value in values.items():
            mean = getattr(self, metric)
            setattr(self, metric, (mean * n + value) / (n + 1))
            self._sum_squares[metric] = (
                self._sum_squares.get(metric, 0.0) + value * value)
        self.samples = n + 1

    def std(self, metric: str) -> float:
        """Population standard deviation of *metric* over the samples."""
        if self.samples == 0 or metric not in self._METRICS:
            return 0.0
        mean = getattr(self, metric)
        mean_square = self._sum_squares.get(metric, 0.0) / self.samples
        variance = max(mean_square - mean * mean, 0.0)
        return variance ** 0.5


@dataclass
class SweepResult:
    """A sharing sweep: metric means per mechanism per degree."""

    capacity_label: float
    scale: ExperimentScale
    cells: dict[tuple[str, int], SweepCell] = field(default_factory=dict)

    def cell(self, mechanism: str, degree: int) -> SweepCell:
        key = (mechanism, degree)
        if key not in self.cells:
            self.cells[key] = SweepCell(mechanism=mechanism, degree=degree)
        return self.cells[key]

    def series(
        self, mechanism: str, metric: str
    ) -> list[tuple[int, float]]:
        """(degree, value) pairs for one mechanism and metric."""
        points = []
        for (name, degree), cell in sorted(self.cells.items(),
                                           key=lambda kv: kv[0][1]):
            if name == mechanism:
                points.append((degree, getattr(cell, metric)))
        return points


def run_sharing_sweep(
    scale: ExperimentScale,
    paper_capacity: float,
    mechanisms: Sequence[str] = FIGURE_MECHANISMS,
) -> SweepResult:
    """Run the Figure 4 sweep at one capacity."""
    capacity = scale.scaled_capacity(paper_capacity)
    result = SweepResult(capacity_label=paper_capacity, scale=scale)
    for set_index, generator in enumerate(scale.generators()):
        for degree in scale.degrees:
            instance = generator.instance(
                max_sharing=degree, capacity=capacity)
            for name in mechanisms:
                mechanism = mechanism_factory(
                    name, derive_seed(scale.seed, name, set_index, degree))
                started = time.perf_counter()
                outcome = mechanism.run(instance)
                elapsed_ms = (time.perf_counter() - started) * 1e3
                result.cell(name, degree).add(outcome, elapsed_ms)
    return result

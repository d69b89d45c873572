"""Table IV: mean runtime per mechanism.

The paper times each mechanism (Java, one core of a Xeon 2.3 GHz) on
the 2000-query, capacity-15K workloads:

    Random 0.92   GV 2.003   Two-price 3.72   CAF 7.088
    CAF+ 12555.5  CAT 7.26   CAT+ 10091.2     (milliseconds)

Absolute numbers are hardware- and language-specific; the reproduction
target is the *ordering and the gap structure*: the O(n log n)
mechanisms (Random, GV, Two-price, CAF, CAT) are within a small factor
of each other, while the skip-over mechanisms (CAF+, CAT+) are about
three orders of magnitude slower because their movement-window payment
rule re-simulates the admission pass per winner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.harness import (
    TABLE4_MECHANISMS,
    ExperimentScale,
    mechanism_factory,
)
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table

#: The paper's measured milliseconds (for side-by-side reporting).
PAPER_TABLE4_MS = {
    "Random": 0.92,
    "GV": 2.003,
    "Two-price": 3.72,
    "CAF": 7.088,
    "CAF+": 12555.5,
    "CAT": 7.26,
    "CAT+": 10091.2,
}


@dataclass
class RuntimeTable:
    """Measured mean runtimes alongside the paper's Table IV."""

    scale: ExperimentScale
    mean_ms: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        base = self.mean_ms.get("Random") or 1e-9
        paper_base = PAPER_TABLE4_MS["Random"]
        for name in TABLE4_MECHANISMS:
            rows.append([
                name,
                self.mean_ms.get(name, float("nan")),
                self.mean_ms.get(name, float("nan")) / base,
                PAPER_TABLE4_MS[name],
                PAPER_TABLE4_MS[name] / paper_base,
            ])
        return format_table(
            ["mechanism", "measured ms", "x Random",
             "paper ms", "paper x Random"],
            rows, precision=2,
            title=(f"Table IV — mean mechanism runtime "
                   f"({self.scale.num_queries} queries, capacity 15K "
                   f"scale-equivalent)"))


def table4_runtime(
    scale: ExperimentScale | None = None,
    degrees: tuple[int, ...] = (1, 8, 30),
    repetitions: int = 1,
) -> RuntimeTable:
    """Measure Table IV at the configured scale.

    Runtimes are averaged over the workload sets, the given sharing
    degrees and *repetitions* runs of each point.  Every run names
    ``selection="reference"``: the table times the paper's algorithms,
    not the kernels CAF+ / CAT+ (then CAF / CAT, warm) would pick.
    """
    scale = scale or ExperimentScale.from_env()
    capacity = scale.scaled_capacity(15_000.0)
    totals = {name: 0.0 for name in TABLE4_MECHANISMS}
    counts = {name: 0 for name in TABLE4_MECHANISMS}
    for set_index, generator in enumerate(scale.generators()):
        for degree in degrees:
            instance = generator.instance(
                max_sharing=degree, capacity=capacity)
            for name in TABLE4_MECHANISMS:
                for repetition in range(repetitions):
                    mechanism = mechanism_factory(
                        name,
                        derive_seed(scale.seed, "t4", name,
                                    set_index, degree, repetition))
                    started = time.perf_counter()
                    mechanism.run(instance, selection="reference")
                    totals[name] += (time.perf_counter() - started) * 1e3
                    counts[name] += 1
    table = RuntimeTable(scale=scale)
    for name in TABLE4_MECHANISMS:
        table.mean_ms[name] = totals[name] / max(counts[name], 1)
    return table

"""Business reports emitted by the admission service.

:class:`PeriodReport` is the stable, serializable record of one
subscription period: the auction outcome, the revenue billed, the
admitted/rejected split, and the engine-side execution counters.  It
carries a versioned JSON schema in :mod:`repro.io`
(:func:`repro.io.report_to_dict` / :func:`repro.io.report_from_dict`)
so reports can be archived, diffed and replayed across versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.result import AuctionOutcome
from repro.utils.records import share_on_deepcopy


@dataclass(frozen=True)
class PeriodReport:
    """One subscription period's business summary."""

    period: int
    outcome: AuctionOutcome
    revenue: float
    admitted: tuple[str, ...]
    rejected: tuple[str, ...]
    engine_ticks: int
    engine_utilization: float | None

    __deepcopy__ = share_on_deepcopy

    @property
    def admission_rate(self) -> float:
        """Fraction of submitted queries admitted this period."""
        total = len(self.admitted) + len(self.rejected)
        return len(self.admitted) / total if total else 0.0

"""Auction outcomes and the Section VI performance metrics.

An :class:`AuctionOutcome` records which queries won and what each pays,
and derives the paper's metrics:

* **profit** — the sum of the payments of the admitted queries;
* **admission rate** — the percentage of queries admitted;
* **total user payoff** — sum over winners of valuation minus payment
  ("an indication of total user satisfaction");
* **system utilization** — the used fraction of server capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.core.model import AuctionInstance
from repro.utils.records import share_on_deepcopy
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class AuctionOutcome:
    """Winners and payments for one auction run.

    ``payments`` has an entry for every *winning* query id; losers
    implicitly pay zero (the mechanisms never charge losers).
    ``mechanism`` names the mechanism that produced the outcome, and
    ``details`` carries mechanism-specific diagnostics (e.g. the losing
    query that set the price, or Two-price's sampled partition).
    """

    instance: AuctionInstance
    payments: Mapping[str, float]
    mechanism: str = ""
    details: Mapping[str, object] = field(default_factory=dict)

    __deepcopy__ = share_on_deepcopy

    def __post_init__(self) -> None:
        object.__setattr__(self, "payments", dict(self.payments))
        object.__setattr__(self, "details", dict(self.details))
        for qid, payment in self.payments.items():
            if not self.instance.has_query(qid):
                raise ValidationError(
                    f"outcome pays unknown query {qid!r}")
            if payment < -1e-9:
                raise ValidationError(
                    f"negative payment {payment!r} for query {qid!r}")

    # ------------------------------------------------------------------
    # Winner accounting
    # ------------------------------------------------------------------

    @property
    def winner_ids(self) -> frozenset[str]:
        """Ids of the admitted queries."""
        return frozenset(self.payments)

    def is_winner(self, query_id: str) -> bool:
        """True if *query_id* was admitted."""
        return query_id in self.payments

    def payment(self, query_id: str) -> float:
        """Payment charged to *query_id* (0 for losers)."""
        return self.payments.get(query_id, 0.0)

    def payoff(self, query_id: str) -> float:
        """User payoff ``v_i - p_i`` if admitted, else 0 (Section II)."""
        if not self.is_winner(query_id):
            return 0.0
        return self.instance.query(query_id).true_value - self.payment(query_id)

    def owner_payoff(self, owner_id: str) -> float:
        """Aggregate payoff of a user over all queries she submitted.

        Sybil attackers are responsible for their fake queries' payments
        (Section V), so fake queries contribute ``-p_i`` when their
        valuation to the attacker is zero.
        """
        total = 0.0
        for query in self.instance.queries:
            if query.owner_id == owner_id:
                total += self.payoff(query.query_id)
        return total

    # ------------------------------------------------------------------
    # Section VI metrics
    # ------------------------------------------------------------------

    @property
    def profit(self) -> float:
        """System profit: the sum of winners' payments."""
        return sum(self.payments.values())

    @property
    def admission_rate(self) -> float:
        """Fraction of submitted queries admitted (0..1)."""
        if self.instance.num_queries == 0:
            return 0.0
        return len(self.payments) / self.instance.num_queries

    @property
    def total_user_payoff(self) -> float:
        """Sum of winners' valuations minus their payments."""
        return sum(self.payoff(qid) for qid in self.payments)

    @property
    def used_capacity(self) -> float:
        """Union load of the admitted queries (shared operators once)."""
        return self.instance.union_load(self.payments)

    @property
    def utilization(self) -> float:
        """Used capacity as a fraction of server capacity (0..1)."""
        return self.used_capacity / self.instance.capacity

    def validate_capacity(self) -> None:
        """Raise if the admitted set exceeds server capacity."""
        if self.used_capacity > self.instance.capacity + 1e-6:
            raise ValidationError(
                f"admitted set load {self.used_capacity} exceeds "
                f"capacity {self.instance.capacity}")

    def summary(self) -> dict[str, float]:
        """The Section VI metrics as a plain dictionary."""
        return {
            "profit": self.profit,
            "admission_rate": self.admission_rate,
            "total_user_payoff": self.total_user_payoff,
            "utilization": self.utilization,
            "winners": float(len(self.payments)),
        }

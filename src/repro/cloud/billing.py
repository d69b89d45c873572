"""Billing: per-period invoices and owner account balances.

The DSMS center charges each admitted query the price the auction
mechanism set.  The ledger records every period's outcome so revenue,
per-user spend and per-mechanism history can be audited — and so sybil
accounting works: an owner's balance aggregates the charges of *all*
queries she submitted, fake or not (Section V's assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.result import AuctionOutcome
from repro.utils.records import share_on_deepcopy


@dataclass(frozen=True)
class Invoice:
    """One query's charge for one subscription period."""

    period: int
    query_id: str
    owner: str
    amount: float
    mechanism: str

    __deepcopy__ = share_on_deepcopy


@dataclass
class BillingLedger:
    """Append-only record of auction charges."""

    invoices: list[Invoice] = field(default_factory=list)

    def bill_outcome(self, period: int, outcome: AuctionOutcome) -> float:
        """Invoice every winner of *outcome*; returns the period revenue."""
        revenue = 0.0
        for query_id, amount in sorted(outcome.payments.items()):
            owner = outcome.instance.query(query_id).owner_id
            self.invoices.append(Invoice(
                period=period,
                query_id=query_id,
                owner=owner,
                amount=amount,
                mechanism=outcome.mechanism,
            ))
            revenue += amount
        return revenue

    def total_revenue(self) -> float:
        """Revenue across all recorded periods."""
        return sum(invoice.amount for invoice in self.invoices)

    def revenue_by_period(self) -> dict[int, float]:
        """Period → revenue."""
        revenue: dict[int, float] = {}
        for invoice in self.invoices:
            revenue[invoice.period] = (
                revenue.get(invoice.period, 0.0) + invoice.amount)
        return revenue

    def owner_balance(self, owner: str) -> float:
        """Total charged to *owner* across all her queries and periods."""
        return sum(invoice.amount for invoice in self.invoices
                   if invoice.owner == owner)

    def invoices_for(self, owner: str) -> list[Invoice]:
        """All invoices charged to *owner*."""
        return [invoice for invoice in self.invoices
                if invoice.owner == owner]

"""Subscription categories of the multi-period auctions (Section VII).

The paper's extension to queries wanting different minimum subscription
lengths partitions the free capacity across *subscription categories*
(say day / week / month) and runs an independent strategyproof auction
per category at each period boundary.  This module holds the category
mix; :class:`repro.sim.subscriptions.SubscriptionManager` runs the
boundary on a live admission service (``examples/subscriptions_demo.py``
drives a fortnight of it).  Because each per-category auction is
bid-strategyproof, the scheme as a whole remains bid-strategyproof;
users may still game *category choice* across periods — the open
problem the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.utils.validation import ValidationError, require


@dataclass(frozen=True)
class SubscriptionCategory:
    """A subscription length on offer, with its capacity share."""

    name: str
    length_days: int
    capacity_fraction: float

    def __post_init__(self) -> None:
        require(self.length_days >= 1, "length_days must be >= 1")
        require(0 < self.capacity_fraction <= 1,
                "capacity_fraction must be in (0, 1]")


#: The paper's example category mix (Section VII).
DEFAULT_CATEGORIES = (
    SubscriptionCategory("day", 1, 0.40),
    SubscriptionCategory("week", 7, 0.35),
    SubscriptionCategory("month", 30, 0.25),
)


def validate_categories(
    categories: Sequence[SubscriptionCategory],
) -> tuple[SubscriptionCategory, ...]:
    """Validate a category mix; returns it as a tuple.

    Names must be unique and the capacity fractions must sum to at
    most 1 — the partition shares one physical capacity, so a mix
    summing above it would admit load the servers cannot execute.
    Violations raise :class:`ValidationError` naming the categories.
    """
    categories = tuple(categories)
    require(len(categories) >= 1, "at least one category is required")
    names = [c.name for c in categories]
    require(len(set(names)) == len(names),
            "category names must be unique")
    total_fraction = sum(c.capacity_fraction for c in categories)
    if total_fraction > 1.0 + 1e-9:
        shares = ", ".join(
            f"{c.name}={c.capacity_fraction:g}" for c in categories)
        raise ValidationError(
            f"capacity fractions of categories [{shares}] sum to "
            f"{total_fraction:g} > 1; the partition shares one "
            f"capacity, so the fractions must sum to at most 1")
    return categories

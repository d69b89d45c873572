"""The DSMS-center business layer (Section VII): billing, the
subscription category mix, energy-aware capacity selection.

The auction-driven service orchestrator lives in :mod:`repro.service`;
the multi-period subscription lifecycle that auctions each category at
a period boundary lives in :mod:`repro.sim.subscriptions`.
"""

from repro.cloud.billing import BillingLedger, Invoice
from repro.cloud.energy import (
    CapacityChoice,
    EnergyModel,
    best_capacity,
    evaluate_capacities,
)
from repro.cloud.subscriptions import (
    DEFAULT_CATEGORIES,
    SubscriptionCategory,
    validate_categories,
)

__all__ = [
    "BillingLedger",
    "CapacityChoice",
    "DEFAULT_CATEGORIES",
    "EnergyModel",
    "Invoice",
    "SubscriptionCategory",
    "best_capacity",
    "evaluate_capacities",
    "validate_categories",
]

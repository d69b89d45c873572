"""The DSMS-center business layer (Section VII): billing,
multi-period subscriptions, energy-aware capacity selection.

The auction-driven service orchestrator lives in :mod:`repro.service`.
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
    ActiveSubscription,
    DailyResult,
    SubscriptionCategory,
    SubscriptionRequest,
    SubscriptionScheduler,
    validate_categories,
)

__all__ = [
    "ActiveSubscription",
    "BillingLedger",
    "CapacityChoice",
    "DEFAULT_CATEGORIES",
    "DailyResult",
    "EnergyModel",
    "Invoice",
    "SubscriptionCategory",
    "SubscriptionRequest",
    "SubscriptionScheduler",
    "best_capacity",
    "evaluate_capacities",
    "validate_categories",
]

"""The composable admission-service API.

This package decomposes the paper's DSMS center into a stable facade
over pluggable components:

* :class:`AdmissionService` — the facade: submit/withdraw, the
  per-period auction-bill-transition-execute cycle, checkpointing;
* :class:`ServiceBuilder` — fluent assembly from validated settings;
* :class:`AuctionCoordinator` — candidate collection + load estimation;
* :class:`TransitionManager` — engine add/remove/transition;
* :class:`HookRegistry` — lifecycle middleware (``on_submit``,
  ``pre_auction``, ``post_auction``, ``on_transition``,
  ``on_billing``) so scenarios like lying clients, sybil attacks and
  energy-aware capacity are plug-ins, not forks;
* :class:`PeriodReport` — the versioned per-period business record;
* :class:`ServiceSnapshot` — full checkpoint/restore of a running
  service.

Quickstart::

    from repro.dsms import SyntheticStream
    from repro.service import ServiceBuilder

    service = (ServiceBuilder()
        .with_sources(SyntheticStream("s", rate=5, poisson=False))
        .with_capacity(30.0)
        .with_mechanism("CAT")
        .with_ticks_per_period(10)
        .build())
    service.submit(my_query)
    report = service.run_period()
"""

from repro.service.builder import ServiceBuilder
from repro.service.coordinator import AuctionCoordinator
from repro.service.hooks import FILTER_EVENTS, HOOK_EVENTS, HookRegistry
from repro.service.reports import PeriodReport
from repro.service.service import (
    SNAPSHOT_STATE_VERSION,
    AdmissionService,
    PeriodPreparation,
    PeriodSettlement,
    ServiceSnapshot,
)
from repro.service.transition import TransitionManager

__all__ = [
    "AdmissionService",
    "AuctionCoordinator",
    "FILTER_EVENTS",
    "HOOK_EVENTS",
    "HookRegistry",
    "PeriodPreparation",
    "PeriodReport",
    "PeriodSettlement",
    "SNAPSHOT_STATE_VERSION",
    "ServiceBuilder",
    "ServiceSnapshot",
    "TransitionManager",
]

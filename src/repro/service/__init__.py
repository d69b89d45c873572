"""The composable admission-service API.

This package decomposes the paper's DSMS center into a stable facade
over its components:

* :class:`AdmissionService` — the facade: submit/withdraw, the
  per-period auction-bill-transition-execute cycle, checkpointing;
* :class:`ServiceBuilder` — fluent assembly from validated settings;
* :class:`AuctionCoordinator` — candidate collection + load estimation;
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
from repro.service.reports import PeriodReport
from repro.service.service import (
    SNAPSHOT_STATE_VERSION,
    AdmissionService,
    PeriodPreparation,
    PeriodSettlement,
    ServiceSnapshot,
)

__all__ = [
    "AdmissionService",
    "AuctionCoordinator",
    "PeriodPreparation",
    "PeriodReport",
    "PeriodSettlement",
    "SNAPSHOT_STATE_VERSION",
    "ServiceBuilder",
    "ServiceSnapshot",
]

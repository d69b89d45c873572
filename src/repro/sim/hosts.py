"""Host adapters: one driver, any admission frontend.

The :class:`~repro.sim.driver.SimulationDriver` is generic over *what*
it drives: a single :class:`~repro.service.AdmissionService` or a
sharded :class:`~repro.cluster.FederatedAdmissionService`.  A
:class:`SimulationHost` adapter narrows both to the handful of
operations the event loop needs — submit, route, run one auction
boundary, snapshot — so the driver contains no isinstance ladders and
the whole federation shares the driver's one virtual clock.
"""

from __future__ import annotations

import abc

from repro.dsms.plan import ContinuousQuery
from repro.service.service import AdmissionService
from repro.utils.validation import ValidationError


class SimulationHost(abc.ABC):
    """What the event loop needs from an admission frontend."""

    #: Snapshot tag ("service" / "cluster").
    kind: str = "host"

    @property
    @abc.abstractmethod
    def services(self) -> "tuple[AdmissionService, ...]":
        """The per-shard admission services (one for a bare service)."""

    @property
    @abc.abstractmethod
    def ticks_per_period(self) -> int:
        """Engine ticks per subscription period."""

    @property
    @abc.abstractmethod
    def period(self) -> int:
        """Index of the last completed period."""

    @abc.abstractmethod
    def route(self, query: ContinuousQuery) -> int:
        """The shard that would receive *query* (no side effects)."""

    @abc.abstractmethod
    def submit(self, query: ContinuousQuery,
               shard: "int | None" = None) -> int:
        """Queue *query* for the next auction; returns the shard used.

        ``shard=None`` routes by the host's placement policy; an
        explicit index pins the query to that shard (per-shard event
        streams).
        """

    @abc.abstractmethod
    def run_auction_period(self):
        """Run one period boundary; returns its report.

        A shard with nothing to auction and nothing running idles
        through the period instead of raising.
        """

    @abc.abstractmethod
    def snapshot(self):
        """The host's own checkpoint payload."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"


class ServiceHost(SimulationHost):
    """A single admission service behind the host interface."""

    kind = "service"

    def __init__(self, service: AdmissionService) -> None:
        self.service = service

    @property
    def services(self) -> "tuple[AdmissionService, ...]":
        return (self.service,)

    @property
    def ticks_per_period(self) -> int:
        return self.service.ticks_per_period

    @property
    def period(self) -> int:
        return self.service.period

    def route(self, query: ContinuousQuery) -> int:
        return 0

    def submit(self, query: ContinuousQuery,
               shard: "int | None" = None) -> int:
        if shard not in (None, 0):
            raise ValidationError(
                f"a single service has only shard 0, got shard {shard}")
        self.service.submit(query)
        return 0

    def run_auction_period(self):
        if self.service.pending_ids or self.service.engine.admitted_ids:
            return self.service.run_period()
        return self.service.run_idle_period()

    def snapshot(self):
        return self.service.snapshot()


class ClusterHost(SimulationHost):
    """A sharded federation behind the host interface."""

    kind = "cluster"

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    @property
    def services(self) -> "tuple[AdmissionService, ...]":
        return self.cluster.shards

    @property
    def ticks_per_period(self) -> int:
        return self.cluster.shards[0].ticks_per_period

    @property
    def period(self) -> int:
        return self.cluster.period

    def route(self, query: ContinuousQuery) -> int:
        statuses = self.cluster.shard_statuses()
        index = self.cluster.placement.choose(query, statuses)
        if not 0 <= index < self.cluster.num_shards:
            raise ValidationError(
                f"placement policy {self.cluster.placement.name!r} "
                f"chose shard {index}, but the cluster has shards 0.."
                f"{self.cluster.num_shards - 1}")
        return index

    def submit(self, query: ContinuousQuery,
               shard: "int | None" = None) -> int:
        if shard is None:
            return self.cluster.submit(query)
        if not 0 <= shard < self.cluster.num_shards:
            raise ValidationError(
                f"shard {shard} out of range; the cluster has shards "
                f"0..{self.cluster.num_shards - 1}")
        existing = self.cluster.locate(query.query_id)
        if existing is not None:
            raise ValidationError(
                f"query id {query.query_id!r} already submitted "
                f"(held by shard {existing})")
        self.cluster.shards[shard].submit(query)
        return shard

    def run_auction_period(self):
        # The federation idles empty shards itself (run_idle_period).
        return self.cluster.run_period()

    def snapshot(self):
        return self.cluster.snapshot()


def wrap_host(host) -> SimulationHost:
    """Coerce a service, federation, or host to a :class:`SimulationHost`."""
    if isinstance(host, SimulationHost):
        return host
    if isinstance(host, AdmissionService):
        return ServiceHost(host)
    from repro.cluster.federation import FederatedAdmissionService

    if isinstance(host, FederatedAdmissionService):
        return ClusterHost(host)
    raise ValidationError(
        f"cannot drive {type(host).__name__}; pass an "
        f"AdmissionService, a FederatedAdmissionService, or a "
        f"SimulationHost")


def restore_host(kind: str, payload) -> SimulationHost:
    """Rebuild a host from its snapshot ``(kind, payload)`` pair."""
    if kind == "service":
        return ServiceHost(AdmissionService.restore(payload))
    if kind == "cluster":
        from repro.cluster.federation import FederatedAdmissionService

        return ClusterHost(FederatedAdmissionService.restore(payload))
    raise ValidationError(
        f"unknown simulation host kind {kind!r}; this build restores "
        f"'service' and 'cluster'")

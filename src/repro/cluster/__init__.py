"""Sharded multi-center federation over the admission service.

The scale-out layer: N independent
:class:`~repro.service.AdmissionService` shards behind one facade,
with pluggable submission routing, lockstep cluster periods,
cross-shard rebalancing of rejected load, and whole-cluster
checkpointing.

* :class:`FederatedAdmissionService` — the facade;
* :class:`PlacementPolicy` and its implementations
  (:class:`ConsistentHashPlacement`, :class:`LeastLoadedPlacement`,
  :class:`RoundRobinPlacement`) — submission routing, spec-string
  addressable via :func:`resolve_placement`;
* :class:`Rebalancer` — post-auction migration of rejected queries to
  shards with spare capacity;
* :class:`ClusterReport` / :class:`Migration` — the per-period
  aggregate record (versioned JSON schema in :mod:`repro.io`);
* :class:`ClusterSnapshot` — full checkpoint/restore of a federation.

Quickstart::

    from repro.cluster import FederatedAdmissionService
    from repro.dsms import SyntheticStream

    cluster = FederatedAdmissionService.build(
        num_shards=4,
        sources=[SyntheticStream("s", rate=5, poisson=False)],
        capacity=30.0,
        mechanism="CAT",
        ticks_per_period=10,
        placement="consistent-hash:seed=7",
    )
    cluster.submit(my_query)              # routed by client id
    report = cluster.run_period()         # one auction per shard
    print(report.total_revenue, report.migrated)
"""

from repro.cluster.federation import (
    CLUSTER_STATE_VERSION,
    ClusterSnapshot,
    FederatedAdmissionService,
)
from repro.cluster.placement import (
    ConsistentHashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    ShardStatus,
    register_placement,
    registered_placements,
    resolve_placement,
)
from repro.cluster.rebalance import Rebalancer
from repro.cluster.reports import ClusterReport, Migration

__all__ = [
    "CLUSTER_STATE_VERSION",
    "ClusterReport",
    "ClusterSnapshot",
    "ConsistentHashPlacement",
    "FederatedAdmissionService",
    "LeastLoadedPlacement",
    "Migration",
    "PlacementPolicy",
    "Rebalancer",
    "RoundRobinPlacement",
    "ShardStatus",
    "register_placement",
    "registered_placements",
    "resolve_placement",
]

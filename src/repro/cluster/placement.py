"""Placement policies: routing submissions to federation shards.

A :class:`~repro.cluster.FederatedAdmissionService` asks its
:class:`PlacementPolicy` which shard should receive each submitted
query.  Policies see a lightweight :class:`ShardStatus` per shard (the
queue depth and admitted count, never engine internals) and return a
shard index.  Three implementations ship:

* :class:`ConsistentHashPlacement` — a seeded hash ring keyed on the
  *client* (query owner), so one client's queries co-locate and a
  shard-count change moves only ``1/N`` of the keyspace;
* :class:`LeastLoadedPlacement` — the shard with the fewest queries
  (pending + admitted), a classic join-shortest-queue router;
* :class:`RoundRobinPlacement` — a rotating cursor, the baseline.

Policies are addressable by *spec string* exactly like mechanisms
(``"consistent-hash:seed=7"``), via :func:`resolve_placement`, and
carry only plain picklable state so they ride inside cluster
checkpoints.
"""

from __future__ import annotations

import abc
import bisect
import hashlib
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from repro.dsms.plan import ContinuousQuery
from repro.utils.registry import RegistrySpec, SpecRegistry
from repro.utils.validation import ValidationError, require


class ShardStatus(NamedTuple):
    """What a placement policy may know about one shard.

    A named tuple, because the federation builds one per shard on
    every routed submit.
    """

    index: int
    capacity: float
    pending_count: int
    admitted_count: int

    @property
    def query_count(self) -> int:
        """Queries the shard is responsible for right now."""
        return self.pending_count + self.admitted_count


class PlacementPolicy(abc.ABC):
    """Chooses the shard that receives a submitted query.

    Implementations must be deterministic functions of their own state
    and the arguments — the cluster invariant suite checks that two
    identically-seeded clusters place identical workloads identically.
    Any evolving state (e.g. a round-robin cursor) must live in plain
    picklable attributes so cluster checkpoints capture it.
    """

    #: Registry/spec name of the policy.
    name: str = "placement"

    @abc.abstractmethod
    def choose(
        self, query: ContinuousQuery, shards: Sequence[ShardStatus]
    ) -> int:
        """Return the index of the shard that should take *query*."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class RoundRobinPlacement(PlacementPolicy):
    """Rotate through the shards in index order.

    The baseline policy: ignores load and client identity, spreads
    submission *counts* perfectly evenly.  The cursor is part of the
    cluster checkpoint, so a resumed cluster keeps rotating from where
    it stopped.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self, query: ContinuousQuery, shards: Sequence[ShardStatus]
    ) -> int:
        index = self._cursor % len(shards)
        self._cursor += 1
        return shards[index].index


class LeastLoadedPlacement(PlacementPolicy):
    """Send the query to the shard holding the fewest queries.

    Load is proxied by queue depth — pending submissions plus admitted
    queries — which the router can observe without touching engine
    internals.  Ties break toward the lowest shard index, keeping the
    choice deterministic.
    """

    name = "least-loaded"

    def choose(
        self, query: ContinuousQuery, shards: Sequence[ShardStatus]
    ) -> int:
        best = min(shards, key=lambda s: (s.query_count, s.index))
        return best.index


def _hash64(text: str, seed: int) -> int:
    """Stable 64-bit hash (independent of ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(
        f"{seed}:{text}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashPlacement(PlacementPolicy):
    """A seeded hash ring keyed on the client id.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring;
    a query lands on the shard owning the first point clockwise of its
    client's hash (the query ``owner``, falling back to the query id).
    Consequences:

    * all of one client's queries land on the same shard (their plans
      can share operators there);
    * placement is a pure function of ``(seed, client, shard count)`` —
      no mutable state, identical across runs and after restore;
    * growing the cluster from N to N+1 shards remaps only ``1/(N+1)``
      of the clients.
    """

    name = "consistent-hash"

    def __init__(self, seed: int = 0, replicas: int = 64) -> None:
        require(int(replicas) > 0, "replicas must be positive")
        self.seed = int(seed)
        self.replicas = int(replicas)
        self._rings: dict[int, tuple[list[int], list[int]]] = {}

    def _ring(self, num_shards: int) -> tuple[list[int], list[int]]:
        ring = self._rings.get(num_shards)
        if ring is None:
            points = sorted(
                (_hash64(f"shard:{shard}:{replica}", self.seed), shard)
                for shard in range(num_shards)
                for replica in range(self.replicas)
            )
            ring = ([point for point, _ in points],
                    [shard for _, shard in points])
            self._rings[num_shards] = ring
        return ring

    def client_key(self, query: ContinuousQuery) -> str:
        """The routing key: the owning client, or the query itself."""
        return query.owner if query.owner is not None else query.query_id

    def choose(
        self, query: ContinuousQuery, shards: Sequence[ShardStatus]
    ) -> int:
        points, owners = self._ring(len(shards))
        key = _hash64(f"client:{self.client_key(query)}", self.seed)
        position = bisect.bisect_right(points, key) % len(points)
        return shards[owners[position]].index


#: The placement registry (shared machinery: utils.registry).
_REGISTRY = SpecRegistry("placement policy", param_noun="placement")


def register_placement(
    name: str, factory: Callable[..., PlacementPolicy]
) -> None:
    """Register a placement *factory* under *name* (case-insensitive)."""
    _REGISTRY.register(name, factory)


def registered_placements() -> Mapping[str, Callable[..., PlacementPolicy]]:
    """Read-only view of the placement registry (name → factory)."""
    return _REGISTRY.as_mapping()


register_placement("round-robin", RoundRobinPlacement)
register_placement("least-loaded", LeastLoadedPlacement)
register_placement("consistent-hash", ConsistentHashPlacement)


@dataclass(frozen=True)
class _PlacementSpec(RegistrySpec):
    """A placement-policy name plus declared, validated parameters."""

    _registry = _REGISTRY
    _what = "placement spec"


def resolve_placement(
    placement: "PlacementPolicy | str",
) -> PlacementPolicy:
    """Coerce *placement* to a live policy.

    Accepts a :class:`PlacementPolicy` instance or a spec string in the
    same grammar as mechanism specs: ``"round-robin"``,
    ``"consistent-hash:seed=7,replicas=32"``.
    """
    if isinstance(placement, PlacementPolicy):
        return placement
    if isinstance(placement, str):
        try:
            return _PlacementSpec.parse(placement).create()
        except KeyError as exc:
            raise ValidationError(exc.args[0]) from None
    raise ValidationError(
        f"cannot resolve a placement policy from {placement!r}; pass a "
        f"PlacementPolicy or a spec string like 'round-robin' or "
        f"'consistent-hash:seed=7'")

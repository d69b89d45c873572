"""Mechanism base class, registry, and declarative mechanism specs.

Every admission-control mechanism maps an :class:`AuctionInstance` to an
:class:`AuctionOutcome` (winners + payments).  Mechanisms read only the
public part of a query — operators and bid — never the private
valuation; the base class enforces that by handing subclasses a
*sealed* view where ``valuation`` is replaced by the bid.

A module-level registry maps mechanism names (``"CAF"``, ``"CAT+"``,
``"Two-price"``, ...) to factories so experiments can be configured by
name.  :class:`MechanismSpec` layers a declarative, validated
configuration on top of the registry: a name plus typed parameters,
parseable from compact strings like ``"two-price:seed=7"`` — the
currency of CLIs, config files and the :mod:`repro.service` layer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping

from repro.core.model import AuctionInstance, Query
from repro.core.result import AuctionOutcome
from repro.core.selection import SelectionPath, resolve_selection
from repro.utils.registry import RegistrySpec, SpecRegistry
from repro.utils.validation import ValidationError


class Mechanism(abc.ABC):
    """Base class for admission-control auction mechanisms.

    Subclasses implement :meth:`_select`, returning the winner→payment
    mapping plus a diagnostics dictionary.  :meth:`run` wraps it with
    capacity validation and outcome construction.
    """

    #: Human-readable mechanism name (matches the paper's).
    name: str = "mechanism"

    #: Whether the paper proves the mechanism bid-strategyproof.
    bid_strategyproof: bool = True

    #: Whether the paper proves the mechanism sybil-immune.
    sybil_immune: bool = False

    #: Whether the mechanism carries a provable profit guarantee.
    profit_guarantee: bool = False

    #: Whether the reference ``_select`` is one of the paper's
    #: super-linear algorithms (Table IV: CAR's admission rounds, the
    #: skip-over mechanisms' per-winner movement windows) — where the
    #: array kernel wins even after paying for a cold index.
    superlinear_reference: bool = False

    #: The selection path this mechanism is pinned to; ``None`` (the
    #: default) lets :meth:`run` pick per instance.  Set with
    #: :meth:`use_selection`; a ``run(..., selection=...)`` argument
    #: overrides it for one call.
    selection: "SelectionPath | str | None" = None

    def use_selection(self, selection: "SelectionPath | str") -> "Mechanism":
        """Pin this mechanism to a selection path; returns ``self``.

        Accepts what :func:`repro.core.selection.resolve_selection`
        does — ``"reference"``, ``"fast"``, or a live path.  The
        resolved path is stored, so a bad name fails here (with the
        two accepted ones) rather than mid-auction.
        """
        self.selection = resolve_selection(selection)
        return self

    def _selection_path(
        self, override: "SelectionPath | str | None",
        instance: AuctionInstance,
    ) -> SelectionPath:
        """The override, else the pinned path, else the observed one.

        With nothing named, the kernels run where they win: on an
        instance that already holds its columns (the cached index or
        the columnar row hook ``InstanceIndex.of`` reads — the index
        is then free) and on the super-linear references; the
        O(n log n) references beat a kernel that must first compile a
        cold object instance.
        """
        selection = override if override is not None else self.selection
        if selection is None:
            selection = (
                "fast" if self.superlinear_reference
                or getattr(instance, "_fastpath_cache", None) is not None
                or hasattr(instance, "_index_columns")
                else "reference")
        return resolve_selection(selection)

    def run(
        self,
        instance: AuctionInstance,
        *,
        selection: "SelectionPath | str | None" = None,
    ) -> AuctionOutcome:
        """Run the auction on *instance* and return the outcome.

        The outcome is validated against server capacity; a mechanism
        that over-admits is a bug, not a modelling choice.  *selection*
        names the implementation for this call (over a pinned one);
        every path produces identical outcomes (the differential suite
        pins it), so left alone the mechanism picks the faster one
        from what it observes.
        """
        sealed = self._seal(instance)
        path = self._selection_path(selection, sealed)
        payments, details = path.select(self, sealed)
        outcome = AuctionOutcome(
            instance=instance,
            payments=payments,
            mechanism=self.name,
            details=details,
        )
        outcome.validate_capacity()
        return outcome

    def run_many(
        self,
        instances: Iterable[AuctionInstance],
        *,
        selection: "SelectionPath | str | None" = None,
    ) -> list[AuctionOutcome]:
        """Run the auction on every instance, in order.

        The batch entry point for high-throughput sweeps: one mechanism
        object, many instances.  Stateful mechanisms (e.g. Two-price's
        random partition draws) consume their randomness sequentially,
        so a batch is reproducible given the seed and the input order.
        """
        return [self.run(instance, selection=selection)
                for instance in instances]

    @staticmethod
    def _seal(instance: AuctionInstance) -> AuctionInstance:
        """Hide private valuations from the mechanism.

        Returns a copy of *instance* where each query's valuation equals
        its bid.  Mechanisms therefore cannot accidentally peek at the
        truth, which keeps manipulation experiments honest: what a user
        *submits* is all the system ever sees.

        In the common truthful case — no query's valuation diverges
        from its bid — the instance already *is* its sealed view, and
        is returned unchanged: no per-query copies, no rebuilt index
        maps, and any cached fast-path index stays warm.

        Lazy columnar instances (repro.sim.columnar) assert the
        truthful case up front via ``_all_truthful`` so sealing does
        not force their query objects into existence.
        """
        if getattr(instance, "_all_truthful", False):
            return instance
        if all(q.valuation is None or q.valuation == q.bid
               for q in instance.queries):
            return instance
        queries = tuple(
            q if q.valuation is None or q.valuation == q.bid else Query(
                query_id=q.query_id,
                operator_ids=q.operator_ids,
                bid=q.bid,
                valuation=q.bid,
                owner=q.owner,
            )
            for q in instance.queries
        )
        return AuctionInstance._from_validated(instance, queries)

    @abc.abstractmethod
    def _select(
        self, instance: AuctionInstance
    ) -> tuple[dict[str, float], dict[str, object]]:
        """Choose winners and payments; return (payments, details)."""

    def properties(self) -> dict[str, bool]:
        """The Table I property row for this mechanism."""
        return {
            "strategyproof": self.bid_strategyproof,
            "sybil_immune": self.sybil_immune,
            "profit_guarantee": self.profit_guarantee,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


#: The mechanism registry (shared machinery: utils.registry).
_REGISTRY = SpecRegistry("mechanism")


def register_mechanism(name: str, factory: Callable[[], Mechanism]) -> None:
    """Register a mechanism *factory* under *name* (case-insensitive)."""
    _REGISTRY.register(name, factory)


def mechanism_params(name: str) -> "tuple[str, ...] | None":
    """Parameter names the factory of *name* accepts.

    Returns ``None`` when the factory's signature cannot be inspected
    or it takes ``**kwargs`` — meaning "anything goes".
    """
    return _REGISTRY.params(name)


def make_mechanism(name: str, **kwargs: object) -> Mechanism:
    """Instantiate a registered mechanism by name.

    ``kwargs`` are forwarded to the factory, letting callers configure
    e.g. the Two-price seed: ``make_mechanism("two-price", seed=7)``.
    They are validated against the factory's signature first, so a typo
    fails with the accepted parameter names instead of an opaque
    ``TypeError`` from deep inside the constructor.
    """
    return _REGISTRY.create(name, **kwargs)


def registered_mechanisms() -> Mapping[str, Callable[[], Mechanism]]:
    """Read-only view of the registry (name → factory)."""
    return _REGISTRY.as_mapping()


@dataclass(frozen=True)
class MechanismSpec(RegistrySpec):
    """A mechanism name plus declared, validated parameters.

    The declarative counterpart of :func:`make_mechanism`: a spec can
    be built programmatically, parsed from a compact string, stored in
    a config, and turned into a live :class:`Mechanism` with
    :meth:`create`.  Parameters are validated against the registered
    factory's signature, so invalid configurations fail at *spec* time
    with the accepted parameter names.

    >>> MechanismSpec.parse("two-price:seed=7,partition_mode=hash")
    MechanismSpec(name='two-price', params={'seed': 7, 'partition_mode': 'hash'})
    """

    _registry = _REGISTRY
    _what = "mechanism spec"

    def accepted_params(self) -> "tuple[str, ...] | None":
        """Parameters the underlying factory accepts (None = open)."""
        return mechanism_params(self.name)


def resolve_mechanism(
    mechanism: "Mechanism | MechanismSpec | str",
) -> Mechanism:
    """Coerce a mechanism given in any accepted form to an instance.

    Accepts a live :class:`Mechanism`, a :class:`MechanismSpec`, or a
    spec string like ``"CAT"`` / ``"two-price:seed=7"``.
    """
    if isinstance(mechanism, Mechanism):
        return mechanism
    if isinstance(mechanism, MechanismSpec):
        return mechanism.create()
    if isinstance(mechanism, str):
        return MechanismSpec.parse(mechanism).create()
    raise ValidationError(
        f"cannot resolve a mechanism from {mechanism!r}; pass a "
        f"Mechanism, a MechanismSpec, or a spec string like 'CAT' or "
        f"'two-price:seed=7'")

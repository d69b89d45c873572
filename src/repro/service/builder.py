"""Fluent assembly of an admission service.

:class:`ServiceBuilder` combines settings (capacity, mechanism spec,
period length, selection path) with the stream sources.  Everything is
validated at ``build()``.

>>> service = (ServiceBuilder()
...     .with_sources(SyntheticStream("s", rate=5))
...     .with_capacity(30.0)
...     .with_mechanism("two-price:seed=7")
...     .with_ticks_per_period(10)
...     .build())
"""

from __future__ import annotations

import copy

from repro.core.mechanism import Mechanism, MechanismSpec
from repro.core.selection import SelectionPath
from repro.dsms.streams import StreamSource
from repro.service.service import AdmissionService
from repro.utils.validation import ValidationError


class ServiceBuilder:
    """Fluent assembly of an :class:`AdmissionService`.

    Every ``with_*`` method returns the builder, so a service reads as
    one expression.  ``build()`` may be called repeatedly; each call
    produces an independent service: the stream sources are deep-copied
    so one service's ticks never advance another's source RNG state.
    """

    def __init__(self) -> None:
        self._sources: list[StreamSource] = []
        self._capacity: "float | None" = None
        self._mechanism: "Mechanism | MechanismSpec | str | None" = None
        self._ticks_per_period: "int | None" = None
        self._selection: "SelectionPath | str | None" = None

    def with_sources(self, *sources: StreamSource) -> "ServiceBuilder":
        """Add the given stream sources."""
        self._sources.extend(sources)
        return self

    def with_capacity(self, capacity: float) -> "ServiceBuilder":
        """Set the per-tick server capacity (the auction capacity)."""
        self._capacity = float(capacity)
        return self

    def with_mechanism(
        self, mechanism: "Mechanism | MechanismSpec | str"
    ) -> "ServiceBuilder":
        """Set the admission mechanism (instance, spec, or string)."""
        self._mechanism = mechanism
        return self

    def with_ticks_per_period(self, ticks: int) -> "ServiceBuilder":
        """Set the subscription-period length in engine ticks."""
        self._ticks_per_period = int(ticks)
        return self

    def with_selection(
        self, selection: "SelectionPath | str"
    ) -> "ServiceBuilder":
        """Pin the mechanism's selection path (``"reference"``,
        ``"fast"``, or a live path) instead of letting it pick."""
        self._selection = selection
        return self

    def build(self) -> AdmissionService:
        """Assemble the service; raises on missing required settings."""
        if not self._sources:
            raise ValidationError(
                "cannot build a service without stream sources; call "
                ".with_sources(...)")
        if self._capacity is None:
            raise ValidationError(
                "cannot build a service without a capacity; call "
                ".with_capacity(...)")
        if self._mechanism is None:
            raise ValidationError(
                "cannot build a service without a mechanism; call "
                ".with_mechanism(...)")
        service = AdmissionService(
            sources=copy.deepcopy(tuple(self._sources)),
            capacity=self._capacity,
            mechanism=self._mechanism,
            ticks_per_period=(50 if self._ticks_per_period is None
                              else self._ticks_per_period),
        )
        if self._selection is not None:
            # Pinned on the mechanism, so it rides along through
            # federations and checkpoints.
            service.mechanism.use_selection(self._selection)
        return service

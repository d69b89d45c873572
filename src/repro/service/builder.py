"""Fluent assembly of an admission service.

:class:`ServiceBuilder` combines settings (capacity, mechanism spec,
period length) with the live parts: stream sources, a pre-built
mechanism, hooks, a ledger.  Everything is validated at ``build()``.

>>> service = (ServiceBuilder()
...     .with_sources(SyntheticStream("s", rate=5))
...     .with_capacity(30.0)
...     .with_mechanism("two-price:seed=7")
...     .with_ticks_per_period(10)
...     .build())
"""

from __future__ import annotations

import copy
from collections.abc import Callable

from repro.core.mechanism import Mechanism, MechanismSpec
from repro.core.selection import SelectionPath
from repro.dsms.scheduler import PolicySpec, SchedulingPolicy
from repro.dsms.streams import StreamSource
from repro.service.hooks import HookRegistry
from repro.service.service import AdmissionService
from repro.utils.validation import ValidationError


class ServiceBuilder:
    """Fluent assembly of an :class:`AdmissionService`.

    Every ``with_*``/``on_*`` method returns the builder, so a service
    reads as one expression.  ``build()`` may be called repeatedly;
    each call produces an independent service: hooks are copied into a
    fresh registry, and the stream sources are deep-copied so one
    service's ticks never advance another's source RNG state.
    """

    def __init__(self) -> None:
        self._sources: list[StreamSource] = []
        self._capacity: "float | None" = None
        self._mechanism: "Mechanism | MechanismSpec | str | None" = None
        self._ticks_per_period: "int | None" = None
        self._hold_ticks: "int | None" = None
        self._selection: "SelectionPath | str | None" = None
        self._scheduler: "SchedulingPolicy | PolicySpec | str | None" = None
        self._arrivals: list[object] = []
        self._subscriptions: "object | None" = None
        self._ledger: "object | None" = None
        self._hooks = HookRegistry()

    # ------------------------------------------------------------------
    # Settings
    # ------------------------------------------------------------------

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

    def with_hold_ticks(self, hold_ticks: int) -> "ServiceBuilder":
        """Set how many ticks of arrivals transitions hold."""
        self._hold_ticks = int(hold_ticks)
        return self

    def with_selection(
        self, selection: "SelectionPath | str"
    ) -> "ServiceBuilder":
        """Pin the mechanism's selection path (``"reference"``,
        ``"fast"``, or a live path) instead of letting it pick."""
        self._selection = selection
        return self

    def with_scheduler(
        self, scheduler: "SchedulingPolicy | PolicySpec | str"
    ) -> "ServiceBuilder":
        """Set the simulation probe's scheduling policy.

        Spec-addressable like everything else: ``"fifo"``,
        ``"round-robin"``, ``"longest-queue-first"``,
        ``"cheapest-first"`` (or a live
        :class:`~repro.dsms.scheduler.SchedulingPolicy`).  Consumed by
        :meth:`build_simulation`, which attaches a per-shard
        :class:`~repro.sim.LatencyProbe` running the admitted plans on
        a bounded :class:`~repro.dsms.scheduler.ScheduledEngine` work
        budget.
        """
        self._scheduler = scheduler
        return self

    def with_arrivals(self, *arrivals: object) -> "ServiceBuilder":
        """Add open-system arrival processes (specs or instances).

        Accepts spec strings (``"poisson:rate=40"``, ``"burst"``,
        ``"trace:path=..."``), :class:`~repro.sim.ArrivalSpec` objects,
        or live :class:`~repro.sim.ArrivalProcess` instances.  Setting
        arrivals makes this an open-system build: finish with
        :meth:`build_simulation` instead of :meth:`build`.
        """
        self._arrivals.extend(arrivals)
        return self

    def with_subscriptions(
        self, subscriptions: "object | bool" = True
    ) -> "ServiceBuilder":
        """Enable Section VII subscription lifecycles.

        Pass ``True`` for the paper's default day/week/month mix, or a
        :class:`~repro.sim.SubscriptionOptions` for custom categories,
        renewal policy and per-category mechanisms.  Finish with
        :meth:`build_simulation`.
        """
        self._subscriptions = subscriptions
        return self

    def with_ledger(self, ledger: object) -> "ServiceBuilder":
        """Use a pre-existing billing ledger (e.g. resumed accounts)."""
        self._ledger = ledger
        return self

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def with_hook(self, event: str, hook: Callable) -> "ServiceBuilder":
        """Attach *hook* to the lifecycle *event*."""
        self._hooks.add(event, hook)
        return self

    def on_submit(self, hook: Callable) -> "ServiceBuilder":
        """Sugar for ``with_hook("on_submit", hook)``."""
        return self.with_hook("on_submit", hook)

    def pre_auction(self, hook: Callable) -> "ServiceBuilder":
        """Sugar for ``with_hook("pre_auction", hook)``."""
        return self.with_hook("pre_auction", hook)

    def post_auction(self, hook: Callable) -> "ServiceBuilder":
        """Sugar for ``with_hook("post_auction", hook)``."""
        return self.with_hook("post_auction", hook)

    def on_transition(self, hook: Callable) -> "ServiceBuilder":
        """Sugar for ``with_hook("on_transition", hook)``."""
        return self.with_hook("on_transition", hook)

    def on_billing(self, hook: Callable) -> "ServiceBuilder":
        """Sugar for ``with_hook("on_billing", hook)``."""
        return self.with_hook("on_billing", hook)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def build(self) -> AdmissionService:
        """Assemble the service; raises on missing required settings.

        A builder holding open-system settings (arrivals or
        subscriptions) must finish with :meth:`build_simulation` —
        those settings live on the simulation driver, and silently
        dropping them here would be a trap.  A configured scheduler is
        different: it is only a *probe hint* for
        :meth:`build_simulation` and never changes service semantics,
        so a builder carrying one still builds a plain service.
        """
        if self._arrivals or self._subscriptions:
            raise ValidationError(
                "this builder has open-system settings (with_arrivals/"
                "with_subscriptions); call .build_simulation() instead "
                "of .build()")
        return self._assemble()

    def build_simulation(
        self,
        *,
        probe: "object | None" = None,
        record: bool = False,
    ):
        """Assemble the service *and* its open-system driver.

        Returns a :class:`~repro.sim.SimulationDriver` wrapping a
        freshly built service, carrying the builder's arrival
        processes and subscription options.  The latency probe is
        attached when *probe* is truthy or a scheduler was configured
        (:meth:`with_scheduler`);
        ``record=True`` records the run's arrival trace for replay.
        """
        from repro.sim.driver import SimulationDriver

        if probe is None and self._scheduler is not None:
            probe = self._scheduler
        elif probe is True:
            probe = (self._scheduler if self._scheduler is not None
                     else True)
        return SimulationDriver(
            self._assemble(),
            arrivals=tuple(self._arrivals),
            subscriptions=self._subscriptions,
            probe=probe,
            record=record,
        )

    def _assemble(self) -> AdmissionService:
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
        hooks = HookRegistry()
        hooks.extend(self._hooks)
        service = AdmissionService(
            sources=copy.deepcopy(tuple(self._sources)),
            capacity=self._capacity,
            mechanism=self._mechanism,
            ticks_per_period=(50 if self._ticks_per_period is None
                              else self._ticks_per_period),
            hold_ticks=(1 if self._hold_ticks is None
                        else self._hold_ticks),
            ledger=self._ledger,
            hooks=hooks,
        )
        if self._selection is not None:
            # Pinned on the mechanism, so it rides along through
            # federations and checkpoints.
            service.mechanism.use_selection(self._selection)
        return service

"""Lifecycle hooks: the service's plug-in seam.

Scenarios that would otherwise require forking the service — lying
clients that inflate bids, sybil-style bid manipulation across a user's
submitted queries, energy-aware capacity adjustment, audit logging —
become functions attached to one of five well-defined points in the
period cycle.  A ``pre_auction`` hook may rewrite bids, owners and
capacity freely, but every query id the auction can admit must have a
plan submitted through ``service.submit()`` — winners without plans
are rejected with a :class:`ValidationError` before billing.

The events:

``on_submit(service, query)``
    Fired when a client submits, *before* validation; raise to veto.
``pre_auction(service, instance)``
    May return a replacement :class:`~repro.core.model.AuctionInstance`
    (return ``None`` to keep the current one).  This is where strategic
    bid manipulation or capacity adjustment plugs in.
``post_auction(service, outcome)``
    May return a replacement :class:`~repro.core.result.AuctionOutcome`.
``on_transition(service, added_ids, removed_ids)``
    Fired after the engine transitioned to the new admitted set.
``on_billing(service, period, revenue, outcome)``
    Fired after the ledger invoiced the period's winners.

Hooks run in registration order.  Filtering events (``pre_auction``,
``post_auction``) chain: each hook sees the previous hook's result.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.utils.validation import ValidationError

#: The recognized lifecycle events, in period-cycle order.
HOOK_EVENTS = (
    "on_submit",
    "pre_auction",
    "post_auction",
    "on_transition",
    "on_billing",
)

#: Events whose hooks may return a replacement value.
FILTER_EVENTS = ("pre_auction", "post_auction")


class HookRegistry:
    """An ordered set of hooks per lifecycle event."""

    def __init__(self) -> None:
        self._hooks: dict[str, list[Callable]] = {
            event: [] for event in HOOK_EVENTS}

    @staticmethod
    def _check_event(event: str) -> None:
        if event not in HOOK_EVENTS:
            raise ValidationError(
                f"unknown hook event {event!r}; known events: "
                f"{', '.join(HOOK_EVENTS)}")

    def add(self, event: str, hook: Callable) -> Callable:
        """Attach *hook* to *event*; returns the hook (decorator-able)."""
        self._check_event(event)
        if not callable(hook):
            raise ValidationError(
                f"hook for {event!r} must be callable, got {hook!r}")
        self._hooks[event].append(hook)
        return hook

    def remove(self, event: str, hook: Callable) -> None:
        """Detach a previously added hook."""
        self._check_event(event)
        self._hooks[event].remove(hook)

    def hooks(self, event: str) -> tuple[Callable, ...]:
        """The hooks attached to *event*, in firing order."""
        self._check_event(event)
        return tuple(self._hooks[event])

    def extend(self, other: "HookRegistry") -> None:
        """Append every hook of *other*, preserving per-event order."""
        for event in HOOK_EVENTS:
            self._hooks[event].extend(other.hooks(event))

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def notify(self, event: str, *args: object) -> None:
        """Fire an observer event; return values are ignored."""
        for hook in self.hooks(event):
            hook(*args)

    def filter(self, event: str, service: object, value: object) -> object:
        """Fire a filtering event, chaining replacement values.

        Each hook is called as ``hook(service, value)``; a non-``None``
        return becomes the value the next hook (and the service) sees.
        """
        if event not in FILTER_EVENTS:
            raise ValidationError(
                f"{event!r} is not a filtering event; filtering events: "
                f"{', '.join(FILTER_EVENTS)}")
        for hook in self.hooks(event):
            replacement = hook(service, value)
            if replacement is not None:
                value = replacement
        return value

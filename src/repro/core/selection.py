"""Winner-selection paths for the auction mechanisms.

The mechanisms own their *semantics*; a :class:`SelectionPath` is the
*implementation* that computes them:

* :class:`ReferenceSelection` — each mechanism's pure-Python
  ``_select``, the executable form of the paper's algorithms;
* :class:`FastSelection` — the :mod:`repro.core.fastpath` array
  kernels, bitwise identical to the reference (pinned by the
  differential suite), falling back to ``_select`` for mechanisms
  without a fast kernel (or raising, with ``strict=True``).

Which of the two runs is :meth:`repro.core.Mechanism.run`'s decision,
taken from what it observes about the mechanism and the instance.
Code that needs one in particular — the oracle side of a differential
test, an A/B timing — names it: ``"reference"``, ``"fast"``, or a live
path object.  A path is stateless, so one instance may serve any
number of mechanisms concurrently.
"""

from __future__ import annotations

import abc

from repro.utils.validation import ValidationError


class SelectionPath(abc.ABC):
    """Computes a mechanism's ``(payments, details)`` for an instance.

    Implementations must reproduce the mechanism's reference semantics
    *exactly* — same winners, same payments, same details ordering; a
    selection path trades representation, never outcomes.
    """

    #: The name the path is addressed by.
    name: str = "selection"

    @abc.abstractmethod
    def select(
        self, mechanism, instance
    ) -> tuple[dict[str, float], dict[str, object]]:
        """Run *mechanism* on the (sealed) *instance*."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ReferenceSelection(SelectionPath):
    """The mechanisms' own pure-Python ``_select`` implementations."""

    name = "reference"

    def select(self, mechanism, instance):
        return mechanism._select(instance)


class FastSelection(SelectionPath):
    """The :mod:`repro.core.fastpath` array kernels.

    Mechanisms without a fast kernel (custom subclasses, the exact and
    benchmark mechanisms) fall back to their reference ``_select``;
    with ``strict=True`` the fallback raises instead — the mode the
    differential tests run in, so a silently missing kernel cannot
    masquerade as a passing equivalence.
    """

    name = "fast"

    def __init__(self, strict: bool = False) -> None:
        self._strict = bool(strict)

    def select(self, mechanism, instance):
        from repro.core.fastpath import fast_select

        result = fast_select(mechanism, instance)
        if result is not None:
            return result
        if self._strict:
            raise ValidationError(
                f"mechanism {mechanism.name!r} has no fast selection "
                f"kernel; run it with selection='reference' (or a "
                f"non-strict FastSelection to allow the fallback)")
        return mechanism._select(instance)


#: The two paths by name (both stateless, so one object each).
_PATHS = {"reference": ReferenceSelection(), "fast": FastSelection()}


def resolve_selection(selection: "SelectionPath | str") -> SelectionPath:
    """Coerce *selection* to a live path.

    Accepts a live :class:`SelectionPath` or one of the two names,
    ``"reference"`` / ``"fast"``.
    """
    if isinstance(selection, SelectionPath):
        return selection
    if isinstance(selection, str):
        try:
            return _PATHS[selection.lower()]
        except KeyError:
            raise KeyError(
                f"unknown selection path {selection!r}; "
                f"known: {', '.join(sorted(_PATHS))}") from None
    raise ValidationError(
        f"cannot resolve a selection path from {selection!r}; pass a "
        f"SelectionPath or one of the names 'reference' / 'fast'")

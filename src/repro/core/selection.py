"""Pluggable winner-selection paths for the auction mechanisms.

The mechanisms own their *semantics*; a :class:`SelectionPath` chooses
the *implementation* that computes them:

* :class:`ReferenceSelection` — each mechanism's pure-Python
  ``_select``, the executable form of the paper's algorithms;
* :class:`FastSelection` — the :mod:`repro.core.fastpath` array
  kernels, bitwise identical to the reference (pinned by the
  differential suite), falling back to ``_select`` for mechanisms
  without a fast kernel (or raising, with ``strict=true``).

Selection paths are *spec-string addressable* through a registry
mirroring :class:`repro.core.mechanism.MechanismSpec`:
``"reference"``, ``"fast"``, ``"fast:strict=true"`` — the currency of
:class:`~repro.service.builder.ServiceConfig`, the cluster federation
and the CLI's ``--selection`` flag.  A path is stateless, so one
instance may serve any number of mechanisms concurrently.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Mapping

from repro.utils.registry import RegistrySpec, SpecRegistry
from repro.utils.validation import ValidationError


class SelectionPath(abc.ABC):
    """Computes a mechanism's ``(payments, details)`` for an instance.

    Implementations must reproduce the mechanism's reference semantics
    *exactly* — same winners, same payments, same details ordering; a
    selection path trades representation, never outcomes.
    """

    #: Registry name of the selection path.
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
                f"kernel; run it with selection='reference' (or drop "
                f"strict=true to allow the fallback)")
        return mechanism._select(instance)


# ----------------------------------------------------------------------
# Registry and specs (mirrors repro.core.mechanism)
# ----------------------------------------------------------------------

#: The selection-path registry (shared machinery: utils.registry).
_REGISTRY = SpecRegistry("selection path", param_noun="selection path")


def register_selection(
    name: str, factory: Callable[..., SelectionPath]
) -> None:
    """Register a selection-path *factory* (case-insensitive name)."""
    _REGISTRY.register(name, factory)


def selection_params(name: str) -> "tuple[str, ...] | None":
    """Parameter names the factory of *name* accepts (None = open)."""
    return _REGISTRY.params(name)


def make_selection(name: str, **kwargs: object) -> SelectionPath:
    """Instantiate a registered selection path, validating kwargs."""
    return _REGISTRY.create(name, **kwargs)


def registered_selections() -> Mapping[str, Callable[..., SelectionPath]]:
    """Read-only view of the registry (name → factory)."""
    return _REGISTRY.as_mapping()


@dataclass(frozen=True)
class SelectionSpec(RegistrySpec):
    """A selection-path name plus declared, validated parameters.

    >>> SelectionSpec.parse("fast:strict=true")
    SelectionSpec(name='fast', params={'strict': True})
    """

    _registry = _REGISTRY
    _what = "selection spec"


#: The default path every mechanism starts on.
_DEFAULT = ReferenceSelection()


def default_selection() -> SelectionPath:
    """The process-wide default selection path (``"reference"``)."""
    return _DEFAULT


def resolve_selection(
    selection: "SelectionPath | SelectionSpec | str",
) -> SelectionPath:
    """Coerce any accepted selection form to a live instance.

    Accepts a live :class:`SelectionPath`, a :class:`SelectionSpec`,
    or a spec string like ``"reference"`` / ``"fast:strict=true"``.
    """
    if isinstance(selection, SelectionPath):
        return selection
    if isinstance(selection, SelectionSpec):
        return selection.create()
    if isinstance(selection, str):
        return SelectionSpec.parse(selection).create()
    raise ValidationError(
        f"cannot resolve a selection path from {selection!r}; pass a "
        f"SelectionPath, a SelectionSpec, or a spec string like "
        f"'reference' or 'fast'")


register_selection("reference", ReferenceSelection)
register_selection("fast", FastSelection)

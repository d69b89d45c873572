"""A generic name → factory registry with signature validation.

Backs every spec-addressable registry in the library (mechanisms,
placement policies, scheduling policies, arrival processes):
case-insensitive lookup, factory-signature introspection, and keyword
validation that fails with the accepted parameter menu instead of an
opaque ``TypeError`` — one implementation, parameterized only by the
error-message nouns.  :class:`RegistrySpec` is the matching declarative
half: a frozen ``name + params`` dataclass with the shared
parse/validate/create behaviour, subclassed once per registry.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import ClassVar

from repro.utils.specparse import parse_spec_text
from repro.utils.validation import ValidationError


class SpecRegistry:
    """Factories by name, with validated keyword parameters.

    ``lookup_noun`` names the registry in unknown-name errors
    (``"unknown mechanism ..."``); ``param_noun`` names it in
    parameter errors (they may differ for historical message
    compatibility).
    """

    def __init__(self, lookup_noun: str,
                 param_noun: "str | None" = None) -> None:
        self._lookup_noun = lookup_noun
        self._param_noun = param_noun or lookup_noun
        self._factories: dict[str, Callable] = {}

    def register(self, name: str, factory: Callable) -> None:
        """Register *factory* under *name* (case-insensitive)."""
        self._factories[name.lower()] = factory

    def lookup(self, name: str) -> Callable:
        """The factory of *name*; raises ``KeyError`` with the menu."""
        try:
            return self._factories[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._factories))
            raise KeyError(
                f"unknown {self._lookup_noun} {name!r}; "
                f"known: {known}") from None

    def params(self, name: str) -> "tuple[str, ...] | None":
        """Parameter names the factory of *name* accepts.

        Returns ``None`` when the signature cannot be inspected or it
        takes ``**kwargs`` — meaning "anything goes".
        """
        factory = self.lookup(name)
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            return None
        names = []
        for parameter in signature.parameters.values():
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                return None
            if parameter.kind in (
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    inspect.Parameter.KEYWORD_ONLY):
                names.append(parameter.name)
        return tuple(names)

    def validate_params(self, name: str,
                        params: Mapping[str, object]) -> None:
        """Reject *params* the factory of *name* does not accept."""
        if not params:
            return
        accepted = self.params(name)
        if accepted is None:
            return
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            menu = ", ".join(accepted) if accepted else "none"
            raise ValidationError(
                f"{self._param_noun} {name!r} does not accept "
                f"parameter(s) {unknown}; accepted parameters: {menu}")

    def create(self, name: str, **kwargs: object):
        """Instantiate *name*, validating kwargs against the factory."""
        factory = self.lookup(name)
        self.validate_params(name, kwargs)
        return factory(**kwargs)

    def as_mapping(self) -> Mapping[str, Callable]:
        """Read-only snapshot of the registry (name → factory)."""
        return dict(self._factories)


@dataclass(frozen=True)
class RegistrySpec:
    """A registry name plus declared, validated parameters.

    The declarative counterpart of :meth:`SpecRegistry.create`,
    parseable from the library's compact spec strings
    (``"name:key=value,key=value"``).  Subclasses bind a registry and
    an error-message noun as class attributes::

        @dataclass(frozen=True)
        class PolicySpec(RegistrySpec):
            _registry = _REGISTRY
            _what = "scheduler spec"
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    #: The :class:`SpecRegistry` this spec family resolves against.
    _registry: ClassVar[SpecRegistry]
    #: How error messages name the spec family ("mechanism spec", …).
    _what: ClassVar[str] = "spec"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError(
                f"{self._what} needs a non-empty name")
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def parse(cls, text: str) -> "RegistrySpec":
        """Parse ``"name"`` or ``"name:key=value,key=value"``."""
        name, params = parse_spec_text(text, what=cls._what)
        return cls(name, params)

    def validate(self) -> "RegistrySpec":
        """Check name and params against the registry; returns self."""
        self._registry.lookup(self.name)
        self._registry.validate_params(self.name, self.params)
        return self

    def create(self):
        """Instantiate whatever this spec describes."""
        return self._registry.create(self.name, **self.params)

    def accepts(self, param: str) -> bool:
        """True if the factory takes a parameter called *param*."""
        accepted = self._registry.params(self.name)
        return accepted is None or param in accepted

    def with_params(self, **params: object) -> "RegistrySpec":
        """A copy of this spec with extra/overridden parameters."""
        return type(self)(self.name, {**self.params, **params})

    def __str__(self) -> str:
        if not self.params:
            return self.name
        rendered = ",".join(f"{key}={value}"
                            for key, value in sorted(self.params.items()))
        return f"{self.name}:{rendered}"

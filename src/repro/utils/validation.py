"""Small validation helpers used across the library.

The library raises :class:`ValidationError` (a ``ValueError`` subclass)
for malformed user input so callers can distinguish modelling mistakes
from programming errors.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised when user-supplied model input is malformed."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition*."""
    if not condition:
        raise ValidationError(message)


def require_positive(value: float, name: str) -> None:
    """Require that *value* is strictly positive."""
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require that *value* is zero or positive (NaN is neither)."""
    if not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")

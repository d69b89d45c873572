"""Shared grammar for compact spec strings: ``name[:key=value,...]``.

One implementation of the parsing used by every spec-addressable
registry in the library — mechanisms (``"two-price:seed=7"``),
arrival processes (``"poisson:rate=40"``), placement policies — so
the grammar cannot drift between layers.
"""

from __future__ import annotations

import ast

from repro.utils.validation import ValidationError


def parse_param_value(text: str) -> object:
    """``"7"`` → 7, ``"true"`` → True, ``"even"`` → ``"even"``."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return ast.literal_eval(text.strip())
    except (ValueError, SyntaxError):
        return text.strip()


def parse_spec_text(
    text: str, what: str = "spec"
) -> "tuple[str, dict[str, object]]":
    """Split ``"name"`` / ``"name:k=v,k=v"`` into name and params.

    Values go through :func:`parse_param_value`; *what* names the spec
    family in error messages (``"mechanism spec"``, ``"arrival
    spec"``).
    """
    head, _, tail = text.strip().partition(":")
    if not head:
        raise ValidationError(
            f"cannot parse {what} {text!r}: empty name")
    params: dict[str, object] = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise ValidationError(
                    f"cannot parse {what} {text!r}: parameter "
                    f"{item!r} is not of the form key=value")
            params[key.strip()] = parse_param_value(value)
    return head.strip(), params

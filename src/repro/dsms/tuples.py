"""Stream tuples — the unit of data flowing through the DSMS engine.

A tuple is an immutable record stamped with its source stream and the
engine tick it entered the system; ``payload`` carries the attribute
values.  Lineage (``origin``) survives operator processing so tests can
assert conservation across the transition phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.utils.records import share_on_deepcopy


@dataclass(frozen=True)
class StreamTuple:
    """One data item on a stream.

    ``origin`` identifies the source tuple(s) this one derives from —
    a single id for row-level operators, a combined id for joins and
    aggregates.

    The constructor takes ownership of a ``payload`` passed as a plain
    ``dict`` — it is kept as-is, not copied, so callers on the hot path
    (operators construct one payload per emitted tuple) must hand over
    a mapping they will not mutate afterwards.  Any other
    :class:`Mapping` is converted to a ``dict`` once.
    """

    stream: str
    tick: int
    payload: Mapping[str, object] = field(default_factory=dict)
    origin: tuple[str, ...] = ()

    __deepcopy__ = share_on_deepcopy

    def __post_init__(self) -> None:
        if type(self.payload) is not dict:
            object.__setattr__(self, "payload", dict(self.payload))
        if not self.origin:
            object.__setattr__(
                self, "origin", (f"{self.stream}@{self.tick}",))

    def value(self, attribute: str, default: object = None) -> object:
        """Payload attribute lookup with a default."""
        return self.payload.get(attribute, default)

    def derive(
        self,
        payload: Mapping[str, object] | None = None,
        origin: tuple[str, ...] | None = None,
    ) -> "StreamTuple":
        """A derived tuple carrying this one's lineage by default."""
        return StreamTuple(
            stream=self.stream,
            tick=self.tick,
            payload=self.payload if payload is None else payload,
            origin=self.origin if origin is None else origin,
        )

"""Runtime stream operators (the Aurora-style boxes of Section II).

Each operator consumes per-tick batches from its inputs (stream names
or upstream operator ids) and produces an output batch.  Operators
carry a ``cost_per_tuple`` — the work units spent per *input* tuple —
from which the engine measures load; selective operators additionally
expose an analytic ``selectivity`` estimate so query loads can be
predicted before admission (the paper assumes loads "can at least be
reasonably approximated by the system").

The paper's Example 1 maps directly: two :class:`SelectOperator` boxes
over a quote stream and a news stream, joined by a
:class:`JoinOperator` on the company attribute.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Mapping, Sequence

from repro.dsms.tuples import StreamTuple
from repro.utils.validation import require, require_non_negative, require_positive

#: Per-tick input batches, keyed by input name (stream or operator id).
Batches = Mapping[str, Sequence[StreamTuple]]


class StreamOperator(abc.ABC):
    """Base class for runtime operators.

    ``inputs`` are the names this operator reads (stream names or
    upstream operator ids).  The engine executes each distinct operator
    **once** per tick, no matter how many queries contain it — that is
    the shared processing the admission mechanisms exploit.
    """

    def __init__(
        self,
        op_id: str,
        inputs: Sequence[str],
        cost_per_tuple: float = 1.0,
        share_key: object = None,
    ) -> None:
        require(bool(op_id), "operator id must be non-empty")
        require(len(inputs) >= 1, f"operator {op_id!r} needs an input")
        require_non_negative(cost_per_tuple,
                             f"cost_per_tuple of {op_id!r}")
        self.op_id = op_id
        self.inputs = tuple(inputs)
        self.cost_per_tuple = float(cost_per_tuple)
        #: Parameter fingerprint: two operators of the same type,
        #: inputs and cost compute the same stream iff their keys are
        #: equal; ``None`` (the default) marks the operator as private.
        #: Nothing here reads it; pickled operator state carries it.
        self.share_key = share_key
        self.processed_tuples = 0
        self.emitted_tuples = 0

    def _consumed(self, batches: Batches) -> int:
        inputs = self.inputs
        if len(inputs) == 1:
            return len(batches.get(inputs[0], ()))
        return sum(len(batches.get(name, ())) for name in inputs)

    def execute(self, batches: Batches) -> list[StreamTuple]:
        """Process this tick's input batches; returns the output batch."""
        consumed = self._consumed(batches)
        output = self._process(batches)
        self.processed_tuples += consumed
        self.emitted_tuples += len(output)
        return output

    def work(self, batches: Batches) -> float:
        """Work units this tick's input would cost (before execute)."""
        return self._consumed(batches) * self.cost_per_tuple

    def execute_drained(self, batch: Sequence[StreamTuple]) -> list[StreamTuple]:
        """Single-input fast path: like :meth:`execute`, but the caller
        already drained our only input into *batch* (no per-input dict).
        Callers must only use this on operators with one input."""
        output = self._process({self.inputs[0]: batch})
        self.processed_tuples += len(batch)
        self.emitted_tuples += len(output)
        return output

    @abc.abstractmethod
    def _process(self, batches: Batches) -> list[StreamTuple]:
        """Operator semantics (subclass hook)."""

    def selectivity(self) -> float:
        """Analytic output/input rate ratio estimate (default 1)."""
        return 1.0

    def reset(self) -> None:
        """Clear operator state (windows, buffers) and counters."""
        self.processed_tuples = 0
        self.emitted_tuples = 0

    def pending_tuples(self) -> int:
        """Tuples buffered inside the operator (windows/join state)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.op_id!r}>"


class SelectOperator(StreamOperator):
    """Filter: emits input tuples satisfying ``predicate``."""

    def __init__(
        self,
        op_id: str,
        input_name: str,
        predicate: Callable[[StreamTuple], bool],
        cost_per_tuple: float = 1.0,
        selectivity_estimate: float = 0.5,
        share_key: object = None,
    ) -> None:
        super().__init__(op_id, [input_name], cost_per_tuple,
                         share_key=share_key)
        self._predicate = predicate
        # Predicates marked constant-true (``selects_all``) skip the
        # per-tuple call — the dominant select shape of the synthetic
        # open-system workloads.
        self._passthrough = bool(getattr(predicate, "selects_all", False))
        self._selectivity = float(selectivity_estimate)

    def _process(self, batches: Batches) -> list[StreamTuple]:
        batch = batches.get(self.inputs[0], ())
        if self._passthrough:
            return list(batch)
        return [t for t in batch if self._predicate(t)]

    def execute_drained(self, batch: Sequence[StreamTuple]) -> list[StreamTuple]:
        n = len(batch)
        if self._passthrough:
            # The caller hands over a fresh list it no longer owns, so
            # the passthrough can return it without copying.
            output = batch if isinstance(batch, list) else list(batch)
        else:
            output = [t for t in batch if self._predicate(t)]
        self.processed_tuples += n
        self.emitted_tuples += len(output)
        return output

    def selectivity(self) -> float:
        return self._selectivity


class ProjectOperator(StreamOperator):
    """Projection: keeps only the named payload attributes."""

    def __init__(
        self,
        op_id: str,
        input_name: str,
        attributes: Sequence[str],
        cost_per_tuple: float = 0.2,
    ) -> None:
        # A projection is fully determined by its attribute list, so it
        # is always shareable.
        super().__init__(op_id, [input_name], cost_per_tuple,
                         share_key=("project", tuple(attributes)))
        self._attributes = tuple(attributes)

    def _process(self, batches: Batches) -> list[StreamTuple]:
        output = []
        for t in batches.get(self.inputs[0], ()):
            payload = {a: t.payload[a] for a in self._attributes
                       if a in t.payload}
            output.append(t.derive(payload=payload))
        return output


class MapOperator(StreamOperator):
    """Per-tuple transformation of the payload."""

    def __init__(
        self,
        op_id: str,
        input_name: str,
        transform: Callable[[Mapping[str, object]], Mapping[str, object]],
        cost_per_tuple: float = 0.5,
        share_key: object = None,
    ) -> None:
        super().__init__(op_id, [input_name], cost_per_tuple,
                         share_key=share_key)
        self._transform = transform

    def _process(self, batches: Batches) -> list[StreamTuple]:
        return [t.derive(payload=dict(self._transform(t.payload)))
                for t in batches.get(self.inputs[0], ())]


class JoinOperator(StreamOperator):
    """Symmetric hash join over sliding tick windows.

    Tuples from each side are kept for ``window`` ticks; a new tuple
    joins against the other side's current window on equal join keys.
    """

    def __init__(
        self,
        op_id: str,
        left_input: str,
        right_input: str,
        left_key: Callable[[StreamTuple], object],
        right_key: Callable[[StreamTuple], object],
        window: int = 5,
        cost_per_tuple: float = 3.0,
        selectivity_estimate: float = 0.3,
        share_key: object = None,
    ) -> None:
        super().__init__(op_id, [left_input, right_input], cost_per_tuple,
                         share_key=(None if share_key is None
                                    else (share_key, window)))
        require_positive(window, f"window of join {op_id!r}")
        self._left_key = left_key
        self._right_key = right_key
        self._window = int(window)
        self._left_buffer: list[StreamTuple] = []
        self._right_buffer: list[StreamTuple] = []
        self._selectivity = float(selectivity_estimate)

    def _expire(self, buffer: list[StreamTuple], tick: int) -> None:
        buffer[:] = [t for t in buffer if tick - t.tick < self._window]

    def _process(self, batches: Batches) -> list[StreamTuple]:
        left_new = list(batches.get(self.inputs[0], ()))
        right_new = list(batches.get(self.inputs[1], ()))
        tick = max(
            (t.tick for t in left_new + right_new),
            default=max((t.tick for t in
                         self._left_buffer + self._right_buffer),
                        default=0),
        )
        self._expire(self._left_buffer, tick)
        self._expire(self._right_buffer, tick)
        output: list[StreamTuple] = []

        right_index: dict[object, list[StreamTuple]] = {}
        for t in self._right_buffer + right_new:
            right_index.setdefault(self._right_key(t), []).append(t)
        for left in left_new:
            for right in right_index.get(self._left_key(left), ()):
                payload = {**right.payload, **left.payload}
                output.append(StreamTuple(
                    stream=self.op_id, tick=tick, payload=payload,
                    origin=left.origin + right.origin))
        left_index: dict[object, list[StreamTuple]] = {}
        for t in self._left_buffer:  # old left vs new right only
            left_index.setdefault(self._left_key(t), []).append(t)
        for right in right_new:
            for left in left_index.get(self._right_key(right), ()):
                payload = {**right.payload, **left.payload}
                output.append(StreamTuple(
                    stream=self.op_id, tick=tick, payload=payload,
                    origin=left.origin + right.origin))

        self._left_buffer.extend(left_new)
        self._right_buffer.extend(right_new)
        return output

    def selectivity(self) -> float:
        return self._selectivity

    def reset(self) -> None:
        super().reset()
        self._left_buffer.clear()
        self._right_buffer.clear()

    def pending_tuples(self) -> int:
        return len(self._left_buffer) + len(self._right_buffer)


class AggregateOperator(StreamOperator):
    """Tumbling-window aggregate, optionally grouped.

    Buffers ``window`` ticks of input, then emits one tuple per group
    with ``aggregate(values)`` applied to the ``attribute`` values.
    """

    def __init__(
        self,
        op_id: str,
        input_name: str,
        attribute: str,
        aggregate: Callable[[list[object]], object],
        window: int = 5,
        group_by: "Callable[[StreamTuple], object] | None" = None,
        cost_per_tuple: float = 1.5,
        share_key: object = None,
    ) -> None:
        super().__init__(op_id, [input_name], cost_per_tuple,
                         share_key=(None if share_key is None
                                    else (share_key, window, attribute)))
        require_positive(window, f"window of aggregate {op_id!r}")
        self._attribute = attribute
        self._aggregate = aggregate
        self._window = int(window)
        self._group_by = group_by
        self._buffer: list[StreamTuple] = []
        self._window_start: int | None = None

    def _process(self, batches: Batches) -> list[StreamTuple]:
        incoming = list(batches.get(self.inputs[0], ()))
        if incoming and self._window_start is None:
            self._window_start = min(t.tick for t in incoming)
        self._buffer.extend(incoming)
        if self._window_start is None:
            return []
        current_tick = max((t.tick for t in incoming),
                           default=self._window_start)
        if current_tick - self._window_start + 1 < self._window:
            return []
        return self._emit(current_tick, partial=False)

    def _emit(self, tick: int, partial: bool) -> list[StreamTuple]:
        """Group and emit the buffered window, then clear it.

        The single source of truth for aggregate output shape — both
        the window-close path and the drain-phase partial flush go
        through here.
        """
        groups: dict[object, list[StreamTuple]] = {}
        for t in self._buffer:
            key = self._group_by(t) if self._group_by else None
            groups.setdefault(key, []).append(t)
        output = []
        for key, members in groups.items():
            values = [t.value(self._attribute) for t in members]
            payload: dict[str, object] = {
                "group": key,
                "value": self._aggregate(values),
                "count": len(members),
            }
            if partial:
                payload["partial"] = True
            origin = tuple(o for t in members for o in t.origin)
            output.append(StreamTuple(
                stream=self.op_id, tick=tick, payload=payload,
                origin=origin))
        self._buffer.clear()
        self._window_start = None
        return output

    def flush_partial(self) -> list[StreamTuple]:
        """Force a partial-window emission of the buffered tuples.

        The transition phase drains in-flight state through here: the
        buffered groups are emitted exactly as a window close would
        emit them, except the payload is marked ``"partial": True``.
        The window buffer is cleared; returns the emitted batch (empty
        when nothing was buffered).
        """
        if not self._buffer:
            return []
        tick = max(t.tick for t in self._buffer)
        return self._emit(tick, partial=True)

    def selectivity(self) -> float:
        # One output per window per group; approximate with 1/window.
        return 1.0 / self._window

    def reset(self) -> None:
        super().reset()
        self._buffer.clear()
        self._window_start = None

    def pending_tuples(self) -> int:
        return len(self._buffer)


class UnionOperator(StreamOperator):
    """Merge: forwards the tuples of all inputs."""

    def __init__(
        self,
        op_id: str,
        inputs: Sequence[str],
        cost_per_tuple: float = 0.1,
    ) -> None:
        super().__init__(op_id, inputs, cost_per_tuple)

    def _process(self, batches: Batches) -> list[StreamTuple]:
        output: list[StreamTuple] = []
        for name in self.inputs:
            output.extend(batches.get(name, ()))
        return output

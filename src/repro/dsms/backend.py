"""Pluggable execution backends for the stream engine.

The :class:`~repro.dsms.engine.StreamEngine` owns the *semantics* of a
tick — sources emit, connection points hold or pass, results land in
query logs, the transition phase drains — but delegates the actual
operator execution to an :class:`ExecutionBackend`:

* :class:`ScalarBackend` — the reference per-tuple interpreter: every
  operator's :meth:`~repro.dsms.operators.StreamOperator.execute` runs
  over Python lists of :class:`~repro.dsms.tuples.StreamTuple`;
* ``ColumnarBackend`` (:mod:`repro.dsms.columnar`) — a vectorized
  struct-of-arrays engine built on numpy, semantically equivalent to
  the scalar interpreter (pinned by the differential test suite).

Backends are *spec-string addressable* through a registry mirroring
:class:`repro.core.mechanism.MechanismSpec`: ``"scalar"``,
``"columnar"``, ``"columnar:batch=1024"`` — the currency of
:class:`~repro.service.builder.ServiceConfig` and the cluster
federation.

A backend instance may hold per-operator execution state (the columnar
backend keeps join windows and aggregate buffers as column batches),
so one instance belongs to exactly one engine; ``resolve_backend``
therefore builds a fresh instance from every spec it is given.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

from repro.dsms.operators import (
    AggregateOperator, SelectOperator, StreamOperator)
from repro.dsms.tuples import StreamTuple
from repro.utils.registry import RegistrySpec, SpecRegistry
from repro.utils.validation import ValidationError

#: A tick's batches by name (stream names and operator ids).
TickOutputs = Mapping[str, list[StreamTuple]]


class ExecutionBackend(abc.ABC):
    """Executes the operator graph for one engine tick.

    The engine hands the backend its operators in topological order
    plus the tick's per-stream arrivals; the backend returns the
    produced batches (as :class:`StreamTuple` lists, at least for the
    requested ``sink_ids``) and the measured work per operator.  All
    numbers must be *exactly* those the scalar interpreter would
    produce — backends trade representation, never semantics.
    """

    #: Registry name of the backend.
    name: str = "backend"

    @abc.abstractmethod
    def run_operators(
        self,
        operators: Sequence[StreamOperator],
        arrivals: Mapping[str, Sequence[StreamTuple]],
        sink_ids: "set[str]",
    ) -> tuple[dict[str, list[StreamTuple]], dict[str, float]]:
        """Execute one tick; returns ``(outputs, work_by_op)``.

        ``outputs`` maps every name in ``sink_ids`` (that an operator
        produced) to its tuple batch; ``work_by_op`` maps every
        executed operator id to ``consumed × cost_per_tuple``.
        """

    def pending_tuples(self, op: StreamOperator) -> int:
        """Tuples buffered for *op*, wherever that state lives.

        The scalar backend keeps state inside the operators; columnar
        backends keep it in their own batches.  The engine's drain
        logic must ask the backend, never the operator directly.
        """
        return op.pending_tuples()

    def flush_aggregate(self, op: AggregateOperator) -> list[StreamTuple]:
        """Partial-flush an aggregate's window for the drain phase."""
        return op.flush_partial()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ScalarBackend(ExecutionBackend):
    """The reference per-tuple interpreter.

    Exactly the execution loop the engine hard-wired before backends
    existed: each operator's :meth:`execute` runs once, in topological
    order, over Python tuple lists.  All operator state (join windows,
    aggregate buffers) lives inside the operator objects.
    """

    name = "scalar"

    def run_operators(self, operators, arrivals, sink_ids):
        outputs: dict[str, list[StreamTuple]] = {
            name: list(batch) for name, batch in arrivals.items()}
        work_by_op: dict[str, float] = {}
        stock_work = StreamOperator.work
        stock_execute = StreamOperator.execute
        stock_select_drained = SelectOperator.execute_drained
        for op in operators:
            inputs = op.inputs
            if (len(inputs) == 1 and type(op).work is stock_work
                    and type(op).execute is stock_execute):
                # Single-input operator with stock metering: no
                # per-input dict round-trip.  Subclasses overriding
                # ``work``/``execute`` keep the reference path.
                batch = outputs.get(inputs[0], ())
                work_by_op[op.op_id] = len(batch) * op.cost_per_tuple
                if (type(op).execute_drained is stock_select_drained
                        and op._passthrough):
                    # Constant-true select: nothing left but the
                    # counter updates, so skip the method call too.
                    # Same aliasing as execute_drained — the caller
                    # no longer owns the batch list.
                    n = len(batch)
                    outputs[op.op_id] = (batch if isinstance(batch, list)
                                         else list(batch))
                    op.processed_tuples += n
                    op.emitted_tuples += n
                    continue
                outputs[op.op_id] = op.execute_drained(batch)
                continue
            batches = {name: outputs.get(name, []) for name in inputs}
            work_by_op[op.op_id] = op.work(batches)
            outputs[op.op_id] = op.execute(batches)
        return outputs, work_by_op


# ----------------------------------------------------------------------
# Registry and specs (mirrors repro.core.mechanism)
# ----------------------------------------------------------------------

#: The backend registry (shared machinery: utils.registry).
_REGISTRY = SpecRegistry("execution backend", param_noun="backend")


def register_backend(
    name: str, factory: Callable[..., ExecutionBackend]
) -> None:
    """Register a backend *factory* under *name* (case-insensitive)."""
    _REGISTRY.register(name, factory)


def backend_params(name: str) -> "tuple[str, ...] | None":
    """Parameter names the factory of *name* accepts (None = open)."""
    return _REGISTRY.params(name)


def make_backend(name: str, **kwargs: object) -> ExecutionBackend:
    """Instantiate a registered backend by name, validating kwargs."""
    return _REGISTRY.create(name, **kwargs)


def registered_backends() -> Mapping[str, Callable[..., ExecutionBackend]]:
    """Read-only view of the registry (name → factory)."""
    return _REGISTRY.as_mapping()


@dataclass(frozen=True)
class BackendSpec(RegistrySpec):
    """A backend name plus declared, validated parameters.

    The declarative counterpart of :func:`make_backend`, parseable
    from the same compact strings :class:`MechanismSpec` uses:

    >>> BackendSpec.parse("columnar:batch=1024")
    BackendSpec(name='columnar', params={'batch': 1024})
    """

    _registry = _REGISTRY
    _what = "backend spec"


def resolve_backend(
    backend: "ExecutionBackend | BackendSpec | str",
) -> ExecutionBackend:
    """Coerce any accepted backend form to a live instance.

    Accepts a live :class:`ExecutionBackend`, a :class:`BackendSpec`,
    or a spec string like ``"scalar"`` / ``"columnar:batch=1024"``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, BackendSpec):
        return backend.create()
    if isinstance(backend, str):
        return BackendSpec.parse(backend).create()
    raise ValidationError(
        f"cannot resolve an execution backend from {backend!r}; pass "
        f"an ExecutionBackend, a BackendSpec, or a spec string like "
        f"'scalar' or 'columnar:batch=1024'")


def _columnar_factory(batch: int = 4096) -> ExecutionBackend:
    # Deferred import: repro.dsms.columnar imports this module.  The
    # explicit signature (mirroring ColumnarBackend.__init__) is what
    # lets BackendSpec.validate() reject typo'd parameters up front.
    from repro.dsms.columnar import ColumnarBackend

    return ColumnarBackend(batch=batch)


register_backend("scalar", ScalarBackend)
register_backend("columnar", _columnar_factory)

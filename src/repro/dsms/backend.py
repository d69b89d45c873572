"""The stream engine's tick interpreter.

The :class:`~repro.dsms.engine.StreamEngine` owns the *semantics* of a
tick — sources emit, connection points hold or pass, results land in
query logs, the transition phase drains — and runs the operators
through :class:`ScalarBackend`: every operator's
:meth:`~repro.dsms.operators.StreamOperator.execute` runs once, in
topological order, over Python lists of
:class:`~repro.dsms.tuples.StreamTuple`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.dsms.operators import SelectOperator, StreamOperator
from repro.dsms.tuples import StreamTuple


class ScalarBackend:
    """The per-tuple interpreter.

    All operator state (join windows, aggregate buffers) lives inside
    the operator objects; an instance holds none.  Checkpoints pickle
    the engine's instance by this module and name, so neither moves.
    """

    def run_operators(
        self,
        operators: Sequence[StreamOperator],
        arrivals: Mapping[str, Sequence[StreamTuple]],
    ) -> tuple[dict[str, list[StreamTuple]], dict[str, float]]:
        """Execute one tick; returns ``(outputs, work_by_op)``.

        ``outputs`` maps every stream name and executed operator id to
        its tuple batch; ``work_by_op`` maps every executed operator id
        to ``consumed × cost_per_tuple``.
        """
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

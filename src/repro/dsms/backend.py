"""The stream engine's tick interpreter.

The :class:`~repro.dsms.engine.StreamEngine` owns the *semantics* of a
tick — sources emit, connection points hold or pass, results land in
query logs, the transition phase drains — and runs the operators
through :class:`ScalarBackend`: every operator's
:meth:`~repro.dsms.operators.StreamOperator.work` and
:meth:`~repro.dsms.operators.StreamOperator.execute` run once, in
topological order, over Python lists of
:class:`~repro.dsms.tuples.StreamTuple`.  It has no shortcut: a
passthrough network of stock selects (``work``, ``execute`` and
``_process`` not overridden) skips it whole, in the engine's period
pass; every other network, and a transition's held tick, runs here.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.dsms.operators import StreamOperator
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
        for op in operators:
            batches = {name: outputs.get(name, []) for name in op.inputs}
            work_by_op[op.op_id] = op.work(batches)
            outputs[op.op_id] = op.execute(batches)
        return outputs, work_by_op

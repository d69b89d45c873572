"""The transition manager: moving the engine between admitted sets.

Wraps the paper's Section II transition phase (connection points hold
arriving tuples, modified subnetworks drain, held tuples replay before
new arrivals) behind one idempotent operation: *make the engine run
exactly this admitted set*.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.dsms.engine import StreamEngine
from repro.dsms.plan import ContinuousQuery
from repro.utils.validation import require


class TransitionManager:
    """Applies per-period admitted-set changes to a stream engine."""

    def __init__(self, hold_ticks: int = 1) -> None:
        require(hold_ticks >= 0, "hold_ticks must be >= 0")
        self.hold_ticks = int(hold_ticks)

    def apply(
        self,
        engine: StreamEngine,
        admitted: Sequence[str],
        candidates: Mapping[str, ContinuousQuery],
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Transition *engine* so it runs exactly *admitted*.

        On a warm engine the full transition-phase sequence runs
        (tuples held for :attr:`hold_ticks` ticks); on a cold engine
        the queries are admitted directly.  Returns
        ``(added_ids, removed_ids)``.
        """
        currently_running = set(engine.admitted_ids)
        to_remove = tuple(sorted(currently_running - set(admitted)))
        to_add = tuple(candidates[query_id] for query_id in admitted
                       if query_id not in currently_running)
        if currently_running:
            engine.transition(add=to_add, remove=to_remove,
                              hold_ticks=self.hold_ticks)
        else:
            for query in to_add:
                engine.admit(query)
        return tuple(q.query_id for q in to_add), to_remove

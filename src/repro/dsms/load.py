"""Load estimation — the bridge from running plans to auction inputs.

The admission mechanisms need one number per operator: its *load*, the
fraction of server capacity it consumes per time unit.  The paper
assumes this "can at least be reasonably approximated by the system".
We provide both directions:

* :func:`estimate_operator_loads` — analytic prediction: propagate
  expected tuple rates from the sources through the operator graph
  (scaling by each operator's selectivity estimate) and multiply by
  per-tuple costs;
* :class:`LoadMeter` — measurement: accumulate actual work per
  operator over engine ticks and report the empirical load.

:func:`auction_instance_from_catalog` packages the estimates with the
queries' bids into a :class:`repro.core.model.AuctionInstance`, closing
the loop between the DSMS substrate and the auction layer.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import reduce
from operator import add

from repro.core.model import AuctionInstance, Operator, Query
from repro.dsms.plan import QueryPlanCatalog


def estimate_operator_loads(
    catalog: QueryPlanCatalog,
    stream_rates: Mapping[str, float],
) -> dict[str, float]:
    """Predicted load per operator: input rate × cost per tuple.

    Rates propagate through the graph in topological order; an
    operator's output rate is its input rate times its selectivity
    estimate.  Unknown streams default to rate 0.
    """
    rates: dict[str, float] = dict(stream_rates)
    loads: dict[str, float] = {}
    for op in catalog.topological_order():
        input_rate = sum(rates.get(name, 0.0) for name in op.inputs)
        loads[op.op_id] = input_rate * op.cost_per_tuple
        rates[op.op_id] = input_rate * op.selectivity()
    return loads


class LoadMeter:
    """Accumulates measured per-operator work across engine ticks."""

    def __init__(self) -> None:
        self._work: dict[str, float] = {}
        self._ticks = 0

    def record_tick(self, work_by_operator: Mapping[str, float]) -> None:
        """Add one tick's work measurements."""
        self.record_ticks(
            {op_id: (work,) for op_id, work in work_by_operator.items()}, 1)

    def record_ticks(self, work_by_operator: Mapping[str, Sequence[float]],
                     ticks: int) -> None:
        """Add *ticks* ticks' work: each operator's per-tick works, in
        tick order.  Each total is added to one tick at a time, so it
        carries the bits :meth:`record_tick` per tick would give."""
        work = self._work
        for op_id, works in work_by_operator.items():
            work[op_id] = reduce(add, works, work.get(op_id, 0.0))
        self._ticks += ticks

    @property
    def ticks(self) -> int:
        """Number of recorded ticks."""
        return self._ticks

    def measured_loads(self) -> dict[str, float]:
        """Mean work per tick for every operator seen so far."""
        if self._ticks == 0:
            return {}
        return {op_id: work / self._ticks
                for op_id, work in self._work.items()}

    def total_load(self) -> float:
        """Mean aggregate work per tick."""
        return sum(self.measured_loads().values())


def auction_instance_from_catalog(
    catalog: QueryPlanCatalog,
    stream_rates: Mapping[str, float],
    capacity: float,
    loads: Mapping[str, float] | None = None,
) -> AuctionInstance:
    """Build the admission auction's input from registered plans.

    *loads* overrides the analytic estimates (pass
    ``LoadMeter.measured_loads()`` to auction on measured costs).
    """
    if loads is None:
        loads = estimate_operator_loads(catalog, stream_rates)
    operators = {
        op_id: Operator(op_id, loads.get(op_id, 0.0))
        for op_id in catalog.operators
    }
    queries = tuple(
        Query(
            query_id=query.query_id,
            operator_ids=query.operator_ids,
            bid=query.bid,
            valuation=query.valuation,
            owner=query.owner,
        )
        for query in catalog.queries.values()
    )
    return AuctionInstance(operators, queries, capacity)

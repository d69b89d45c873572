"""CAR — the naive remaining-load mechanism (Section IV-A).

CAR (CQ Admission based on Remaining load) ranks queries by bid per
unit of *remaining* load ``C^R_i`` — the marginal load the query would
add given the winners chosen so far — recomputing priorities after
every admission.  This measures true marginal cost exactly, but makes
payments depend on the *order* of admission and hence on the users'
bids, which breaks bid-strategyproofness: a user sharing operators with
other winners gains by under-bidding so she is chosen *after* them,
shrinking her remaining load and her payment.  The paper uses CAR as
the cautionary baseline and evaluates it under lying workloads
(Figure 5); :mod:`repro.workload.lying` generates those workloads.

Implementation note: remaining loads are maintained *incrementally* —
admitting a query only touches the queries that share one of its
newly-running operators — so a full auction is
O(n² + Σ_op degree(op)·|ops per query|) instead of the naive
O(n² · |ops per query|).
"""

from __future__ import annotations

from repro.core.greedy import priority_of
from repro.core.mechanism import Mechanism
from repro.core.model import AuctionInstance, Query


class CAR(Mechanism):
    """CQ Admission based on Remaining load.

    Iteratively admits the unchosen query with the highest
    ``b_i / C^R_i`` priority; stops the first time the chosen query does
    not fit, that query becoming ``qlost``.  Each winner pays
    ``C^R_i(at admission) · b_lost / C^R_lost``.

    Not bid-strategyproof — kept for the manipulation experiments.
    """

    name = "CAR"
    bid_strategyproof = False
    superlinear_reference = True
    sybil_immune = False
    profit_guarantee = False

    def _select(self, instance: AuctionInstance):
        # op -> queries containing it, for incremental CR updates.
        containing: dict[str, list[Query]] = {
            op_id: [] for op_id in instance.operators}
        cr: dict[str, float] = {}
        for query in instance.queries:
            cr[query.query_id] = 0.0
            for op_id in query.operator_ids:
                containing[op_id].append(query)
                cr[query.query_id] += instance.operator(op_id).load

        pending: dict[str, Query] = {q.query_id: q for q in instance.queries}
        running_ops: set[str] = set()
        used = 0.0
        admission_order: list[str] = []
        admission_loads: dict[str, float] = {}
        lost: Query | None = None

        while pending:
            best_query = None
            best_key: tuple[float, str] | None = None
            for query in pending.values():
                key = (-priority_of(query.bid, cr[query.query_id]),
                       query.query_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_query = query
            assert best_query is not None
            margin = cr[best_query.query_id]
            if used + margin > instance.capacity + 1e-9:
                lost = best_query
                break
            del pending[best_query.query_id]
            used += margin
            admission_order.append(best_query.query_id)
            admission_loads[best_query.query_id] = margin
            # The newly running operators shrink the remaining load of
            # every other query that contains them.
            for op_id in best_query.operator_ids:
                if op_id in running_ops:
                    continue
                running_ops.add(op_id)
                load = instance.operator(op_id).load
                for other in containing[op_id]:
                    if other.query_id in pending:
                        cr[other.query_id] -= load

        details: dict[str, object] = {
            "admission_order": admission_order,
            "first_loser": None if lost is None else lost.query_id,
            "admission_remaining_loads": dict(admission_loads),
        }
        if lost is None:
            payments = {qid: 0.0 for qid in admission_order}
            return payments, details

        lost_load = cr[lost.query_id]
        # A zero-remaining-load query always fits, so the loser's load is
        # positive and the per-unit price is finite.
        price_per_unit = priority_of(lost.bid, lost_load)
        details["price_per_unit_load"] = price_per_unit
        payments = {
            qid: admission_loads[qid] * price_per_unit
            for qid in admission_order
        }
        return payments, details

"""Fast winner/payment selection for the paper's mechanisms.

:func:`fast_select` is the single entry point the ``"fast"`` selection
path (:mod:`repro.core.selection`) dispatches through: given a live
mechanism and a (sealed) instance it runs the array-kernel twin of the
mechanism's ``_select`` and returns the same ``(payments, details)``
pair — bitwise identical floats, identical dict/list ordering — or
``None`` when the mechanism has no fast kernel (custom subclasses,
exotic load measures, the exact/benchmark mechanisms), in which case
the caller falls back to the reference implementation.

A kernel only engages when the mechanism's ``_select`` is the stock
one: a subclass that overrides ``_select`` (or plugs in a custom load
measure) keeps its own semantics and silently takes the reference
path.
"""

from __future__ import annotations

import numpy as np

from repro.core.car import CAR
from repro.core.density import DensityMechanism, SkipOverDensityMechanism
from repro.core.fastpath.index import InstanceIndex
from repro.core.fastpath.kernels import (
    EPSILON,
    bid_order_indices,
    density_order,
    greedy_walk,
    optimal_single_price_array,
    select_screen,
    skip_over_walk,
)
from repro.core.greedy import priority_of
from repro.core.gv import GreedyByValuation
from repro.core.loads import static_fair_share_load, total_load
from repro.core.model import AuctionInstance
from repro.core.two_price import TwoPrice, largest_fitting_subset

SelectResult = "tuple[dict[str, float], dict[str, object]] | None"


def fast_select(mechanism, instance: AuctionInstance) -> SelectResult:
    """Run *mechanism*'s fast kernel on *instance*, if it has one."""
    cls = type(mechanism)
    if (isinstance(mechanism, DensityMechanism)
            and cls._select is DensityMechanism._select):
        loads = _measure_arrays(mechanism, instance)
        if loads is None:
            return None
        return _density_stop_at_first(InstanceIndex.of(instance), *loads)
    if (isinstance(mechanism, SkipOverDensityMechanism)
            and cls._select is SkipOverDensityMechanism._select):
        loads = _measure_arrays(mechanism, instance)
        if loads is None:
            return None
        return _density_skip_over(InstanceIndex.of(instance), *loads)
    if isinstance(mechanism, CAR) and cls._select is CAR._select:
        return _car(InstanceIndex.of(instance))
    if (isinstance(mechanism, GreedyByValuation)
            and cls._select is GreedyByValuation._select):
        result = _gv_columnar(instance)
        if result is not None:
            return result
        return _greedy_by_valuation(InstanceIndex.of(instance))
    if isinstance(mechanism, TwoPrice) and cls._select is TwoPrice._select:
        return _two_price(mechanism, instance,
                          InstanceIndex.of(instance))
    return None


def _measure_arrays(mechanism, instance: AuctionInstance):
    """The precomputed per-query loads for the mechanism's measure.

    Returns ``(np_loads, list_loads)`` or ``None`` for a custom load
    measure the index does not precompute.
    """
    index = InstanceIndex.of(instance)
    measure = mechanism.load_measure
    if measure is total_load:
        return index.total_loads, index.total_loads_list
    if measure is static_fair_share_load:
        return index.fair_share_loads, index.fair_share_loads_list
    return None


# ----------------------------------------------------------------------
# CAF / CAT (stop-at-first) and CAF+ / CAT+ (skip-over)
# ----------------------------------------------------------------------


def _density_stop_at_first(index: InstanceIndex, loads: np.ndarray,
                           loads_list: list[float]):
    order = density_order(index, loads)
    winners, lost, _ = greedy_walk(index, order)
    ids = index.query_ids
    details: dict[str, object] = {
        "priority_order": [ids[qi] for qi in order],
        "first_loser": None if lost is None else ids[lost],
    }
    if lost is None:
        return {ids[qi]: 0.0 for qi in winners}, details
    price_per_unit = priority_of(index.bids_list[lost], loads_list[lost])
    details["price_per_unit_load"] = price_per_unit
    payments = {ids[qi]: loads_list[qi] * price_per_unit for qi in winners}
    return payments, details


def _density_skip_over(index: InstanceIndex, loads: np.ndarray,
                       loads_list: list[float]):
    order = density_order(index, loads)
    winners, first_loser, lasts = skip_over_walk(index, order)
    ids = index.query_ids
    payments: dict[str, float] = {}
    last_map: dict[str, "str | None"] = {}
    for qi in winners:
        last = lasts[qi]
        if last is None:
            payments[ids[qi]] = 0.0
            last_map[ids[qi]] = None
            continue
        winner_load = loads_list[qi]
        if winner_load == 0.0:
            payments[ids[qi]] = 0.0
        else:
            payments[ids[qi]] = winner_load * priority_of(
                index.bids_list[last], loads_list[last])
        last_map[ids[qi]] = ids[last]
    details = {
        "priority_order": [ids[qi] for qi in order],
        "first_loser": (None if first_loser is None
                        else ids[first_loser]),
        "last": last_map,
    }
    return payments, details


# ----------------------------------------------------------------------
# CAR (iterative remaining-load ranking)
# ----------------------------------------------------------------------


def _car(index: InstanceIndex):
    """CAR's n admission rounds, each a vectorized argmax.

    Remaining loads live in one float64 array, updated per newly
    running operator with a single fancy-indexed subtraction over the
    queries containing it — the incremental bitmask accounting the
    reference maintains query by query.  (The subtraction also touches
    already-admitted queries, whose remaining loads the reference
    freezes; those slots are never read again, and pending queries see
    the identical subtraction sequence, so every value that matters is
    bitwise equal.)  Only the densities a round's subtractions touched
    are divided again; the others would be the same division.
    """
    n = index.num_queries
    ids = index.query_ids
    capacity = index.capacity
    bids = index.bids
    id_rank = index.id_rank
    loads = index.op_loads_list
    op_ptr = index.op_ptr.tolist()
    op_members = index.op_members
    cr = np.array(index.total_loads_list, dtype=np.float64)
    pending = np.ones(n, dtype=bool)
    running = bytearray(index.num_operators)
    used = 0.0
    admission_order: list[str] = []
    admission_loads: dict[str, float] = {}
    lost: "int | None" = None

    remaining = n
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # Densities of the pending queries; -inf marks an admitted one.
        masked = np.divide(bids, cr)
        masked[cr == 0.0] = np.inf
        while remaining:
            best_value = masked.max()
            # A pending priority can itself be -inf (huge bid over a
            # tiny *negative* remaining-load residue overflows),
            # colliding with the admitted-query sentinel — so restrict
            # ties to pending.
            candidates = np.nonzero(pending & (masked == best_value))[0]
            best = int(candidates[np.argmin(id_rank[candidates])])
            margin = float(cr[best])
            if used + margin > capacity + EPSILON:
                lost = best
                break
            pending[best] = False
            masked[best] = -np.inf
            remaining -= 1
            used += margin
            admission_order.append(ids[best])
            admission_loads[ids[best]] = margin
            touched = []
            for o in index.query_ops[best]:
                if not running[o]:
                    running[o] = 1
                    members = op_members[op_ptr[o]:op_ptr[o + 1]]
                    cr[members] -= loads[o]
                    touched.append(members)
            if touched:
                members = np.concatenate(touched)
                members = members[pending[members]]
                left = cr[members]
                densities = np.divide(bids[members], left)
                densities[left == 0.0] = np.inf
                masked[members] = densities

    details: dict[str, object] = {
        "admission_order": admission_order,
        "first_loser": None if lost is None else ids[lost],
        "admission_remaining_loads": dict(admission_loads),
    }
    if lost is None:
        return {qid: 0.0 for qid in admission_order}, details
    price_per_unit = priority_of(index.bids_list[lost], float(cr[lost]))
    details["price_per_unit_load"] = price_per_unit
    payments = {
        qid: admission_loads[qid] * price_per_unit
        for qid in admission_order
    }
    return payments, details


# ----------------------------------------------------------------------
# GV and Two-price (bid-ordered)
# ----------------------------------------------------------------------


def _gv_columnar(instance: AuctionInstance) -> SelectResult:
    """GV without an index: the single-operator, unshared case.

    When every query owns exactly one private operator, GV's greedy
    walk degenerates: each query's marginal load is its operator's
    full load regardless of what was admitted before, so the walk is a
    running sum over the bid order and the whole auction collapses to
    one ``lexsort`` + ``cumsum``.  This is the open-system admission
    workload — hundreds of auctions over thousands of arrivals per
    run — where index construction would dominate the kernel.

    Bitwise equal to the reference: ``cumsum`` accumulates float64
    partial sums in the same left-to-right order as the tracker's
    ``used += margin`` (and ``0.0 + load == load`` exactly), the sort
    key matches ``(-bid, query_id)``, and the capacity test uses the
    same ``EPSILON`` slack.  Returns ``None`` (caller falls back to
    the indexed kernel) on any sharing or multi-operator query.
    """
    if instance.max_sharing_degree() > 1:
        return None
    n = instance.num_queries
    if n == 0:
        return {}, {"bid_order": [], "first_loser": None, "price": 0.0}
    # Columns first, .queries only as a fallback: for the pump's lazy
    # columnar instances touching .queries would materialize a
    # SelectPlan per loser — the exact cost this kernel exists to skip.
    columns = getattr(instance, "_select_columns", None)
    if columns is not None and len(columns[0]) == n:
        # The instance builder already mirrored ids/bids/loads into
        # flat columns (repro.sim.subscriptions / repro.sim.columnar) —
        # same values the extraction below would read back one query
        # at a time.
        ids, bids, loads = columns
    else:
        queries = instance.queries
        operators = instance.operators
        ids = []
        bids = np.empty(n, dtype=np.float64)
        loads = np.empty(n, dtype=np.float64)
        for i, query in enumerate(queries):
            op_ids = query.operator_ids
            if len(op_ids) != 1:
                return None
            ids.append(query.query_id)
            bids[i] = query.bid
            loads[i] = operators[op_ids[0]].load
    order, winner_count, lost = select_screen(
        ids, bids, loads, instance.capacity)
    order_list = order.tolist()
    details: dict[str, object] = {
        "bid_order": [ids[qi] for qi in order_list],
        "first_loser": None if lost is None else ids[lost],
    }
    # float(): payments travel into ledgers and JSON reports, which
    # expect plain floats, not numpy scalars.
    price = 0.0 if lost is None else float(bids[lost])
    details["price"] = price
    payments = {ids[qi]: price for qi in order_list[:winner_count]}
    return payments, details


def _greedy_by_valuation(index: InstanceIndex):
    order = bid_order_indices(index)
    winners, lost, _ = greedy_walk(index, order)
    ids = index.query_ids
    details: dict[str, object] = {
        "bid_order": [ids[qi] for qi in order],
        "first_loser": None if lost is None else ids[lost],
    }
    price = 0.0 if lost is None else index.bids_list[lost]
    details["price"] = price
    payments = {ids[qi]: price for qi in winners}
    return payments, details


def _two_price(mechanism: TwoPrice, instance: AuctionInstance,
               index: InstanceIndex):
    """Two-price Steps 1–2 and 4–6 on arrays; Step 3 shared.

    The boundary-tie adjustment stays on the reference
    :func:`largest_fitting_subset` (exponential by design, cold in
    practice, and its set-iteration float sums would be painful to
    reproduce bitwise); the sort, the greedy walk and the RSOP pricing
    — the O(n log n) bulk — run on the kernels.  Randomness is drawn
    through the mechanism's own generator with the reference's exact
    call sequence, so fast and reference runs of equal seeds stay
    interchangeable mid-stream.
    """
    order = bid_order_indices(index)
    winners, lost, _ = greedy_walk(index, order)
    queries = instance.queries
    h_set = [queries[qi] for qi in winners]
    details: dict[str, object] = {
        "H": [q.query_id for q in h_set],
        "adjusted": False,
    }

    if (mechanism._adjust_ties and lost is not None and h_set
            and h_set[-1].bid == queries[lost].bid):
        v_boundary = queries[lost].bid
        tied = [q for q in queries if q.bid == v_boundary]
        keep = [q for q in h_set if q.bid != v_boundary]
        keep_ids = {q.query_id for q in keep}
        chosen = largest_fitting_subset(
            instance, keep_ids, tied, mechanism._exhaustive_limit)
        h_set = keep + chosen
        details["adjusted"] = True
        details["tied_block_size"] = len(tied)
        details["H"] = [q.query_id for q in h_set]

    payments = _random_sampling_prices(mechanism, h_set, details)
    return payments, details


def _random_sampling_prices(mechanism: TwoPrice, h_set, details):
    """Steps 4–6 with array pricing — the twin of
    :meth:`TwoPrice._random_sampling_prices`.

    The partition draw itself is shared code
    (:meth:`TwoPrice._partition`), so both paths consume the
    mechanism's randomness identically; only the pricing differs.
    """
    if not h_set:
        return {}
    side_a, side_b = mechanism._partition(h_set)
    price_a, _ = optimal_single_price_array(
        np.asarray([q.bid for q in side_a], dtype=np.float64))
    price_b, _ = optimal_single_price_array(
        np.asarray([q.bid for q in side_b], dtype=np.float64))
    details["A"] = [q.query_id for q in side_a]
    details["B"] = [q.query_id for q in side_b]
    details["price_A"] = price_a
    details["price_B"] = price_b
    payments: dict[str, float] = {}
    for query in side_b:
        if query.bid > price_a:
            payments[query.query_id] = price_a
    for query in side_a:
        if query.bid > price_b:
            payments[query.query_id] = price_b
    return payments

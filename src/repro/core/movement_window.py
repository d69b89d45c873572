"""Movement-window payments for the skip-over mechanisms (CAF+/CAT+).

Definitions 5–6 of the paper: a winning user *i*'s *movement window* is
how far down the priority list her query could slide (by lowering her
bid) while still being admitted by the skip-over greedy pass.  The
window ends at the first user *j* such that, if *i*'s bid repositioned
her directly after *j*, the pass would no longer admit *i*; that *j* is
``last(i)`` and the payment is

    p_i = C_i · b_last(i) / C_last(i)

in the mechanism's load measure ``C``.  If *i* could slide to the very
bottom and still win, ``last(i)`` is null and the payment is zero.

Computing ``last(i)`` naively re-runs the greedy pass once per candidate
position (O(n) passes of O(n) work per winner).  We instead observe that
in a skip-over pass, whether *i* is admitted at a given position depends
only on the admission state built from the queries *before* that
position with *i* removed.  One incremental pass over the order with *i*
deleted therefore yields the admission test for every candidate
position, making each winner O(n · |ops|) and the whole payment step
O(n²) — matching the quadratic runtime blow-up the paper reports for
CAF+/CAT+ in Table IV.

Along the replay, the admission test ``used + marginal(winner)`` is
non-decreasing: admitting any query raises ``used`` by its marginal
load, which is at least the amount it shaves off the winner's marginal
(the operators they share).  The first failing position is therefore
the *unique* transition — exactly the window boundary Definition 5
describes — and the linear scan finds it without needing to probe
later positions (``tests/core/test_movement_window.py`` asserts this
monotonicity on random instances).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.greedy import LoadMeasure, priority_of
from repro.core.loads import sequential_sum
from repro.core.model import AuctionInstance, Query


def find_last(
    instance: AuctionInstance,
    order: Sequence[Query],
    winner: Query,
) -> Query | None:
    """Return ``last(winner)`` for a skip-over pass over *order*.

    *order* is the full priority list (winners and losers).  The result
    is the first query *j* after *winner* such that repositioning
    *winner* directly after *j* makes her lose, or ``None`` if she wins
    from every position (payment zero).
    """
    position = next(
        idx for idx, q in enumerate(order)
        if q.query_id == winner.query_id
    )
    # Replay the pass without the winner, maintaining her marginal load
    # incrementally: each admission that starts one of her operators
    # shrinks it, making every per-position admission test O(1).
    capacity = instance.capacity
    winner_ops = set(winner.operator_ids)
    winner_margin = sequential_sum(
        instance.operator(op_id).load for op_id in winner.operator_ids)
    running: set[str] = set()
    used = 0.0

    def admit_if_fits(query: Query) -> None:
        nonlocal used, winner_margin
        margin = sequential_sum(
            instance.operator(op_id).load
            for op_id in query.operator_ids
            if op_id not in running
        )
        if used + margin > capacity + 1e-9:
            return
        used += margin
        for op_id in query.operator_ids:
            if op_id not in running:
                running.add(op_id)
                if op_id in winner_ops:
                    winner_margin -= instance.operator(op_id).load

    for query in order[:position]:
        admit_if_fits(query)
    for query in order[position + 1:]:
        admit_if_fits(query)
        # Winner repositioned directly after `query`: admitted iff she
        # fits the state built from everything up to and including it.
        if used + winner_margin > capacity + 1e-9:
            return query
    return None


def movement_window_payment(
    instance: AuctionInstance,
    order: Sequence[Query],
    winner: Query,
    load_measure: LoadMeasure,
) -> tuple[float, Query | None]:
    """Payment of *winner* under the movement-window rule.

    Returns ``(payment, last)`` where ``last`` is the query defining the
    price (``None`` → payment 0).
    """
    last = find_last(instance, order, winner)
    if last is None:
        return 0.0, None
    winner_load = load_measure(instance, winner)
    last_load = load_measure(instance, last)
    price_per_unit = priority_of(last.bid, last_load)
    payment = winner_load * price_per_unit
    # A zero-load `last` has infinite density and would always have been
    # admitted before `winner`; it cannot end a movement window unless
    # the winner's own load is zero too, in which case she pays nothing.
    if winner_load == 0.0:
        return 0.0, last
    return payment, last

"""Array-based auction kernels over an :class:`InstanceIndex`.

Each kernel is the exact computational twin of a pure-Python reference
routine — same float accumulation order, same tie-breaking, same
tolerance constants — just stripped of the dictionary lookups and set
unions that dominate the reference hot loops:

* :class:`FastTracker` ↔ :class:`repro.core.loads.LoadTracker`
  (admitted-operator bitmask instead of per-query set rebuilds);
* :func:`greedy_walk` ↔ :func:`repro.core.greedy.greedy_admit`;
* :func:`density_order` / :func:`bid_order_indices` ↔
  :func:`repro.core.greedy.priority_order` / :func:`repro.core.gv.bid_order`;
* :func:`skip_over_walk` (every winner in one pass) ↔
  :func:`repro.core.movement_window.find_last`;
* :func:`optimal_single_price_array` ↔
  :func:`repro.core.two_price.optimal_single_price`.

The differential suite (``tests/core/test_fastpath_differential.py``)
pins the equivalence on random shared-DAG instances.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.core.fastpath.index import InstanceIndex

#: Capacity-test slack, identical to the reference mechanisms'.
EPSILON = 1e-9


class FastTracker:
    """Incremental union-load accounting over operator *indices*.

    The fast twin of :class:`repro.core.loads.LoadTracker`: the running
    operator set is a ``bytearray`` bitmask over the index's operator
    slots, and marginal loads accumulate plain Python floats in each
    query's declared operator order — bitwise identical to the
    reference's set-based accounting (a Hypothesis property in
    ``tests/core/test_fastpath_index.py`` pins this under adversarial
    sharing).
    """

    __slots__ = ("_index", "_running", "used")

    def __init__(self, index: InstanceIndex) -> None:
        self._index = index
        self._running = bytearray(index.num_operators)
        self.used = 0.0

    def marginal(self, qi: int) -> float:
        """Remaining (marginal) load of admitting query *qi* now."""
        loads = self._index.op_loads_list
        running = self._running
        margin = 0.0
        for o in self._index.query_ops[qi]:
            if not running[o]:
                margin += loads[o]
        return margin

    def fits(self, qi: int) -> bool:
        """True if query *qi* fits in the remaining capacity."""
        return self.used + self.marginal(qi) <= self._index.capacity + EPSILON

    def admit(self, qi: int) -> float:
        """Admit query *qi*; returns the marginal load it added."""
        margin = self.marginal(qi)
        running = self._running
        for o in self._index.query_ops[qi]:
            running[o] = 1
        self.used += margin
        return margin

    def try_admit(self, qi: int) -> bool:
        """Admit query *qi* if it fits; one marginal-load computation."""
        margin = self.marginal(qi)
        if self.used + margin > self._index.capacity + EPSILON:
            return False
        running = self._running
        for o in self._index.query_ops[qi]:
            running[o] = 1
        self.used += margin
        return True

    def running_operator_ids(self) -> frozenset[str]:
        """The admitted operators as ids (diagnostics / tests)."""
        op_ids = self._index.op_ids
        return frozenset(
            op_ids[o] for o, bit in enumerate(self._running) if bit)


def density_priorities(index: InstanceIndex,
                       loads: np.ndarray) -> np.ndarray:
    """``b_i / C_i`` per query; ``inf`` where the load is zero.

    Vectorized :func:`repro.core.greedy.priority_of`: IEEE-754 division
    matches the scalar reference bit for bit, and the explicit
    zero-load mask reproduces its ``inf`` convention (even for a zero
    bid, where plain division would yield NaN).
    """
    zero = loads == 0.0
    # bid/load can overflow to inf (huge bid over denormal load) —
    # exactly what the scalar reference returns, minus the warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        priorities = np.divide(index.bids, np.where(zero, 1.0, loads))
    priorities[zero] = np.inf
    return priorities


def density_order(index: InstanceIndex, loads: np.ndarray) -> list[int]:
    """Query indices by non-increasing density, ties by query id."""
    priorities = density_priorities(index, loads)
    return np.lexsort((index.id_rank, -priorities)).tolist()


def bid_order_indices(index: InstanceIndex) -> list[int]:
    """Query indices by non-increasing bid, ties by query id."""
    return np.lexsort((index.id_rank, -index.bids)).tolist()


def select_screen(
    ids: "list[str] | np.ndarray",
    bids: np.ndarray,
    loads: np.ndarray,
    capacity: float,
) -> "tuple[np.ndarray, int, int | None]":
    """Bulk bid/load/capacity screen for single-select admission rows.

    The columnar pump's pre-screen: given one block of admission
    candidates — each a single private operator, so marginal load is
    just ``loads[i]`` — rank them by ``(-bid, query_id)`` and find how
    many fit.  Returns ``(order, winner_count, first_loser)`` where
    ``order`` is the full ranking, ``order[:winner_count]`` are the
    rows that survive to materialization, and ``first_loser`` is the
    row index that sets the critical price (``None`` when everything
    fits).

    Exactness: ``lexsort`` reproduces the reference ``(-bid, id)`` sort
    (numpy string compare agrees with Python's for these plain ids),
    ``cumsum`` accumulates float64 partial sums in the reference's
    left-to-right order, and the capacity test uses the same
    ``EPSILON`` slack — so winners and the critical price are bitwise
    identical to a per-object greedy walk over the same rows.
    """
    order = np.lexsort((np.asarray(ids), -bids))
    used = np.cumsum(loads[order])
    fits = used <= capacity + EPSILON
    if fits.all():
        return order, int(order.size), None
    winner_count = int(np.argmin(fits))
    return order, winner_count, int(order[winner_count])


def greedy_walk(
    index: InstanceIndex,
    order: list[int],
) -> tuple[list[int], "int | None", FastTracker]:
    """Admit queries from *order* until the first one that does not fit.

    The fast twin of :func:`repro.core.greedy.greedy_admit` (stop at
    the first loser; :func:`skip_over_walk` is the skip-over pass):
    returns ``(winners, first_loser, tracker)`` with winners in
    admission order and ``first_loser`` the query index that ended the
    walk, or ``None``.  The tracker's marginal-load test and admission
    are inlined.
    """
    tracker = FastTracker(index)
    running = tracker._running
    loads = index.op_loads_list
    query_ops = index.query_ops
    cap_eps = index.capacity + EPSILON
    used = 0.0
    winners: list[int] = []
    first_loser: "int | None" = None
    for qi in order:
        ops = query_ops[qi]
        margin = 0.0
        for o in ops:
            if not running[o]:
                margin += loads[o]
        if used + margin > cap_eps:
            first_loser = qi
            break
        used += margin
        for o in ops:
            running[o] = 1
        winners.append(qi)
    tracker.used = used
    return winners, first_loser, tracker


def skip_over_walk(
    index: InstanceIndex,
    order: list[int],
) -> "tuple[list[int], int | None, dict[int, int | None]]":
    """One skip-over pass over *order* and ``last(w)`` for every winner.

    *order* ranks every query of *index*, as :func:`density_order`
    does.  Returns ``(winners, first_loser, lasts)``: the winners and
    first loser of :func:`repro.core.greedy.greedy_admit` with
    ``skip_over=True``, plus the movement-window boundary
    :func:`repro.core.movement_window.find_last` would find for each
    winner.  That function replays the order from scratch per winner;
    here one walk records what every replay reads, and each replay is
    cut to where it can differ from it:

    * **Before the winner.**  The replay without winner ``w`` is the
      walk itself up to ``w``'s position ``p``; it starts from the
      used capacity the walk had there.
    * **Up to the first loser.**  The walk admitted every query before
      its first loser.  The replay without ``w`` admits them too, at
      the margins the walk recorded, except at the positions that
      first need one of the operators ``w`` activated again (at most
      ``|ops(w)|`` of them), where the margin is summed op by op.  So
      this stretch is the recurrence ``used += margin`` over recorded
      floats — the same additions and tests as the op-level replay,
      bit for bit.  If a fit test fails there (float rounding can
      make the replay's ``used`` outgrow the walk's), the op-level
      replay takes over from that position.
    * **From the first loser on**, the op-level replay, on a running
      mask rebuilt from the walk's operator activation indices.

    Queries whose operators are all unshared
    (``index.simple_queries``) admit at exactly their precomputed total
    load and cannot alter anyone else's marginal, so their mask updates
    are skipped.  The winner test ``used + winner_margin`` runs after
    every replayed position, admitted or not, as the reference's does:
    a test that already holds before the first position fires there
    only if admitting that position does not undo it.

    The winner's incrementally-shrinking marginal is reconstructed by
    subtracting already-running winner operators in *activation
    order* — the exact float-accumulation sequence of the reference —
    so results stay bitwise identical to
    :func:`repro.core.movement_window.find_last`.
    """
    n = len(order)
    num_ops = index.num_operators
    loads = index.op_loads_list
    query_ops = index.query_ops
    totals = index.total_loads_list
    simple = index.simple_queries
    cap_eps = index.capacity + EPSILON

    # The walk, recording each position's margin and the operator
    # activation count before it, and each winner's position and the
    # used capacity before it.
    never = num_ops  # activation index of never-activated operators
    act_index = [never] * num_ops
    act_before: list[int] = []
    margins: list[float] = []
    running = bytearray(num_ops)
    act_count = 0
    used = 0.0
    winners: list[int] = []
    placed: list[tuple[int, float]] = []
    lost = n  # position of the first loser
    for pos, qi in enumerate(order):
        act_before.append(act_count)
        if simple[qi]:
            margin = totals[qi]
        else:
            ops = query_ops[qi]
            margin = 0.0
            for o in ops:
                if not running[o]:
                    margin += loads[o]
        margins.append(margin)
        if used + margin > cap_eps:
            if lost == n:
                lost = pos
            continue
        winners.append(qi)
        placed.append((pos, used))
        used += margin
        if not simple[qi]:
            for o in ops:
                if not running[o]:
                    running[o] = 1
                    act_index[o] = act_count
                    act_count += 1
    act_before.append(act_count)
    first_loser = None if lost == n else order[lost]

    # next_use[o]: the second position holding a query with operator o
    # (n if none).  An operator first activated before the first loser
    # was activated at its first position, so a replay without its
    # activator needs it again at next_use[o].
    positions = np.empty(n, dtype=np.int64)
    positions[np.asarray(order, dtype=np.int64)] = np.arange(n)
    entry_pos = np.repeat(positions, np.diff(index.indptr))
    first = np.full(num_ops, n, dtype=np.int64)
    np.minimum.at(first, index.indices, entry_pos)
    later = entry_pos != first[index.indices]
    second = np.full(num_ops, n, dtype=np.int64)
    np.minimum.at(second, index.indices[later], entry_pos[later])
    next_use = second.tolist()
    activation = np.asarray(act_index, dtype=np.int64)

    # Per-position triples save two list indexings per replay step.
    items = [(qi, simple[qi], totals[qi]) for qi in order]

    lasts: dict[int, "int | None"] = {}
    for w, (p, used) in zip(winners, placed):
        before = act_before[p]
        w_ops = query_ops[w]
        winner_margin = totals[w]
        already = sorted(
            (act_index[o], o) for o in w_ops if act_index[o] < before)
        for _, o in already:
            winner_margin -= loads[o]

        # Admissions keep `used <= cap_eps`, so once the winner's
        # marginal is non-positive the test can never fire again.
        if winner_margin <= 0.0:
            lasts[w] = None
            continue
        # The operators w activated: not running in the replay until a
        # later query brings them in.
        pending = {o for o in w_ops if act_index[o] >= before}
        reuses = iter(sorted({next_use[o] for o in pending}))
        reuse = next(reuses, n)
        last: "int | None" = None
        start = max(p + 1, lost)  # where the op-level replay begins
        for k in range(p + 1, lost):
            if k != reuse:
                margin = margins[k]
                if used + margin > cap_eps:
                    start = k
                    break
                used += margin
            else:
                reuse = next(reuses, n)
                ops = query_ops[order[k]]
                now = act_before[k]
                margin = 0.0
                for o in ops:
                    if act_index[o] >= now or o in pending:
                        margin += loads[o]
                if used + margin > cap_eps:
                    start = k
                    break
                used += margin
                for o in ops:
                    if o in pending:
                        pending.discard(o)
                        winner_margin -= loads[o]
                if winner_margin <= 0.0:
                    start = n
                    break
            if used + winner_margin > cap_eps:
                last = order[k]
                start = n
                break

        if start < n:
            running = bytearray(
                (activation < act_before[start]).tobytes())
            for o in pending:
                running[o] = 0
            for qi, is_simple, total in islice(items, start, None):
                if is_simple:
                    margin = total
                    if used + margin <= cap_eps:
                        used += margin
                else:
                    ops = query_ops[qi]
                    margin = 0.0
                    for o in ops:
                        if not running[o]:
                            margin += loads[o]
                    if used + margin <= cap_eps:
                        used += margin
                        for o in ops:
                            if not running[o]:
                                running[o] = 1
                                if o in pending:
                                    winner_margin -= loads[o]
                        if winner_margin <= 0.0:
                            break
                if used + winner_margin > cap_eps:
                    last = qi
                    break
        lasts[w] = last
    return winners, first_loser, lasts


def optimal_single_price_array(values: np.ndarray) -> tuple[float, float]:
    """Best uniform price on a bid array — O(n log n), exact.

    The vectorized twin of
    :func:`repro.core.two_price.optimal_single_price`: sort descending
    once, form ``rank × value`` in one multiply, take the *first*
    argmax (the reference's strict-improvement scan keeps the earliest
    maximum).  Products are ``int × float64`` either way, so prices and
    revenues are bitwise identical.
    """
    n = int(values.size)
    if n == 0:
        return float("inf"), 0.0
    ordered = np.sort(values)[::-1]
    revenues = np.arange(1, n + 1, dtype=np.int64) * ordered
    best = int(np.argmax(revenues))
    if not revenues[best] > 0.0:
        return float("inf"), 0.0
    return float(ordered[best]), float(revenues[best])

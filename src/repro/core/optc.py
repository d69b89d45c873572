"""OPT_C — the optimal constant pricing benchmark (Section IV-D).

A *constant pricing mechanism* charges one price ``p``: users bidding
strictly above ``p`` must win and pay ``p``, users bidding strictly
below must lose, and users bidding exactly ``p`` may be placed either
way.  A price is *valid* only if the winners fit within capacity.
``OPT_C`` is the maximum profit of any valid constant price —
the benchmark Two-price's guarantee is stated against (Theorem 11).

The optimum is attained at one of the submitted bid values: raising
``p`` toward the next higher bid keeps the winner set (and validity)
unchanged while increasing per-winner revenue.  We therefore scan the
distinct bids in decreasing order, growing the mandatory winner set
incrementally; the first price whose mandatory winners no longer fit
ends the scan.  Users tied at ``p`` are packed by exhaustive search
below a size threshold and by a marginal-load greedy above it (with
operator sharing, maximal tie-packing contains Section III's
densest-subgraph case, so no polynomial exact packer is known).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.core.mechanism import Mechanism
from repro.core.model import AuctionInstance, Query


@dataclass(frozen=True)
class ConstantPricing:
    """A valid constant price with its winner set and profit."""

    price: float
    winner_ids: tuple[str, ...]
    profit: float


def _pack_tied(
    instance: AuctionInstance,
    running_ops: set[str],
    used: float,
    tied: list[Query],
    exhaustive_limit: int,
) -> list[Query]:
    """Largest (or greedily large) subset of *tied* fitting in the
    remaining capacity, given the operators already running."""
    capacity = instance.capacity

    def margin_of(query: Query, running: set[str]) -> float:
        return sum(
            instance.operator(op_id).load
            for op_id in query.operator_ids
            if op_id not in running
        )

    if len(tied) <= exhaustive_limit:
        for size in range(len(tied), 0, -1):
            for subset in combinations(tied, size):
                running = set(running_ops)
                total = used
                for query in subset:
                    total += margin_of(query, running)
                    running.update(query.operator_ids)
                if total <= capacity + 1e-9:
                    return list(subset)
        return []
    # Greedy: cheapest first by marginal load at the start, single pass.
    ordered = sorted(
        tied, key=lambda q: (margin_of(q, running_ops), q.query_id))
    chosen: list[Query] = []
    running = set(running_ops)
    total = used
    for query in ordered:
        margin = margin_of(query, running)
        if total + margin <= capacity + 1e-9:
            total += margin
            running.update(query.operator_ids)
            chosen.append(query)
    return chosen


def optimal_constant_pricing(
    instance: AuctionInstance,
    exhaustive_limit: int = 12,
) -> ConstantPricing:
    """Return the best valid constant pricing for *instance*.

    The degenerate "sell to nobody" pricing (profit 0, price above every
    bid) is always valid and is returned when nothing better exists.
    """
    groups: dict[float, list[Query]] = {}
    for query in instance.queries:
        groups.setdefault(query.bid, []).append(query)
    best = ConstantPricing(price=float("inf"), winner_ids=(), profit=0.0)

    running_ops: set[str] = set()
    used = 0.0
    above_ids: list[str] = []
    for price in sorted(groups, reverse=True):
        # `running_ops`/`used`/`above_ids` currently describe exactly
        # the users bidding strictly above `price`.
        if used > instance.capacity + 1e-9:
            break  # mandatory winners no longer fit; nor will they below
        tied = groups[price]
        packed = _pack_tied(
            instance, running_ops, used, tied, exhaustive_limit)
        winner_ids = tuple(sorted(
            above_ids + [q.query_id for q in packed]))
        profit = price * len(winner_ids)
        if profit > best.profit:
            best = ConstantPricing(price, winner_ids, profit)
        # Absorb this bid level into the mandatory set for lower prices.
        for query in tied:
            for op_id in query.operator_ids:
                if op_id not in running_ops:
                    running_ops.add(op_id)
                    used += instance.operator(op_id).load
            above_ids.append(query.query_id)
    return best


class OptimalConstantPrice(Mechanism):
    """OPT_C packaged as a mechanism for the experiment harness.

    This is a *benchmark*, not a strategyproof mechanism: it uses the
    submitted bids as if they were true valuations and extracts the
    maximum uniform-price revenue from them.
    """

    name = "OPT_C"
    bid_strategyproof = False
    sybil_immune = False
    profit_guarantee = True

    def __init__(self, exhaustive_limit: int = 12) -> None:
        self._exhaustive_limit = exhaustive_limit

    def _select(self, instance: AuctionInstance):
        pricing = optimal_constant_pricing(instance, self._exhaustive_limit)
        payments = {qid: pricing.price for qid in pricing.winner_ids}
        details = {
            "price": pricing.price,
            "profit": pricing.profit,
        }
        return payments, details

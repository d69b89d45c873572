"""The randomized Two-price mechanism (Algorithm 3, Section IV-D).

Two-price is the paper's mechanism with a provable profit guarantee: it
is bid-strategyproof (Theorem 10) and its expected profit is at least
``OPT_C − 2h`` (Theorem 11), where ``OPT_C`` is the optimal *constant
pricing* profit and ``h`` the largest valuation.  The construction:

1–2. Sort by valuation and take ``H``, the maximal prefix that fits
     within capacity; ``v_L`` is the valuation of the first loser.
3.   If valuations tie across the ``H``/``L`` boundary, replace the tied
     block by the **largest subset of tied users that fits** alongside
     the strictly-higher ones — an exhaustive search, exponential in the
     number ``d`` of tied users.  Omitting this step gives the
     polynomial-time variant with the weaker ``OPT_C − d·h`` guarantee
     (Theorem 12).
4–6. Randomly halve ``H`` into ``A`` and ``B``; compute each half's
     optimal constant price; sell to each half at the *other* half's
     price (the Random Sampling Optimal Price auction of Goldberg et
     al.).

Because winners and payments never look at query loads, the mechanism
is strategyproof outright — but it is *not* sybil-immune (Theorem 20).
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np

from repro.core.greedy import greedy_admit
from repro.core.gv import bid_order
from repro.core.mechanism import Mechanism
from repro.core.model import AuctionInstance, Query
from repro.utils.rng import spawn_rng


def optimal_single_price(
    values: list[float], presorted: bool = False
) -> tuple[float, float]:
    """Best uniform price for a bid multiset: ``max_i i * v_(i)``.

    *values* need not be sorted.  Returns ``(price, revenue)`` where
    selling to every bidder with value >= price yields *revenue*.  For
    an empty list the price is ``inf`` (sell to nobody) and revenue 0.

    Callers evaluating many candidate multisets (profit sweeps, the
    guarantee experiments) can sort once and pass
    ``presorted=True`` — *values* must then already be in
    non-increasing order, and the O(n log n) re-sort per call is
    skipped.  :func:`repro.core.fastpath.optimal_single_price_array`
    is the vectorized twin.
    """
    if not values:
        return float("inf"), 0.0
    ordered = values if presorted else sorted(values, reverse=True)
    best_revenue = 0.0
    best_price = float("inf")
    for rank, value in enumerate(ordered, start=1):
        revenue = rank * value
        if revenue > best_revenue:
            best_revenue = revenue
            best_price = value
    return best_price, best_revenue


def largest_fitting_subset(
    instance: AuctionInstance,
    base_ids: set[str],
    candidates: list[Query],
    exhaustive_limit: int,
) -> list[Query]:
    """Largest subset of *candidates* fitting together with *base_ids*.

    Step 3 of Algorithm 3.  Exhaustive when ``len(candidates)`` is at
    most *exhaustive_limit* (the exponential search the paper allows);
    otherwise a marginal-load greedy approximation, which keeps large
    tie sets polynomial (``TestLargestFittingSubset`` pins both).
    """
    capacity = instance.capacity
    base_ops: set[str] = set()
    for qid in base_ids:
        base_ops.update(instance.query(qid).operator_ids)
    base_used = sum(instance.operator(op).load for op in base_ops)

    def margin_of(query: Query, running: set[str]) -> float:
        return sum(
            instance.operator(op_id).load
            for op_id in query.operator_ids
            if op_id not in running
        )

    if len(candidates) <= exhaustive_limit:
        for size in range(len(candidates), 0, -1):
            for subset in combinations(candidates, size):
                running = set(base_ops)
                used = base_used
                for query in subset:
                    used += margin_of(query, running)
                    running.update(query.operator_ids)
                if used <= capacity + 1e-9:
                    return list(subset)
        return []
    # Greedy fallback: cheapest marginal load first, single pass.
    ordered = sorted(
        candidates, key=lambda q: (margin_of(q, base_ops), q.query_id))
    chosen: list[Query] = []
    running = set(base_ops)
    used = base_used
    for query in ordered:
        margin = margin_of(query, running)
        if used + margin <= capacity + 1e-9:
            used += margin
            running.update(query.operator_ids)
            chosen.append(query)
    return chosen


class TwoPrice(Mechanism):
    """The randomized Two-price mechanism.

    Parameters
    ----------
    seed:
        Seed (or Generator) for the random halving in Step 4.  Fixing it
        makes experiment runs reproducible.
    adjust_ties:
        Run Step 3 (the boundary-tie adjustment).  ``False`` gives the
        polynomial-time variant of Theorem 12.
    exhaustive_limit:
        Largest tied-block size for which Step 3 searches exhaustively;
        larger blocks fall back to a marginal-load greedy.
    partition_mode:
        ``"even"`` (default) halves ``H`` exactly, as Algorithm 3's
        Step 4 prescribes.  ``"coin"`` assigns each query to A or B by
        an independent fair coin — the variant Section V-C analyzes
        when showing the mechanism stays sybil-vulnerable.  ``"hash"``
        assigns each query by a salted hash of its id: still a fair
        independent coin over the salt, but *fixed per query* within
        one mechanism instance, independent of bids.  Conditioning on
        the partition this way makes each realization individually
        bid-strategyproof (the standard RSOP argument), which the
        strategyproofness tests exploit to compare payoffs exactly
        instead of estimating noisy expectations.
    """

    name = "Two-price"
    bid_strategyproof = True
    sybil_immune = False
    profit_guarantee = True

    def __init__(
        self,
        seed: "int | np.random.Generator | None" = None,
        adjust_ties: bool = True,
        exhaustive_limit: int = 16,
        partition_mode: str = "even",
    ) -> None:
        if partition_mode not in ("even", "coin", "hash"):
            raise ValueError(
                f"partition_mode must be 'even', 'coin' or 'hash', "
                f"got {partition_mode!r}")
        self._salt = seed if isinstance(seed, int) else 0
        self._rng = spawn_rng(seed)
        self._adjust_ties = adjust_ties
        self._exhaustive_limit = exhaustive_limit
        self._partition_mode = partition_mode

    def _select(self, instance: AuctionInstance):
        order = bid_order(instance)
        selection = greedy_admit(instance, order, skip_over=False)
        h_set = list(selection.winners)
        details: dict[str, object] = {
            "H": [q.query_id for q in h_set],
            "adjusted": False,
        }

        lost = selection.first_loser
        if (self._adjust_ties and lost is not None and h_set
                and h_set[-1].bid == lost.bid):
            v_boundary = lost.bid
            tied = [q for q in instance.queries if q.bid == v_boundary]
            keep = [q for q in h_set if q.bid != v_boundary]
            keep_ids = {q.query_id for q in keep}
            chosen = largest_fitting_subset(
                instance, keep_ids, tied, self._exhaustive_limit)
            h_set = keep + chosen
            details["adjusted"] = True
            details["tied_block_size"] = len(tied)
            details["H"] = [q.query_id for q in h_set]

        payments = self._random_sampling_prices(h_set, details)
        return payments, details

    def _partition(
        self, h_set: list[Query]
    ) -> tuple[list[Query], list[Query]]:
        """Steps 4–5: split ``H`` into the two price-sample halves.

        The single source of the partition draw — the fast selection
        kernel calls this too, so both paths consume the mechanism's
        randomness identically and a future partition-mode change
        cannot diverge them.
        """
        if self._partition_mode == "even":
            permutation = list(self._rng.permutation(len(h_set)))
            half = len(h_set) // 2
            side_a = [h_set[i] for i in permutation[:half]]
            side_b = [h_set[i] for i in permutation[half:]]
        elif self._partition_mode == "coin":
            flips = self._rng.random(len(h_set)) < 0.5
            side_a = [q for q, in_a in zip(h_set, flips) if in_a]
            side_b = [q for q, in_a in zip(h_set, flips) if not in_a]
        else:  # hash: per-query fair coin, fixed by (salt, query id)
            side_a, side_b = [], []
            for query in h_set:
                digest = hashlib.sha256(
                    f"{self._salt}:{query.query_id}".encode()).digest()
                (side_a if digest[0] % 2 == 0 else side_b).append(query)
        return side_a, side_b

    def _random_sampling_prices(
        self,
        h_set: list[Query],
        details: dict[str, object],
    ) -> dict[str, float]:
        """Steps 4–6: halve H, cross-apply each half's optimal price."""
        if not h_set:
            return {}
        side_a, side_b = self._partition(h_set)
        bids_a = sorted((q.bid for q in side_a), reverse=True)
        bids_b = sorted((q.bid for q in side_b), reverse=True)
        price_a, _ = optimal_single_price(bids_a, presorted=True)
        price_b, _ = optimal_single_price(bids_b, presorted=True)
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

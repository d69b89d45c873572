"""Shared implementation of the density-based mechanisms.

CAF, CAF+, CAT and CAT+ are one algorithm family (Section IV):
priorities are bids per unit load, with the family members differing in

* the **load measure** — static fair-share load ``C^SF`` (CAF/CAF+,
  Definition 3) versus total load ``C^T`` (CAT/CAT+), and
* the **admission walk** — stop at the first query that does not fit
  (CAF/CAT) versus skip over it and keep scanning (CAF+/CAT+).

Payments follow the walk: the stop-at-first variants charge every
winner the first loser's density times the winner's load (Algorithm 1,
step 5); the skip-over variants use the movement-window rule
(Algorithm 2, Definitions 5–6).
"""

from __future__ import annotations

from repro.core.greedy import (
    LoadMeasure,
    greedy_admit,
    priority_of,
    priority_order,
)
from repro.core.mechanism import Mechanism
from repro.core.model import AuctionInstance
from repro.core.movement_window import movement_window_payment


class DensityMechanism(Mechanism):
    """Stop-at-first density mechanism (the CAF / CAT shape).

    Winners are the maximal fitting prefix of the density order; every
    winner *i* pays ``C_i · b_lost / C_lost`` where ``lost`` is the
    first query that did not fit.  If every query fits, the critical
    value of each winner is zero and nobody pays.
    """

    load_measure: LoadMeasure

    def _select(self, instance: AuctionInstance):
        order = priority_order(instance, self.load_measure)
        selection = greedy_admit(instance, order, skip_over=False)
        lost = selection.first_loser
        details: dict[str, object] = {
            "priority_order": [q.query_id for q in order],
            "first_loser": None if lost is None else lost.query_id,
        }
        if lost is None:
            payments = {q.query_id: 0.0 for q in selection.winners}
            return payments, details
        price_per_unit = priority_of(
            lost.bid, self.load_measure(instance, lost))
        details["price_per_unit_load"] = price_per_unit
        payments = {
            q.query_id: self.load_measure(instance, q) * price_per_unit
            for q in selection.winners
        }
        return payments, details


class SkipOverDensityMechanism(Mechanism):
    """Skip-over density mechanism (the CAF+ / CAT+ shape).

    The admission walk continues past queries that do not fit, "hoping
    to find later, lower load, queries that will fit"; each winner pays
    according to her movement window.
    """

    load_measure: LoadMeasure
    superlinear_reference = True

    def _select(self, instance: AuctionInstance):
        order = priority_order(instance, self.load_measure)
        selection = greedy_admit(instance, order, skip_over=True)
        payments: dict[str, float] = {}
        last_map: dict[str, str | None] = {}
        for winner in selection.winners:
            payment, last = movement_window_payment(
                instance, order, winner, self.load_measure)
            payments[winner.query_id] = payment
            last_map[winner.query_id] = None if last is None else last.query_id
        details = {
            "priority_order": [q.query_id for q in order],
            "first_loser": (None if selection.first_loser is None
                            else selection.first_loser.query_id),
            "last": last_map,
        }
        return payments, details

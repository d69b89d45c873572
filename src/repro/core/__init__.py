"""Core auction model and the paper's admission-control mechanisms.

Public surface:

* data model — :class:`Operator`, :class:`Query`,
  :class:`AuctionInstance`, :class:`AuctionOutcome`;
* load measures — :func:`total_load`, :func:`static_fair_share_load`,
  :func:`remaining_load`;
* mechanisms — :class:`CAR`, :class:`CAF`, :class:`CAFPlus`,
  :class:`CAT`, :class:`CATPlus`, :class:`GreedyByValuation`,
  :class:`TwoPrice`, :class:`RandomAdmission`,
  :class:`OptimalConstantPrice`, plus the name-based registry
  (:func:`make_mechanism`).
"""

from repro.core.caf import CAF, CAFPlus
from repro.core.car import CAR
from repro.core.cat import CAT, CATPlus
from repro.core.gv import GreedyByValuation
from repro.core.loads import (
    LoadTracker,
    remaining_load,
    static_fair_share_load,
    total_load,
)
from repro.core.mechanism import (
    Mechanism,
    MechanismSpec,
    make_mechanism,
    mechanism_params,
    register_mechanism,
    registered_mechanisms,
    resolve_mechanism,
)
from repro.core.model import AuctionInstance, Operator, Query
from repro.core.selection import (
    FastSelection,
    ReferenceSelection,
    SelectionPath,
    resolve_selection,
)
from repro.core.optc import (
    ConstantPricing,
    OptimalConstantPrice,
    optimal_constant_pricing,
)
from repro.core.exact import (
    ExactSolution,
    greedy_value_gap,
    optimal_winner_set,
)
from repro.core.random_admission import RandomAdmission
from repro.core.result import AuctionOutcome
from repro.core.special_cases import KnapsackAuction, KUnitAuction
from repro.core.two_price import TwoPrice, optimal_single_price

register_mechanism("CAR", CAR)
register_mechanism("CAF", CAF)
register_mechanism("CAF+", CAFPlus)
register_mechanism("CAT", CAT)
register_mechanism("CAT+", CATPlus)
register_mechanism("GV", GreedyByValuation)
register_mechanism("Two-price", TwoPrice)
register_mechanism("Random", RandomAdmission)
register_mechanism("OPT_C", OptimalConstantPrice)
register_mechanism("k-unit", KUnitAuction)
register_mechanism("knapsack", KnapsackAuction)

#: The mechanism line-up of the paper's evaluation (Section VI).
PAPER_MECHANISMS = ("CAF", "CAF+", "CAT", "CAT+", "Two-price")

__all__ = [
    "AuctionInstance",
    "AuctionOutcome",
    "CAF",
    "CAFPlus",
    "CAR",
    "CAT",
    "CATPlus",
    "ConstantPricing",
    "ExactSolution",
    "FastSelection",
    "GreedyByValuation",
    "KUnitAuction",
    "KnapsackAuction",
    "LoadTracker",
    "Mechanism",
    "MechanismSpec",
    "Operator",
    "OptimalConstantPrice",
    "PAPER_MECHANISMS",
    "Query",
    "RandomAdmission",
    "ReferenceSelection",
    "SelectionPath",
    "TwoPrice",
    "greedy_value_gap",
    "make_mechanism",
    "mechanism_params",
    "optimal_constant_pricing",
    "optimal_single_price",
    "optimal_winner_set",
    "register_mechanism",
    "resolve_mechanism",
    "resolve_selection",
    "registered_mechanisms",
    "remaining_load",
    "static_fair_share_load",
    "total_load",
]

"""Subscription lifecycles on a live admission service.

This module runs Section VII's multi-period category auctions (the
category mix is :mod:`repro.cloud.subscriptions`) as *first-class
period events* of an :class:`~repro.service.AdmissionService`:

* arrivals request a category (day / week / month); the period
  boundary runs one independent auction per category over the
  currently *free* capacity, partitioned by the category fractions;
* winners are invoiced through the service's
  :class:`~repro.cloud.billing.BillingLedger` (the outcome's mechanism
  name is tagged ``"<mechanism>@<category>"``, so revenue audits
  split by category) and admitted into the stream engine, where they
  run — untouched by later auctions — until their subscription
  expires;
* at expiry the driver reclaims their capacity (the engine drops the
  plans, shared operators only once nobody else holds them) and, when
  auto-renewal is on, resubmits the query for the same category at
  the very next boundary.

Because each per-category auction uses a bid-strategyproof mechanism
and an active subscription is never re-priced, the scheme stays
bid-strategyproof period over period (the invariant suite pins this);
gaming *category choice* remains the paper's open problem.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from collections.abc import Mapping, Sequence
from math import isfinite

import numpy as np

from repro.cloud.subscriptions import (
    DEFAULT_CATEGORIES,
    SubscriptionCategory,
    validate_categories,
)
from repro.core.mechanism import Mechanism
from repro.core.model import AuctionInstance, Operator
from repro.core.result import AuctionOutcome
from repro.dsms.load import estimate_operator_loads
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.sim.arrivals import SelectPlan, as_continuous_query
from repro.sim.columnar import (
    ColumnarSelectInstance,
    RowChunk,
    _auction_candidate,
)
from repro.sim.trace import as_select_plan
from repro.utils.records import share_on_deepcopy
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.validation import ValidationError, require


@dataclass(frozen=True)
class SubscriptionOptions:
    """Declarative settings of the subscription lifecycle.

    Every category auctions with its own deep copy of the shard
    service's mechanism, so randomized mechanisms hold independent RNG
    streams.  ``auto_renew`` resubmits expiring subscriptions for
    their old category; ``max_renewals`` bounds how often (``None`` =
    forever).  ``seed`` drives the category assignment of arrivals
    that did not request one.
    """

    categories: Sequence[SubscriptionCategory] = DEFAULT_CATEGORIES
    auto_renew: bool = True
    max_renewals: "int | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "categories", validate_categories(self.categories))
        if self.max_renewals is not None:
            require(int(self.max_renewals) >= 0,
                    "max_renewals must be >= 0")


@dataclass
class SubscriptionEntry:
    """One live subscription occupying capacity until it expires."""

    query: ContinuousQuery
    category: str
    start_period: int
    expires_period: int
    payment: float
    renewals: int = 0


@dataclass(frozen=True)
class SubscriptionPeriodResult:
    """What one period boundary did to a shard's subscription book."""

    period: int
    outcomes: Mapping[str, AuctionOutcome] = field(default_factory=dict)
    admitted: tuple[str, ...] = ()
    rejected: tuple[str, ...] = ()
    expired: tuple[str, ...] = ()
    revenue: float = 0.0
    reclaimed_capacity: float = 0.0
    held_capacity: float = 0.0

    __deepcopy__ = share_on_deepcopy


class SubscriptionManager:
    """The subscription book of one admission service (one shard).

    Owns the per-category mechanisms, the active-subscription entries
    and the category-assignment RNG; everything is plain picklable
    state, so the book rides inside simulation snapshots and resumes
    byte-identically.
    """

    def __init__(
        self,
        options: SubscriptionOptions,
        service_mechanism: Mechanism,
        shard: int = 0,
    ) -> None:
        self.options = options
        self.shard = int(shard)
        self.mechanisms: dict[str, Mechanism] = {
            category.name: copy.deepcopy(service_mechanism)
            for category in options.categories}
        self.active: dict[str, SubscriptionEntry] = {}
        self._rng = spawn_rng(
            derive_seed(options.seed, "categories", self.shard))
        self.expired_total = 0
        self.renewed_total = 0
        #: query id → how many times it renewed (drives max_renewals).
        self.renewal_counts: dict[str, int] = {}

    @property
    def categories(self) -> tuple[SubscriptionCategory, ...]:
        """The offered category mix, in declared order."""
        return tuple(self.options.categories)

    def category(self, name: str) -> SubscriptionCategory:
        """The category called *name* (validated)."""
        for category in self.options.categories:
            if category.name == name:
                return category
        known = ", ".join(c.name for c in self.options.categories)
        raise ValidationError(
            f"unknown subscription category {name!r}; offered: {known}")

    def assign_category(self, query: ContinuousQuery) -> str:
        """Draw a category for an arrival that did not request one.

        Weighted by the capacity fractions — bigger slices attract
        proportionally more of the anonymous demand.
        """
        return self.assign_categories(1)[0]

    def assign_categories(self, count: int) -> list[str]:
        """Draw categories for *count* anonymous arrivals at once.

        One vectorized draw consuming the assignment RNG exactly as
        *count* sequential :meth:`assign_category` calls would (a
        ``Generator``'s block draw is bit-identical to the same number
        of scalar draws), so row and per-event admission assign
        identical categories.
        """
        categories = self.options.categories
        bounds = []
        acc = 0.0
        for category in categories:
            acc += category.capacity_fraction
            bounds.append(acc)
        picks = self._rng.random(int(count)) * acc
        indices = np.searchsorted(
            np.asarray(bounds), picks, side="right")
        indices = np.minimum(indices, len(categories) - 1)
        return [categories[index].name for index in indices.tolist()]

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    def _estimated_loads(
        self,
        plans: Sequence[ContinuousQuery],
        stream_rates: Mapping[str, float],
    ) -> dict[str, float]:
        single = _single_select_loads_ex(plans, stream_rates)
        if single is not None:
            return single[0]
        catalog = QueryPlanCatalog(
            [as_continuous_query(plan) for plan in plans])
        return estimate_operator_loads(catalog, stream_rates)

    def _held_operators(self) -> set[str]:
        """Every operator some active subscription's plan runs."""
        held_ops: set[str] = set()
        for entry in self.active.values():
            held_ops.update(entry.query.operator_ids)
        return held_ops

    def _held(self, loads: Mapping[str, float]) -> float:
        """Union load of the active book under *loads*.

        Shared operators are counted once — the engine runs them once.
        """
        return sum(loads.get(op_id, 0.0) for op_id in self._held_operators())

    def held_capacity(
        self, stream_rates: Mapping[str, float]
    ) -> float:
        """Estimated union load of every active subscription's plan."""
        if not self.active:
            return 0.0
        return self._held(self._estimated_loads(
            [entry.query for entry in self.active.values()], stream_rates))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def expire(
        self,
        service,
        query_ids: Sequence[str],
        stream_rates: Mapping[str, float],
    ) -> tuple[list[SubscriptionEntry], float]:
        """Close the given subscriptions and reclaim their capacity.

        The engine drops the expired plans (a warm engine goes through
        the full transition phase); returns the closed entries and the
        capacity their operators released — the load of every operator
        no remaining subscription still shares.
        """
        entries = []
        before = self.held_capacity(stream_rates)
        for query_id in query_ids:
            if query_id not in self.active:
                raise ValidationError(
                    f"cannot expire unknown subscription {query_id!r}")
            entries.append(self.active.pop(query_id))
        reclaimed = before - self.held_capacity(stream_rates)
        engine = service.engine
        to_remove = tuple(
            entry.query.query_id for entry in entries
            if entry.query.query_id in engine.admitted_ids)
        if to_remove:
            engine.transition(remove=to_remove)
        self.expired_total += len(entries)
        return entries, reclaimed

    def run_period(
        self,
        service,
        period: int,
        pending: Sequence[tuple[ContinuousQuery, str]],
    ) -> SubscriptionPeriodResult:
        """Run the per-category auctions of one period boundary.

        *pending* are the (query, category) requests that arrived since
        the last boundary (including renewals); per category the last
        request for an id wins.  Active subscriptions do not re-bid:
        their capacity is held, their shared operators cost newcomers
        nothing extra (zero-load in the auction input), and winners are
        billed through the service's ledger and admitted into its
        engine.  This object builder is the reference the columnar
        :meth:`run_period_rows` is held to.
        """
        for _query, category_name in pending:
            self.category(category_name)  # validate early
        # A request for an id the book holds active is refused
        # unauctioned: a win would bill it twice and admit it twice.
        rejected = sorted({query.query_id for query, _category in pending
                           if query.query_id in self.active})
        if rejected:
            pending = [(query, name) for query, name in pending
                       if query.query_id not in self.active]
        stream_rates = {source.name: source.expected_rate()
                        for source in service.sources}
        all_plans = ([entry.query for entry in self.active.values()]
                     + [query for query, _category in pending])
        loads = self._estimated_loads(all_plans, stream_rates)
        held_ops = self._held_operators()

        def priced(op_id: str) -> Operator:
            return Operator._trusted(
                op_id, 0.0 if op_id in held_ops else loads.get(op_id, 0.0))

        # Operators whose load overflowed (``cost × rate`` past the
        # largest float); a held one costs newcomers nothing.
        overflowed = {op_id for op_id, load in loads.items()
                      if not isfinite(load)} - held_ops

        auctions = []
        seen: set[str] = set()
        for category in self.options.categories:
            plans = {query.query_id: query for query, name in pending
                     if name == category.name}
            # An id pending in several categories competes only in the
            # first: two wins would bill it twice and admit it twice.
            for query_id in seen.intersection(plans):
                del plans[query_id]
                rejected.append(query_id)
            seen.update(plans)
            if overflowed:
                # A candidate holding an overflowed operator is left out
                # and reported rejected, as AuctionCoordinator.build does.
                for query_id, query in list(plans.items()):
                    if not overflowed.isdisjoint(query.operator_ids):
                        del plans[query_id]
                        rejected.append(query_id)
            if not plans:
                continue
            # Pending plans were validated on entry: the trusted assembler
            # (validating costs ~10µs per candidate, more than the auction
            # itself).  Held operators cost newcomers nothing.
            auctions.append((category, plans.items(), partial(
                AuctionInstance._assemble,
                tuple(map(_auction_candidate, plans.values())),
                priced=priced)))
        return self._settle(service, period, self._held(loads), rejected,
                            auctions)

    def run_period_rows(
        self,
        service,
        period: int,
        pending: Sequence,
    ) -> "tuple[SubscriptionPeriodResult, dict]":
        """Columnar twin of :meth:`run_period` over a mixed pending list.

        *pending* interleaves ``(query, category)`` pairs (renewals,
        object-path arrivals) with :class:`~repro.sim.columnar.RowChunk`
        row slices the pump parked, in arrival order.  The loads, the
        held capacity, and every per-category auction run over flat
        columns; ``SelectPlan`` objects materialize for winners only
        (the losers' ids already exist as strings).  Whenever the rows
        leave the shape the columnar math pins bitwise — duplicate ids
        or operators, operators feeding operators, shapes the
        single-select load estimate cannot cover — the whole boundary
        falls back to :meth:`run_period` on the expanded object list,
        so the result is the reference result by construction either
        way.

        Returns ``(result, stats)`` with ``stats`` the pump counters
        for this boundary (``winners``, ``fell_back``).
        """
        ids: list[str] = []
        ops: list[str] = []
        inputs: list[str] = []
        owners: list[str] = []
        sels: list = []
        valuations: list = []
        objs: list = []
        cats: list[str] = []
        cost_list: list[float] = []
        bid_list: list[float] = []
        for item in pending:
            if type(item) is RowChunk:
                block = item.block
                start, stop = item.start, item.stop
                rows = stop - start
                ids.extend(block.ids[start:stop])
                ops.extend(block.ops[start:stop])
                owners.extend(block.owners[start:stop])
                block_inputs = block.inputs
                if type(block_inputs) is str:
                    inputs.extend([block_inputs] * rows)
                else:
                    inputs.extend(block_inputs[start:stop])
                block_sels = block.selectivities
                if isinstance(block_sels, float):
                    sels.extend([block_sels] * rows)
                else:
                    sels.extend(block_sels[start:stop])
                block_vals = block.valuations
                valuations.extend([None] * rows if block_vals is None
                                  else block_vals[start:stop])
                objs.extend([None] * rows)
                cost_list.extend(block.costs[start:stop].tolist())
                bid_list.extend(block.bids[start:stop].tolist())
                cats.extend(item.categories)
            else:
                query, name = item
                plan = as_select_plan(query)
                if plan is None:
                    return self._run_period_fallback(service, period,
                                                     pending)
                ids.append(plan.query_id)
                ops.append(plan.op_id)
                owners.append(plan.owner)
                inputs.append(plan.stream)
                sels.append(plan.selectivity)
                valuations.append(plan.valuation)
                objs.append(query)
                cost_list.append(plan.cost)
                bid_list.append(plan.bid)
                cats.append(name)

        row_count = len(ids)

        # Category validation first, in arrival order — the reference's
        # error surfaces before any other work.
        known = {category.name for category in self.options.categories}
        for name in cats:
            if name not in known:
                self.category(name)  # raises the reference message

        stream_rates = {source.name: source.expected_rate()
                        for source in service.sources}
        active = _single_select_loads_ex(
            [entry.query for entry in self.active.values()], stream_rates)
        op_set = set(ops)
        if (active is None
                # Duplicate pending ids/operators: the reference dedups
                # per category (last wins) and merges shared operators —
                # shapes the flat columns do not model.
                or len(op_set) != row_count
                or len(set(ids)) != row_count
                # Requests for active ids: the reference refuses them.
                or not self.active.keys().isdisjoint(ids)
                # Pending rows touching operators the active book holds
                # (zero-load in the reference instance), or any
                # operator feeding another: topology matters, so the
                # joint load estimate would take the catalog walk.
                or (op_set & active[0].keys())
                or ((active[1] | set(inputs))
                    & (active[0].keys() | op_set))):
            return self._run_period_fallback(service, period, pending)

        # Vectorized twin of the reference's per-plan
        # ``stream_rate * cost`` (elementwise float64 multiplies are
        # the scalar products, bitwise).
        costs_arr = np.asarray(cost_list, dtype=np.float64)
        bids_arr = np.asarray(bid_list, dtype=np.float64)
        with np.errstate(over="ignore"):
            if len(set(inputs)) == 1:
                loads_arr = stream_rates.get(inputs[0], 0.0) * costs_arr
            else:
                rates = np.asarray(
                    [stream_rates.get(name, 0.0) for name in inputs],
                    dtype=np.float64)
                loads_arr = rates * costs_arr

        by_cat: dict[str, list[int]] = {}
        for row, name in enumerate(cats):
            by_cat.setdefault(name, []).append(row)
        # A row whose load overflowed is left out of its category's
        # auction and reported rejected, as in run_period.
        overflowed = np.flatnonzero(~np.isfinite(loads_arr)).tolist()
        rejected: list[str] = [ids[row] for row in overflowed]
        if overflowed:
            dropped = set(overflowed)
            by_cat = {name: [row for row in rows if row not in dropped]
                      for name, rows in by_cat.items()}
        has_vals = any(v is not None for v in valuations)
        has_objs = any(obj is not None for obj in objs)

        auctions = []
        for category in self.options.categories:
            rows = by_cat.get(category.name)
            if not rows:
                continue
            take = np.asarray(rows, dtype=np.intp)
            cat_ids = [ids[row] for row in rows]
            cat_objs = [objs[row] for row in rows] if has_objs else None
            # Object rows (renewals) run as their original plan object,
            # exactly as the reference winner loop would see it.
            candidates = zip(cat_ids, cat_objs or repeat(None))
            auctions.append((category, candidates, partial(
                ColumnarSelectInstance._from_rows,
                ids=cat_ids,
                ops=[ops[row] for row in rows],
                inputs=[inputs[row] for row in rows],
                costs=costs_arr[take],
                selectivities=[sels[row] for row in rows],
                bids=bids_arr[take],
                loads=loads_arr[take],
                valuations=([valuations[row] for row in rows]
                            if has_vals else None),
                owners=[owners[row] for row in rows],
                objs=cat_objs,
            )))
        result = self._settle(service, period, self._held(active[0]),
                              rejected, auctions)
        return result, {"winners": len(result.admitted), "fell_back": False}

    def _run_period_fallback(self, service, period, pending):
        """Expand row chunks to objects and run the reference boundary."""
        expanded: list[tuple[ContinuousQuery, str]] = []
        for item in pending:
            if type(item) is RowChunk:
                expanded.extend(zip(
                    map(item.block.plan, range(item.start, item.stop)),
                    item.categories))
            else:
                expanded.append(item)
        result = self.run_period(service, period, expanded)
        return result, {"winners": len(result.admitted), "fell_back": True}

    def _settle(self, service, period, held, rejected,
                auctions) -> SubscriptionPeriodResult:
        """Auction, bill, book and admit one boundary's candidates.

        *auctions* holds one ``(category, candidates, build)`` entry per
        category with candidates, in declared order.  ``candidates`` is
        read once: it yields each id, in auction order, with the plan
        object a winner runs as, or ``None`` for a row the instance
        materializes (per category: one id may be pending in two).
        ``build(capacity=...)`` returns the category's auction instance
        over its slice of what the *held* capacity leaves free.
        *rejected* lists the candidates the builder already left out.
        """
        free = max(service.capacity - held, 0.0)
        outcomes: dict[str, AuctionOutcome] = {}
        admitted: list[str] = []
        revenue = 0.0
        to_admit: list[ContinuousQuery] = []
        for category, candidates, build in auctions:
            slice_capacity = free * category.capacity_fraction
            if slice_capacity <= 0:
                rejected.extend(query_id for query_id, _query in candidates)
                continue
            instance = build(capacity=slice_capacity)
            outcome = self.mechanisms[category.name].run(instance)
            outcome = replace(
                outcome,
                mechanism=f"{outcome.mechanism}@{category.name}")
            outcomes[category.name] = outcome
            revenue += service.ledger.bill_outcome(period, outcome)
            # is_winner is payments-membership; hoisting the dict off
            # the outcome skips a method call per (mostly losing) row.
            payments = outcome.payments
            for query_id, query in candidates:
                if query_id not in payments:
                    rejected.append(query_id)
                    continue
                admitted.append(query_id)
                # Only winners materialize: the engine needs a real
                # plan to run, losers never leave their compact form.
                query = as_continuous_query(
                    instance.query(query_id) if query is None else query)
                to_admit.append(query)
                self.active[query_id] = SubscriptionEntry(
                    query=query,
                    category=category.name,
                    start_period=period,
                    expires_period=period + category.length_days,
                    payment=payments[query_id],
                    renewals=self.renewal_counts.get(query_id, 0),
                )
        if to_admit:
            service.engine.transition(add=to_admit)
        # A report keeps each columnar instance; its working views go.
        for outcome in outcomes.values():
            if isinstance(outcome.instance, ColumnarSelectInstance):
                outcome.instance.forget_derived()
        return SubscriptionPeriodResult(
            period=period,
            outcomes=outcomes,
            admitted=tuple(sorted(admitted)),
            rejected=tuple(sorted(rejected)),
            revenue=revenue,
            held_capacity=held,
        )


def _single_select_loads_ex(
    plans: Sequence, stream_rates: Mapping[str, float]
) -> "tuple[dict[str, float], set[str]] | None":
    """Operator loads without building a catalog, plus input streams.

    Every single-select plan over a source stream loads its operator
    with ``stream_rate * cost_per_tuple`` — bitwise exactly what
    :func:`~repro.dsms.load.estimate_operator_loads` computes for it.
    Returns ``None`` (fall back to the full catalog walk) as soon as
    any plan has another shape, two plans disagree on a shared
    operator's definition, or an operator feeds another — the cases
    where topology actually matters.  The columnar boundary needs the
    input-stream names to decide whether *pending* rows chain onto the
    active plans' topology without re-walking the active book.
    """
    loads: dict[str, float] = {}
    inputs: set[str] = set()
    for plan in plans:
        if type(plan) is SelectPlan:
            op_id = plan.op_id
            name = plan.stream
            cost = plan.cost
        elif isinstance(plan, ContinuousQuery):
            operators = plan.operators
            if len(operators) != 1:
                return None
            op = operators[0]
            if type(op) is not SelectOperator or len(op.inputs) != 1:
                return None
            op_id = op.op_id
            name = op.inputs[0]
            cost = op.cost_per_tuple
        else:
            return None
        load = stream_rates.get(name, 0.0) * cost
        previous = loads.get(op_id)
        if previous is not None and previous != load:
            return None
        loads[op_id] = load
        inputs.add(name)
    if inputs & loads.keys():
        # An operator feeds another: rates chain, topology matters.
        return None
    return loads, inputs

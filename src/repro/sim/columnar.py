"""Columnar admission: auction instances built lazily over row slices.

The pump keeps arrivals as numpy rows end-to-end (`ArrivalBlock` →
:class:`RowChunk` parked in the driver's pending lists →
:class:`ColumnarSelectInstance` at the period boundary).  The instance
satisfies the full :class:`~repro.core.model.AuctionInstance` protocol
but holds only column slices; ``operators``/``queries`` materialize on
first touch, so the fastpath selection kernels — which read
``_select_columns`` / ``_index_columns`` and never the object tuples —
admit a whole block without constructing a single ``SelectPlan`` for
the losers.  Winners materialize one by one, straight from the
columns, when billing and the subscription book ask for them.  Once
they are admitted the pump drops every view it built, so a settled
instance a report keeps holds what its pickle holds.

Everything observable (repr, ``union_load`` float-summation order,
``query()`` lookups, pickles) is pinned to what the eager reference
instance produces for the same rows, so reports stay byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import AuctionInstance, Operator, Query
from repro.sim.arrivals import ArrivalBlock, SelectPlan

__all__ = ["RowChunk", "ColumnarSelectInstance"]


class RowChunk:
    """A contiguous run of admitted-for-auction rows in a pending list.

    ``categories`` carries the resolved category name per row (drawn or
    validated at consume time, so the manager RNG is exercised in the
    same order as the object path).
    """

    __slots__ = ("block", "start", "stop", "categories")

    def __init__(self, block: ArrivalBlock, start: int, stop: int,
                 categories: "list[str]") -> None:
        self.block = block
        self.start = start
        self.stop = stop
        self.categories = categories

    def __len__(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RowChunk(rows={self.stop - self.start}, "
                f"start={self.start})")

    def __deepcopy__(self, memo):
        from copy import deepcopy
        clone = RowChunk(deepcopy(self.block, memo), self.start, self.stop,
                         list(self.categories))
        memo[id(self)] = clone
        return clone


def _auction_candidate(obj):
    """What the reference manager auctions for a pending object row."""
    if type(obj) is SelectPlan:
        return obj
    return Query._trusted(obj.query_id, tuple(obj.operator_ids), obj.bid,
                          obj.valuation, obj.owner)


class ColumnarSelectInstance(AuctionInstance):
    """An auction instance backed by column slices, not object tuples.

    Only valid for the shape the pump guarantees before building one:
    every candidate is a single-select query and every operator id is
    unique (sharing degree 1 throughout).  Rows that entered the
    boundary as real objects (renewals, object-path fallbacks) keep
    their original in ``objs`` and materialize through it, preserving
    object identity for the engine transition.
    """

    # Built via object.__new__; the dataclass fields operators/queries
    # become lazy properties below (class attributes win over the frozen
    # instance __dict__ for data descriptors).

    @classmethod
    def _from_rows(cls, *, ids, ops, inputs, costs, selectivities, bids,
                   loads, valuations, owners, objs, capacity):
        instance = object.__new__(cls)
        sets = object.__setattr__
        sets(instance, "capacity", capacity)
        sets(instance, "_ids", ids)
        sets(instance, "_ops", ops)
        sets(instance, "_inputs", inputs)
        sets(instance, "_costs", costs)
        sets(instance, "_sels", selectivities)
        sets(instance, "_bids", bids)
        sets(instance, "_loads", loads)
        sets(instance, "_valuations", valuations)
        sets(instance, "_owners", owners)
        sets(instance, "_objs", objs)
        sets(instance, "_n", len(ids))
        # Hint for Mechanism._seal: with no stated valuations every bid
        # is trivially truthful, so sealing can skip materialization.
        sets(instance, "_all_truthful", valuations is None)
        # The fastpath kernels read these without touching .queries.
        sets(instance, "_select_columns",
             (ids, np.asarray(bids, dtype=np.float64),
              np.asarray(loads, dtype=np.float64)))
        return instance

    # -- lazy views ---------------------------------------------------

    #: Every view built on first touch: never pickled, dropped once a
    #: period settles, rebuilt when read again.
    _DERIVED = ("_fastpath_cache", "_load_list", "_row_map", "_row_cache",
                "_mat_operators", "_mat_queries", "_mat_by_id",
                "_mat_sharing")

    def _cache(self, name, build):
        value = self.__dict__.get(name)
        if value is None:
            value = build()
            object.__setattr__(self, name, value)
        return value

    def forget_derived(self) -> None:
        """Drop every lazily built view; each rebuilds when next read."""
        for name in self._DERIVED:
            self.__dict__.pop(name, None)

    def _load_floats(self):
        return self._cache("_load_list", lambda: [float(x) for x in self._loads])

    def _row_of(self):
        return self._cache(
            "_row_map",
            lambda: {query_id: row for row, query_id in enumerate(self._ids)})

    # -- materialization ----------------------------------------------

    def _materialize_row(self, row: int):
        objs = self._objs
        if objs is not None and objs[row] is not None:
            return _auction_candidate(objs[row])
        valuations = self._valuations
        return SelectPlan(
            self._ids[row], self._ops[row], self._inputs[row],
            float(self._costs[row]), float(self._sels[row]),
            float(self._bids[row]),
            None if valuations is None else valuations[row],
            self._owners[row])

    def _row_query(self, row: int):
        cache = self.__dict__.get("_row_cache")
        if cache is None:
            cache = [None] * self._n
            object.__setattr__(self, "_row_cache", cache)
        query = cache[row]
        if query is None:
            query = cache[row] = self._materialize_row(row)
        return query

    # -- the AuctionInstance protocol ---------------------------------

    @property
    def operators(self):  # type: ignore[override]
        def build():
            loads = self._load_floats()
            return {op_id: Operator._trusted(op_id, loads[row])
                    for row, op_id in enumerate(self._ops)}
        return self._cache("_mat_operators", build)

    @property
    def queries(self):  # type: ignore[override]
        return self._cache(
            "_mat_queries",
            lambda: tuple(self._row_query(row) for row in range(self._n)))

    @property
    def _queries_by_id(self):  # type: ignore[override]
        return self._cache(
            "_mat_by_id",
            lambda: {query.query_id: query for query in self.queries})

    @property
    def _sharing(self):  # type: ignore[override]
        return self._cache(
            "_mat_sharing", lambda: {op_id: 1 for op_id in self._ops})

    @property
    def num_queries(self) -> int:
        return self._n

    def query(self, query_id: str):
        return self._row_query(self._row_of()[query_id])

    def has_query(self, query_id: str) -> bool:
        return query_id in self._row_of()

    def max_sharing_degree(self) -> int:
        return 1 if self._n else 0

    def sharing_degree(self, operator_id: str) -> int:
        return self._sharing[operator_id]

    def union_load(self, query_ids) -> float:
        row_of = self._row_of()
        ops = self._ops
        seen = set()
        row_of_op = {}
        for query_id in query_ids:
            row = row_of[query_id]
            seen.add(ops[row])
            row_of_op[ops[row]] = row
        return sum(float(self._loads[row_of_op[op_id]]) for op_id in seen)

    def _index_columns(self):
        """Columns for InstanceIndex.from_select_columns (duck hook)."""
        ids, bids, loads = self._select_columns
        return ids, list(self._ops), bids, loads

    # -- plumbing ------------------------------------------------------

    def __repr__(self) -> str:
        return (f"AuctionInstance(operators={self.operators!r}, "
                f"queries={self.queries!r}, capacity={self.capacity!r})")

    def __eq__(self, other):
        if not isinstance(other, AuctionInstance):
            return NotImplemented
        return (self.operators == other.operators
                and self.queries == other.queries
                and self.capacity == other.capacity)

    __hash__ = None

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._DERIVED:
            state.pop(name, None)
        return state

"""A compiled, array-backed index over an :class:`AuctionInstance`.

The reference mechanisms walk the instance through Python dictionaries:
every load measure is a generator sum of ``instance.operator(op_id).load``
lookups, every capacity test a set union.  :class:`InstanceIndex`
compiles the instance once into flat arrays —

* a CSR query → operator membership matrix (``indptr`` / ``indices``,
  operator indices stored in each query's declared operator order) and
  its transpose (``op_ptr`` / ``op_members``);
* contiguous numpy arrays for operator loads, sharing degrees and bids
  (plus plain-``float`` list mirrors for the scalar hot loops, where
  boxed ``np.float64`` item access would dominate);
* the precomputed per-query load measures ``C^T`` and ``C^SF``; and
* a lexicographic rank per query id, so vectorized sorts can reproduce
  the reference tie-breaking exactly.

Exactness contract: every derived float is accumulated in *the same
order* as the reference code (left-to-right over each query's declared
operators), so fast-path selections are bitwise identical to the pure
Python ones — the property the differential suite pins.  The build
computes the measures one operator slot at a time — term 1 of every
query, then term 2 of every query that has one, ... — which is the same
sequence of float additions per query, at a cost linear in the
(query, operator) entries.

Instances are immutable, so the index is built once and cached on the
instance itself (never invalidated).  The cache is deliberately
excluded from pickling and deep copies (see
``AuctionInstance.__getstate__``): checkpoints stay lean and a restored
instance simply rebuilds its index on first fast-path use.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.core.model import AuctionInstance

#: Attribute name under which the index is cached on the instance.
_CACHE_ATTR = "_fastpath_cache"


class InstanceIndex:
    """Flat-array view of one :class:`AuctionInstance` (immutable)."""

    __slots__ = (
        "capacity",
        "num_queries",
        "num_operators",
        "query_ids",
        "op_ids",
        "op_loads",
        "op_loads_list",
        "sharing",
        "indptr",
        "indices",
        "query_ops",
        "op_ptr",
        "op_members",
        "bids",
        "bids_list",
        "simple_queries",
        "total_loads",
        "total_loads_list",
        "fair_share_loads",
        "fair_share_loads_list",
        "id_rank",
    )

    def __init__(self, instance: AuctionInstance) -> None:
        queries = instance.queries
        operators = instance.operators
        n = len(queries)
        self.capacity = float(instance.capacity)
        self.num_queries = n
        self.query_ids = [q.query_id for q in queries]

        # Operator catalogue in the instance's (dict) order.
        self.op_ids = list(operators)
        op_index = {op_id: i for i, op_id in enumerate(self.op_ids)}
        m = self.num_operators = len(self.op_ids)
        self.op_loads_list = [operators[op_id].load for op_id in self.op_ids]
        loads = self.op_loads = np.asarray(self.op_loads_list,
                                           dtype=np.float64)

        # CSR membership, operator indices in declared query order.  A
        # query names each operator once, so the sharing degree is the
        # operator's count in the flat list.
        self.query_ops = [[op_index[op_id] for op_id in q.operator_ids]
                          for q in queries]
        lengths = np.fromiter(map(len, self.query_ops), dtype=np.int64,
                              count=n)
        indptr = self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = self.indices = np.fromiter(
            chain.from_iterable(self.query_ops), dtype=np.int64,
            count=int(indptr[-1]))
        sharing = self.sharing = np.bincount(indices, minlength=m)

        # The load measures, one pass per operator slot: term j of every
        # query that has one is added to its partial sum before term
        # j + 1 — the same left-to-right float sequence as a per-query
        # loop.  With the queries ranked longest first, those that have
        # a term j are a prefix of the ranking, so pass j touches only
        # them.
        total_terms = loads[indices]
        fair_terms = total_terms / sharing[indices]
        longest_first = np.argsort(-lengths)
        starts = indptr[longest_first]
        # counts[j]: the number of queries with more than j operators.
        counts = n - np.cumsum(np.bincount(lengths))[:-1]
        total = np.zeros(n)
        fair = np.zeros(n)
        for j, count in enumerate(counts.tolist()):
            group = longest_first[:count]
            at = starts[:count] + j
            total[group] += total_terms[at]
            fair[group] += fair_terms[at]
        self.total_loads, self.total_loads_list = total, total.tolist()
        self.fair_share_loads = fair
        self.fair_share_loads_list = fair.tolist()
        # Queries whose operators are all unshared (degree 1): their
        # marginal load is always their full total load, and admitting
        # them can never change any other query's marginal — the
        # skip-over movement-window kernel exploits both.
        self.simple_queries = (np.maximum.reduceat(
            sharing[indices], indptr[:-1]) == 1).tolist()

        self.bids_list = [q.bid for q in queries]
        self.bids = np.asarray(self.bids_list, dtype=np.float64)

        # Transpose: operator o → the queries containing it, in
        # instance query order, as op_members[op_ptr[o]:op_ptr[o + 1]]
        # (CAR's incremental remaining-load updates slice these).
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        self.op_members = rows[np.argsort(indices, kind="stable")]
        op_ptr = self.op_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sharing, out=op_ptr[1:])

        # Rank of each query id in lexicographic order: the vectorized
        # tie-break key standing in for the reference's string compare.
        # Ids are unique, so the unstable argsort is deterministic; the
        # numpy comparison agrees with Python's for these plain strings.
        order = np.argsort(np.asarray(self.query_ids))
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[order] = np.arange(n, dtype=np.int64)
        self.id_rank = id_rank

    @classmethod
    def from_select_columns(cls, ids, op_ids, bids, loads,
                            capacity: float) -> "InstanceIndex":
        """Build an index straight from single-select columns.

        The columnar pump's instances know their shape up front: one
        private operator per query (sharing degree 1 throughout), ids
        and operators in row order.  That pins every derived value —
        the CSR matrix is the identity layout, fair-share equals total
        load, and all the ``__init__`` accumulations collapse to array
        copies — so the index can skip materializing the query objects
        entirely.  Values are bitwise what ``__init__`` would produce
        for the eager twin instance.
        """
        index = object.__new__(cls)
        n = len(ids)
        index.capacity = float(capacity)
        index.num_queries = n
        index.num_operators = n
        index.query_ids = list(ids)
        index.op_ids = list(op_ids)
        loads_arr = np.asarray(loads, dtype=np.float64)
        index.op_loads = loads_arr
        index.op_loads_list = loads_arr.tolist()
        index.sharing = np.ones(n, dtype=np.int64)
        arange = np.arange(n, dtype=np.int64)
        index.indptr = np.arange(n + 1, dtype=np.int64)
        index.indices = arange
        index.query_ops = [[o] for o in range(n)]
        index.op_ptr = index.indptr
        index.op_members = arange
        index.total_loads = loads_arr
        index.total_loads_list = index.op_loads_list
        index.fair_share_loads = loads_arr / index.sharing
        index.fair_share_loads_list = index.fair_share_loads.tolist()
        index.simple_queries = [True] * n
        bids_arr = np.asarray(bids, dtype=np.float64)
        index.bids = bids_arr
        index.bids_list = bids_arr.tolist()
        order = np.argsort(np.asarray(index.query_ids))
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[order] = arange
        index.id_rank = id_rank
        return index

    @classmethod
    def of(cls, instance: AuctionInstance) -> "InstanceIndex":
        """The index of *instance*, built once and cached on it."""
        cached = getattr(instance, _CACHE_ATTR, None)
        if cached is not None:
            return cached
        # Lazy columnar instances (repro.sim.columnar) expose their
        # rows through a duck-typed hook so the index builds without
        # materializing their query objects.
        hook = getattr(instance, "_index_columns", None)
        if hook is not None:
            index = cls.from_select_columns(*hook(),
                                            capacity=instance.capacity)
        else:
            index = cls(instance)
        object.__setattr__(instance, _CACHE_ATTR, index)
        return index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<InstanceIndex {self.num_queries} queries / "
                f"{self.num_operators} operators>")

"""Auction data model: operators, continuous queries, and instances.

The paper (Section II) abstracts a continuous query (CQ) to the set of
operators it contains, each operator having a *load* — the fraction of
server capacity it consumes.  Operators may be **shared** between
queries (executed once, feeding every query that contains them), which
is the combinatorial heart of the admission-control problem: the
marginal load of a query depends on which other queries are admitted.

:class:`AuctionInstance` is the immutable input to every mechanism: the
operator catalogue, the submitted queries with their bids, and the
server capacity.  It also carries each user's *private valuation*
(defaulting to the bid), which mechanisms never read — only the
game-theory analysis tools do, when computing payoffs or simulating
manipulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.utils.validation import (
    ValidationError,
    require,
    require_non_negative,
    require_positive,
)


@dataclass(frozen=True)
class Operator:
    """A stream operator with an identifier and a server load.

    ``load`` is expressed in the paper's capacity units: the fraction of
    the system's per-time-unit work the operator consumes.  Loads are
    static per operator (the paper assumes the system can reasonably
    approximate them; our :mod:`repro.dsms` engine measures them).
    """

    op_id: str
    load: float

    def __post_init__(self) -> None:
        require(bool(self.op_id), "operator id must be a non-empty string")
        require_non_negative(self.load, f"load of operator {self.op_id!r}")

    @classmethod
    def _trusted(cls, op_id: str, load: float) -> "Operator":
        """Validation-free constructor for pre-validated inputs.

        The subscription boundary builds thousands of these per period
        from loads it just computed; the caller guarantees a non-empty
        id and a non-negative load.
        """
        operator = object.__new__(cls)
        object.__setattr__(operator, "op_id", op_id)
        object.__setattr__(operator, "load", load)
        return operator


@dataclass(frozen=True)
class Query:
    """A continuous query: a set of operators, a bid, and a valuation.

    * ``bid`` — the declared bound on what the user will pay (public).
    * ``valuation`` — the user's true private value for having the query
      run.  Mechanisms must not read it; analysis tools use it to compute
      payoffs.  ``None`` means "truthful", i.e. equal to the bid.
    * ``owner`` — identity of the submitting user.  Several queries may
      share an owner (sybil attacks create exactly this situation); the
      owner's payoff aggregates over all her queries.
    """

    query_id: str
    operator_ids: tuple[str, ...]
    bid: float
    valuation: float | None = None
    owner: str | None = None

    def __post_init__(self) -> None:
        require(bool(self.query_id), "query id must be a non-empty string")
        require(len(self.operator_ids) > 0,
                f"query {self.query_id!r} must contain at least one operator")
        require(len(set(self.operator_ids)) == len(self.operator_ids),
                f"query {self.query_id!r} lists a duplicate operator")
        require_non_negative(self.bid, f"bid of query {self.query_id!r}")
        if self.valuation is not None:
            require_non_negative(
                self.valuation, f"valuation of query {self.query_id!r}")
        # Normalize to tuple so callers may pass any sequence.
        object.__setattr__(self, "operator_ids", tuple(self.operator_ids))

    @classmethod
    def _trusted(
        cls,
        query_id: str,
        operator_ids: tuple[str, ...],
        bid: float,
        valuation: "float | None" = None,
        owner: "str | None" = None,
    ) -> "Query":
        """Validation-free constructor for pre-validated inputs.

        The caller guarantees what ``__post_init__`` would check: a
        non-empty id, a non-empty duplicate-free *tuple* of operator
        ids (no normalization happens here), and non-negative
        bid/valuation.  Used on the admission hot path, where every
        pending plan was validated when it entered the system.
        """
        query = object.__new__(cls)
        object.__setattr__(query, "query_id", query_id)
        object.__setattr__(query, "operator_ids", operator_ids)
        object.__setattr__(query, "bid", bid)
        object.__setattr__(query, "valuation", valuation)
        object.__setattr__(query, "owner", owner)
        return query

    @property
    def true_value(self) -> float:
        """The private valuation, defaulting to the submitted bid."""
        return self.bid if self.valuation is None else self.valuation

    @property
    def owner_id(self) -> str:
        """The owning user, defaulting to the query id itself."""
        return self.owner if self.owner is not None else self.query_id

    def with_bid(self, bid: float) -> "Query":
        """Return a copy of this query bidding *bid* (valuation kept)."""
        return replace(self, bid=bid,
                       valuation=self.true_value)


@dataclass(frozen=True)
class AuctionInstance:
    """One admission auction: operators, queries, and server capacity.

    The instance is immutable; the manipulation helpers (`with_bid`,
    `with_queries`, `without_queries`) return modified copies, which the
    game-theory tools use to probe monotonicity, critical values and
    sybil attacks without mutating shared state.
    """

    operators: Mapping[str, Operator]
    queries: tuple[Query, ...]
    capacity: float
    _queries_by_id: Mapping[str, Query] = field(
        init=False, repr=False, compare=False, default=None)
    _sharing: Mapping[str, int] = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        require_positive(self.capacity, "capacity")
        object.__setattr__(self, "operators", dict(self.operators))
        object.__setattr__(self, "queries", tuple(self.queries))
        by_id: dict[str, Query] = {}
        sharing: dict[str, int] = {op_id: 0 for op_id in self.operators}
        for query in self.queries:
            if query.query_id in by_id:
                raise ValidationError(
                    f"duplicate query id {query.query_id!r}")
            by_id[query.query_id] = query
            for op_id in query.operator_ids:
                if op_id not in self.operators:
                    raise ValidationError(
                        f"query {query.query_id!r} references unknown "
                        f"operator {op_id!r}")
                sharing[op_id] += 1
        object.__setattr__(self, "_queries_by_id", by_id)
        object.__setattr__(self, "_sharing", sharing)

    def __getstate__(self) -> dict:
        """Pickle/deepcopy without the cached fast-path index.

        :class:`repro.core.fastpath.InstanceIndex` caches itself on the
        instance (immutable, so never invalidated); it is derived state,
        cheap to rebuild, and would bloat checkpoints — so copies start
        without it, and without the JSON fragments the admission
        service attaches for the report writer.
        """
        state = dict(self.__dict__)
        state.pop("_fastpath_cache", None)
        state.pop("_select_columns", None)
        state.pop("_json_fragments", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def _from_validated(
        cls,
        source: "AuctionInstance",
        queries: tuple["Query", ...],
    ) -> "AuctionInstance":
        """Fast private constructor for structure-preserving copies.

        *queries* must have the same ids and operator sets as
        ``source.queries`` (only bids/valuations/owners may differ), so
        the sharing index can be reused without re-validation.  Used on
        the mechanism hot path (:meth:`Mechanism._seal`).
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "operators", source.operators)
        object.__setattr__(instance, "queries", queries)
        object.__setattr__(instance, "capacity", source.capacity)
        object.__setattr__(
            instance, "_queries_by_id", {q.query_id: q for q in queries})
        object.__setattr__(instance, "_sharing", source._sharing)
        return instance

    @classmethod
    def _assemble(
        cls,
        queries: tuple["Query", ...],
        capacity: float,
        priced: "Callable[[str], Operator]",
    ) -> "AuctionInstance":
        """One trusted pass from already-validated rows to an instance.

        Operators appear in the order the queries first name them,
        each asked of ``priced(op_id)`` once; nothing is validated,
        sorted or copied.  The caller (the admission service's period,
        the subscription boundary) vouches for unique query ids and a
        positive *capacity*; the other ``__post_init__`` invariants
        hold because the operator table is built *from* the queries.
        """
        operators, sharing, by_id = {}, {}, {}
        for query in queries:
            by_id[query.query_id] = query
            for op_id in query.operator_ids:
                if op_id in sharing:
                    sharing[op_id] += 1
                else:
                    operators[op_id] = priced(op_id)
                    sharing[op_id] = 1
        instance = object.__new__(cls)
        object.__setattr__(instance, "operators", operators)
        object.__setattr__(instance, "queries", queries)
        object.__setattr__(instance, "capacity", capacity)
        object.__setattr__(instance, "_queries_by_id", by_id)
        object.__setattr__(instance, "_sharing", sharing)
        return instance

    @classmethod
    def build(
        cls,
        operator_loads: Mapping[str, float],
        query_specs: Mapping[str, Sequence[str]],
        bids: Mapping[str, float],
        capacity: float,
        valuations: Mapping[str, float] | None = None,
        owners: Mapping[str, str] | None = None,
    ) -> "AuctionInstance":
        """Build an instance from plain dictionaries.

        ``operator_loads`` maps operator id to load; ``query_specs`` maps
        query id to the operator ids it contains; ``bids`` maps query id
        to the submitted bid.  ``valuations`` and ``owners`` are optional
        per-query overrides.
        """
        operators = {op_id: Operator(op_id, load)
                     for op_id, load in operator_loads.items()}
        valuations = valuations or {}
        owners = owners or {}
        queries = tuple(
            Query(
                query_id=qid,
                operator_ids=tuple(op_ids),
                bid=bids[qid],
                valuation=valuations.get(qid),
                owner=owners.get(qid),
            )
            for qid, op_ids in query_specs.items()
        )
        return cls(operators=operators, queries=queries, capacity=capacity)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def query(self, query_id: str) -> Query:
        """Return the query with id *query_id* (KeyError if absent)."""
        return self._queries_by_id[query_id]

    def has_query(self, query_id: str) -> bool:
        """True if a query with id *query_id* was submitted."""
        return query_id in self._queries_by_id

    def operator(self, op_id: str) -> Operator:
        """Return the operator with id *op_id* (KeyError if absent)."""
        return self.operators[op_id]

    def sharing_degree(self, op_id: str) -> int:
        """Number of submitted queries containing operator *op_id*."""
        return self._sharing[op_id]

    def max_sharing_degree(self) -> int:
        """Maximum sharing degree over all operators (0 if none used)."""
        return max(self._sharing.values(), default=0)

    @property
    def num_queries(self) -> int:
        """Number of submitted queries."""
        return len(self.queries)

    def owners(self) -> dict[str, list[Query]]:
        """Group the submitted queries by owning user."""
        grouped: dict[str, list[Query]] = {}
        for query in self.queries:
            grouped.setdefault(query.owner_id, []).append(query)
        return grouped

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------

    def union_load(self, query_ids: Iterable[str]) -> float:
        """Actual server load of running the given queries together.

        Shared operators are counted **once** — this is the quantity the
        capacity constraint applies to.
        """
        seen: set[str] = set()
        for qid in query_ids:
            seen.update(self._queries_by_id[qid].operator_ids)
        return sum(self.operators[op_id].load for op_id in seen)

    def fits(self, query_ids: Iterable[str]) -> bool:
        """True if the given queries together fit within capacity."""
        return self.union_load(query_ids) <= self.capacity + 1e-9

    def total_demand(self) -> float:
        """Union load of *all* submitted queries (total query demand)."""
        return self.union_load(q.query_id for q in self.queries)

    # ------------------------------------------------------------------
    # Functional updates (used by the game-theory toolkit)
    # ------------------------------------------------------------------

    def with_bid(self, query_id: str, bid: float) -> "AuctionInstance":
        """Copy of the instance where *query_id* bids *bid* instead."""
        queries = tuple(
            q.with_bid(bid) if q.query_id == query_id else q
            for q in self.queries
        )
        if not any(q.query_id == query_id for q in self.queries):
            raise KeyError(query_id)
        return AuctionInstance(self.operators, queries, self.capacity)

    def with_queries(
        self,
        new_queries: Sequence[Query],
        new_operators: Sequence[Operator] = (),
    ) -> "AuctionInstance":
        """Copy of the instance with extra queries (and operators) added.

        This is the primitive behind sybil attacks: an attacker submits
        additional queries, possibly referencing her existing operators,
        possibly introducing fresh fake ones.
        """
        operators = dict(self.operators)
        for op in new_operators:
            if op.op_id in operators and operators[op.op_id] != op:
                raise ValidationError(
                    f"operator {op.op_id!r} redefined with different load")
            operators[op.op_id] = op
        return AuctionInstance(
            operators, self.queries + tuple(new_queries), self.capacity)

    def without_queries(self, query_ids: Iterable[str]) -> "AuctionInstance":
        """Copy of the instance with the given queries removed.

        Operators that become orphaned are kept in the catalogue (they
        simply have sharing degree zero), matching the view that the
        operator library outlives individual subscriptions.
        """
        drop = set(query_ids)
        queries = tuple(q for q in self.queries if q.query_id not in drop)
        return AuctionInstance(self.operators, queries, self.capacity)

    def with_capacity(self, capacity: float) -> "AuctionInstance":
        """Copy of the instance with a different server capacity."""
        return AuctionInstance(self.operators, self.queries, capacity)

    def truthful(self) -> "AuctionInstance":
        """Copy where every user bids her true valuation."""
        queries = tuple(q.with_bid(q.true_value) for q in self.queries)
        return AuctionInstance(self.operators, queries, self.capacity)

    def max_valuation(self) -> float:
        """``h`` in the paper: the largest valuation of any user."""
        return max((q.true_value for q in self.queries), default=0.0)

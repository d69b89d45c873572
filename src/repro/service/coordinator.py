"""The auction coordinator: priced at arrival, assembled at the tick.

One of the three components the :class:`~repro.service.AdmissionService`
facade composes.  The coordinator owns the pending-submission queue and
turns "everything competing this period" (new submissions plus the
running queries, which the paper re-auctions) into an
:class:`~repro.core.model.AuctionInstance` as each query *arrives*:
``submit`` builds its auction row and enters its operators into a live
table (compatibility-checked, counted per holder, priced once down
their input chain).  Withdrawals and rejections evict, winners carry
forward, running queries never seen (a migration, a restore) are
adopted at the next look, and ``build`` copies pointers.  The table is
derived, never snapshotted, and always equals the from-scratch
:func:`repro.dsms.load.auction_instance_from_catalog`.  Each row, and
each operator once priced, also holds its entry in the instance's JSON
document, which :func:`repro.io.report_body` joins at the tick — while
someone renders: a host whose last instance went unread (a simulation
driver reports through its own documents) stops writing them until
one is read again.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, KeysView, Mapping
from itertools import chain, islice
from math import isfinite

from repro.core.model import AuctionInstance, Operator, Query
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog, check_compatible
from repro.io import JsonFragments, operator_fragment, query_fragment
from repro.utils.validation import ValidationError, require


def unknown_withdraw(query_id: str,
                     *pending: Collection[str]) -> ValidationError:
    """The error for withdrawing an id none of *pending* holds.

    Names the first few pending ids and their count, never all of
    them: the message reaches clients, and one client's typo must not
    cost O(pending) or list every other client's queries."""
    count = sum(map(len, pending))
    shown = ", ".join(islice(chain.from_iterable(pending), 5)) or "<none>"
    more = f", ... ({count} pending)" if count > 5 else ""
    return ValidationError(
        f"cannot withdraw unknown query id {query_id!r}; pending "
        f"ids: {shown}{more}")


class AuctionCoordinator:
    """Collects candidates and maintains the per-period auction input."""

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self._pending: dict[str, ContinuousQuery] = {}
        self._rates: dict[str, float] = {}
        #: the instance :meth:`build` last handed out; it holds its
        #: rows' JSON fragments until the next build takes them back
        self._built: "AuctionInstance | None" = None
        #: whether rows get their JSON fragments as they are priced: on
        #: until a build finds the previous instance's never read
        self._writing = True
        self._forget()

    def _forget(self) -> None:
        """Drop the derived table; the next look re-adopts everything."""
        #: query id → (the plan the row was built from, its auction row,
        #: the row's entry in the instance document as JSON text, or
        #: None when it was entered while the writers were off)
        self._rows: dict[str, tuple[ContinuousQuery, Query, str | None]] = {}
        #: op id → [representative, holders, output rate, priced
        #: operator, its ``"op":load`` JSON member or None]
        self._live: dict[str, list] = {}
        #: input name → how many live operators read it
        self._readers: dict[str, int] = {}
        #: holders disagree on a selectivity, so candidate order moves
        #: loads; adoption met a clash, so submits stop retrying it
        self._contested = self._clash = False

    @property
    def capacity(self) -> float:
        """The auction capacity (validated on every assignment)."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: float) -> None:
        value = float(value)
        require(value > 0, "capacity must be positive")
        self._capacity = value

    # ------------------------------------------------------------------
    # The pending queue
    # ------------------------------------------------------------------

    @property
    def pending(self) -> dict[str, ContinuousQuery]:
        """Copy of the queued (not yet auctioned) submissions."""
        return dict(self._pending)

    @property
    def pending_ids(self) -> KeysView[str]:
        """Ids of the queued submissions.

        A live read-only view (membership, ``len``, truthiness and set
        operators all work); copy it with ``set(...)`` before holding
        it across a submit, withdraw or settle."""
        return self._pending.keys()

    def submit(
        self,
        query: ContinuousQuery,
        running: QueryPlanCatalog = QueryPlanCatalog(),
    ) -> None:
        """Queue *query* for the next auction, checked and priced now.

        *running* is the engine's catalog: its ids are taken, its
        operators live.  What the tick would trip over (a redefined
        live operator, a negative valuation, a cycle) fails here.
        """
        taken = running.query_ids
        if query.query_id in self._pending or query.query_id in taken:
            raise ValidationError(
                f"query id {query.query_id!r} already submitted")
        if (not self._clash
                and len(self._rows) != len(self._pending) + len(taken)):
            try:
                self._sync(self.collect(running.queries))
            except ValidationError:
                self._clash = True  # between two others: the tick says so
        self._enter(query)
        self._pending[query.query_id] = query

    def withdraw(self, query_id: str) -> ContinuousQuery:
        """Remove and return a not-yet-auctioned submission."""
        try:
            query = self._pending.pop(query_id)
        except KeyError:
            raise unknown_withdraw(query_id, self._pending) from None
        self._clash = False
        if query_id in self._rows:
            self._evict((query_id,))
        return query

    def clear(self, keep: Collection[str] = frozenset()) -> None:
        """Drop the whole queue (after its auction ran) and every row
        but those of *keep*: the winners carry forward untouched."""
        self._pending.clear()
        self._evict([qid for qid in self._rows if qid not in keep])

    def restore_pending(
        self, pending: Mapping[str, ContinuousQuery]
    ) -> None:
        """Replace the queue wholesale (snapshot restore)."""
        self._pending = dict(pending)
        self._forget()

    # ------------------------------------------------------------------
    # Auction building
    # ------------------------------------------------------------------

    def _enter(self, query: ContinuousQuery) -> Query:
        """Build *query*'s row and enter its operators into the table: a
        stale row under the id goes first, the checks ``ContinuousQuery``
        did not make come before the first entry, and a plan that cannot
        be priced is evicted again."""
        if query.query_id in self._rows:
            self._evict((query.query_id,))
        require(query.bid >= 0, "bids must be non-negative")
        if query.valuation is not None and query.valuation < 0:
            raise ValidationError(f"valuation of query {query.query_id!r} "
                                  f"must be >= 0, got {query.valuation!r}")
        live, readers = self._live, self._readers
        for op in query.operators:
            if op.op_id in live:
                check_compatible(live[op.op_id][0], op)
            elif op.op_id in readers:
                self._flush()  # a live operator read it as a bare name
        for op in query.operators:
            entry = live.setdefault(op.op_id, [op, 0, None, None, None])
            entry[1] += 1
            if entry[1] == 1:
                for name in op.inputs:
                    readers[name] = readers.get(name, 0) + 1
            elif entry[0].selectivity() != op.selectivity():
                self._contested = True
        # not the cached ``query.operator_ids``: a queued plan stays as it came
        ids = tuple(op.op_id for op in query.operators)
        row = Query._trusted(
            query.query_id, ids, query.bid, query.valuation, query.owner)
        self._rows[query.query_id] = (
            query, row, query_fragment(row) if self._writing else None)
        try:
            for op_id in row.operator_ids:
                self._rate(op_id)
        except ValidationError:
            self._evict((query.query_id,))
            raise
        return row

    def _evict(self, query_ids: Iterable[str]) -> None:
        """Forget the rows of *query_ids* and the operators only they held."""
        live, readers = self._live, self._readers
        gone = []
        for query_id in query_ids:
            for op_id in self._rows.pop(query_id)[1].operator_ids:
                entry = live[op_id]
                entry[1] -= 1
                if not entry[1]:
                    gone.append(op_id)
                    del live[op_id]
                    for name in entry[0].inputs:
                        readers[name] -= 1
                        if not readers[name]:
                            del readers[name]
        if not readers.keys().isdisjoint(gone):
            self._flush()  # a survivor read it: now it reads a bare name

    def _flush(self) -> None:
        """Forget every price (the operators stay live)."""
        for entry in self._live.values():
            entry[2] = entry[3] = entry[4] = None

    def _rate(self, name: str) -> float:
        """Expected tuples per tick out of *name*: a live operator (priced
        on first use, inputs first, as ``estimate_operator_loads`` would)
        or else a source stream (unknown ones flow at 0)."""
        entry = self._live.get(name)
        if entry is None:
            return self._rates.get(name, 0.0)
        if entry[2] is ...:
            raise ValidationError(
                f"operator graph has a cycle through {name!r}")
        if entry[2] is None:
            op = entry[0]
            entry[2] = ...  # being priced: met again below, it is a cycle
            try:
                fed = sum(map(self._rate, op.inputs))
            finally:
                entry[2] = None
            entry[3] = Operator(name, fed * op.cost_per_tuple)  # load >= 0
            if self._writing:
                entry[4] = operator_fragment(name, entry[3].load)
            entry[2] = fed * op.selectivity()
        return entry[2]

    def _sync(self, plans: Mapping[str, ContinuousQuery]) -> list[Query]:
        """Make the table hold exactly the candidates *plans* and return
        their rows: evicts what the engine dropped behind our back; adopts,
        like a submission, those unseen or seen as another plan object."""
        rows = self._rows
        self._evict([query_id for query_id in rows if query_id not in plans])
        return [held[1] if (held := rows.get(query_id)) and held[0] is plan
                else self._enter(plan) for query_id, plan in plans.items()]

    def collect(
        self, running: Mapping[str, ContinuousQuery]
    ) -> dict[str, ContinuousQuery]:
        """All candidates for the next period: queued + running."""
        candidates = dict(self._pending)
        candidates.update(running)
        return candidates

    def build(
        self,
        candidates: Mapping[str, ContinuousQuery],
        stream_rates: Mapping[str, float],
    ) -> AuctionInstance:
        """Package *candidates* into an auction instance.

        Rows and prices were made at arrival; this copies pointers, after
        a contested operator re-adopts every candidate in order, new
        *stream_rates* re-price every operator, unseen candidates enter.
        A candidate holding an operator whose load overflowed (``cost ×
        rate`` past the largest float) is left out, so it is reported
        rejected and the others clear as if it had never come.

        The instance carries its rows' JSON fragments
        (``_json_fragments``, a :class:`~repro.io.JsonFragments`) for
        :func:`repro.io.report_body`; the previous instance built here
        gives its back, so only one period's fragments outlive their
        rows.  If nobody rendered that previous instance, the writers
        turn off and this instance is encoded from its dict if it is
        ever rendered; if somebody did, they turn (or stay) on and a
        row entered while they were off gets its fragment now."""
        if not candidates:
            raise ValidationError("no queries to auction")
        if self._contested:
            self._forget()
        if stream_rates != self._rates:
            self._rates = dict(stream_rates)
            self._flush()
        self._clash = False
        rows = tuple(self._sync(candidates))
        instance = AuctionInstance._assemble(
            rows, self.capacity, self._operator)
        overflowed = {op_id for op_id, op in instance.operators.items()
                      if not isfinite(op.load)}
        if overflowed:
            instance = AuctionInstance._assemble(
                tuple(row for row in rows
                      if overflowed.isdisjoint(row.operator_ids)),
                self.capacity, self._operator)
        previous, self._built = self._built, instance
        if previous is not None:
            fragments = vars(previous).pop("_json_fragments", None)
            if fragments is not None:
                self._writing = fragments.read
        fragments = JsonFragments()
        if self._writing:
            fragments.queries = [self._query_json(row.query_id)
                                 for row in instance.queries]
            fragments.operators = {op_id: self._operator_json(op_id)
                                   for op_id in instance.operators}
        object.__setattr__(instance, "_json_fragments", fragments)
        return instance

    def _query_json(self, query_id: str) -> str:
        """The row's JSON fragment, written now if it has none yet."""
        held = self._rows[query_id]
        if held[2] is None:
            held = self._rows[query_id] = (*held[:2], query_fragment(held[1]))
        return held[2]

    def _operator_json(self, op_id: str) -> str:
        """The priced operator's JSON member, written now if it has
        none yet."""
        entry = self._live[op_id]
        if entry[4] is None:
            entry[4] = operator_fragment(op_id, entry[3].load)
        return entry[4]

    def _operator(self, op_id: str) -> Operator:
        """The priced operator, re-issued under the first holder's own id
        string: the instance pickles to the from-scratch one's bytes."""
        entry = self._live[op_id]
        if entry[3] is None:
            self._rate(op_id)
        if entry[3].op_id is not op_id:
            entry[3] = Operator._trusted(op_id, entry[3].load)
        return entry[3]

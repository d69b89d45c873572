"""Hypothesis strategies for random auction instances and workloads.

:func:`auction_instances` draws structurally-valid instances with
operator sharing: a catalogue of operators with bounded loads, queries
picking random operator subsets (so sharing arises naturally), bids on
a bounded positive range, and a capacity somewhere between "almost
nothing fits" and "everything fits".

:func:`select_plans` draws the one plan shape every byte boundary
carries — a single pass-all select — with ids, owners and numbers
chosen to stress a JSON writer (escapes, non-ASCII, ``None``, ints,
``1e16``, ``5e-324``, ``-0.0``, NaN and infinities).

:func:`cluster_workloads` draws end-to-end *federation* workloads for
the :mod:`repro.cluster` invariant suite: a shard count, per-shard
capacity, a stream rate, a placement-policy spec, and several periods
of client submissions (real :class:`ContinuousQuery` plans with
module-level — hence picklable — predicates).
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.core.model import AuctionInstance, Operator, Query
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.sim.arrivals import SelectPlan, pass_all


@st.composite
def auction_instances(
    draw,
    min_queries: int = 1,
    max_queries: int = 8,
    max_operators: int = 10,
    max_load: float = 10.0,
    max_bid: float = 100.0,
) -> AuctionInstance:
    """Draw a valid :class:`AuctionInstance` with natural sharing."""
    num_operators = draw(st.integers(1, max_operators))
    loads = draw(st.lists(
        st.floats(0.0, max_load, allow_nan=False, allow_infinity=False),
        min_size=num_operators, max_size=num_operators))
    operators = {
        f"op{i}": Operator(f"op{i}", load)
        for i, load in enumerate(loads)
    }
    num_queries = draw(st.integers(min_queries, max_queries))
    queries = []
    for index in range(num_queries):
        subset = draw(st.lists(
            st.integers(0, num_operators - 1),
            min_size=1, max_size=min(4, num_operators), unique=True))
        bid = draw(st.floats(0.0, max_bid, allow_nan=False,
                             allow_infinity=False))
        queries.append(Query(
            query_id=f"q{index}",
            operator_ids=tuple(f"op{i}" for i in subset),
            bid=bid,
        ))
    total = sum(loads) or 1.0
    capacity = draw(st.floats(
        total * 0.1 + 1e-6, total * 1.5 + 1.0,
        allow_nan=False, allow_infinity=False))
    return AuctionInstance(operators, tuple(queries), capacity)


# ----------------------------------------------------------------------
# Federation workloads (repro.cluster)
# ----------------------------------------------------------------------


def accept_all(_tuple) -> bool:
    """Module-level predicate so generated plans pickle (checkpoints)."""
    return True


@dataclass(frozen=True)
class ClusterWorkload:
    """One drawn federation scenario: topology + periods of traffic."""

    num_shards: int
    capacity: float
    rate: float
    seed: int
    placement: str
    submissions: tuple[tuple[ContinuousQuery, ...], ...]

    @property
    def all_queries(self) -> tuple[ContinuousQuery, ...]:
        """Every query across all periods, in submission order."""
        return tuple(q for batch in self.submissions for q in batch)


def select_query(qid: str, owner: str, bid: float,
                 cost: float, stream: str = "s") -> ContinuousQuery:
    """A one-operator select plan bidding *bid* (picklable)."""
    op = SelectOperator(f"sel_{qid}", stream, pass_all,
                        cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (op,), sink_id=op.op_id, bid=bid,
                           owner=owner)


@st.composite
def cluster_workloads(
    draw,
    max_shards: int = 3,
    max_clients: int = 4,
    max_queries_per_period: int = 6,
    max_periods: int = 2,
    max_bid: float = 100.0,
) -> ClusterWorkload:
    """Draw a multi-shard, multi-client, multi-period workload.

    Capacities range from "almost nothing fits per shard" to "a shard
    fits everything", so auctions reject often enough to exercise the
    rebalancer; placement specs cover all three shipped policies.
    """
    num_shards = draw(st.integers(1, max_shards))
    seed = draw(st.integers(0, 2**16))
    placement = draw(st.sampled_from([
        f"consistent-hash:seed={seed % 97}",
        "least-loaded",
        "round-robin",
    ]))
    num_clients = draw(st.integers(1, max_clients))
    rate = float(draw(st.integers(1, 5)))
    capacity = draw(st.floats(2.0, 40.0, allow_nan=False,
                              allow_infinity=False))
    num_periods = draw(st.integers(1, max_periods))
    submissions = []
    for period in range(1, num_periods + 1):
        count = draw(st.integers(0 if period > 1 else 1,
                                 max_queries_per_period))
        batch = []
        for index in range(count):
            owner = f"c{draw(st.integers(0, num_clients - 1))}"
            bid = draw(st.floats(0.0, max_bid, allow_nan=False,
                                 allow_infinity=False))
            cost = draw(st.floats(0.25, 3.0, allow_nan=False,
                                  allow_infinity=False))
            batch.append(select_query(
                f"p{period}q{index}", owner, bid, cost))
        submissions.append(tuple(batch))
    return ClusterWorkload(
        num_shards=num_shards,
        capacity=capacity,
        rate=rate,
        seed=seed,
        placement=placement,
        submissions=tuple(submissions),
    )


# ----------------------------------------------------------------------
# Multi-operator plans over a shared operator library (repro.service)
# ----------------------------------------------------------------------

#: The shared library: op id → (input name, cost per tuple).  ``join``
#: reads a library operator, so plans form chains two and three deep.
SHARED_LIBRARY = {
    "parse": ("s", 0.5),
    "clean": ("parse", 0.25),
    "join": ("clean", 1.0),
    "audit": ("s", 0.75),
}
_UPSTREAM = {"parse": (), "clean": ("parse",),
             "join": ("parse", "clean"), "audit": ()}


@dataclass(frozen=True)
class PlanRecipe:
    """What :func:`plan_from_recipe` needs to build one plan afresh.

    A recipe, not a plan: a differential test gives each system under
    comparison its *own* operator objects (engines count tuples on
    them) and its own id strings (pickle tells equal strings from the
    same string).
    """

    query_id: str
    bid: float
    valuation: "float | None"
    owner: str
    #: (library op id, selectivity estimate) per shared operator,
    #: upstream first; holders may disagree on the estimate.
    shared: tuple[tuple[str, float], ...]
    private_cost: float


def plan_from_recipe(recipe: PlanRecipe) -> ContinuousQuery:
    """A fresh plan: the recipe's shared chain, then a private select."""
    operators = []
    for name, selectivity in recipe.shared:
        source, cost = SHARED_LIBRARY[name]
        # Built, not literal: every plan holds its own copy of a
        # shared id, as plans decoded off the wire do.
        operators.append(SelectOperator(
            "".join(["lib_", name]),
            source if source == "s" else "".join(["lib_", source]),
            accept_all, cost_per_tuple=cost,
            selectivity_estimate=selectivity))
    tail = operators[-1].op_id if operators else "s"
    sink = SelectOperator(f"sel_{recipe.query_id}", tail, accept_all,
                          cost_per_tuple=recipe.private_cost,
                          selectivity_estimate=1.0)
    return ContinuousQuery(
        recipe.query_id, (*operators, sink), sink_id=sink.op_id,
        bid=recipe.bid, valuation=recipe.valuation, owner=recipe.owner)


@st.composite
def plan_recipes(draw, query_id: str) -> PlanRecipe:
    """Draw a recipe whose shared chain is closed under its inputs."""
    top = draw(st.sampled_from([None, *SHARED_LIBRARY]))
    names = () if top is None else (*_UPSTREAM[top], top)
    if names and draw(st.booleans()):
        names = (*names, "audit") if "audit" not in names else names
    shared = tuple(
        (name, draw(st.sampled_from([0.25, 0.5, 1.0]))) for name in names)
    bid = draw(st.floats(0.0, 100.0, allow_nan=False))
    return PlanRecipe(
        query_id=query_id,
        bid=bid,
        valuation=draw(st.sampled_from([None, bid, bid + 1.0])),
        owner=f"c{draw(st.integers(0, 3))}",
        shared=shared,
        private_cost=draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])),
    )


#: Text a JSON writer must escape or cannot write as plain ASCII.
_AWKWARD_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['q"1', "back\\slash", "tab\there", "new\nline",
                     "\x00\x1f\x7f", "caf\u00e9", "\u2603\U0001f600",
                     "\ud800", "", "</script>"]),
)

#: Numbers whose canonical JSON is easy to get wrong.
_AWKWARD_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([1e16, 5e-324, -0.0, 0.0, 1.0, 0, 1, 0.1, 1e-7,
                     123456789.0, 2.5e300, float("nan"), float("inf"),
                     -float("inf")]),
)


@st.composite
def select_plans(draw):
    """A single pass-all select: as a :class:`SelectPlan`, or (with
    plain numbers, which plan validation accepts) as the
    :class:`ContinuousQuery` it materialises to."""
    plan = SelectPlan(
        draw(_AWKWARD_TEXT), draw(_AWKWARD_TEXT), draw(_AWKWARD_TEXT),
        draw(_AWKWARD_NUMBERS), draw(_AWKWARD_NUMBERS),
        draw(_AWKWARD_NUMBERS),
        draw(st.none() | _AWKWARD_NUMBERS),
        draw(st.none() | _AWKWARD_TEXT),
    )
    if draw(st.booleans()):
        return plan
    query_id = draw(_AWKWARD_TEXT.filter(bool))
    return SelectPlan(
        query_id, f"sel_{query_id}", draw(st.sampled_from(["s", "t\u00e9"])),
        draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 1.0)),
        draw(st.floats(0.0, 1e6) | st.integers(0, 10 ** 6)),
        draw(st.none() | st.floats(0.0, 1e6)),
        plan.owner,
    ).materialize()

"""Columnar ≡ eager: what a settled columnar instance reads back.

A :class:`~repro.sim.columnar.ColumnarSelectInstance` keeps its rows
as columns and builds no per-row float lists: a winner materializes
straight from the cost and bid columns, and ``union_load`` reads the
load column for just the rows it is asked about.  Both must give the
exact floats the eager :class:`~repro.core.model.AuctionInstance` of
the same rows gives — ``union_load`` sums over a hash-ordered set, so
the same insertion order must yield the same bits.  Costs and bids
are thirds shifted by 0.1, so they are almost never exactly
representable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import AuctionInstance, Operator
from repro.sim.arrivals import PoissonArrivals, SelectPlan
from repro.sim.columnar import ColumnarSelectInstance

RATE = 2.0

#: Positive floats with long binary expansions (0.1-ish, 1/3-ish ...).
awkward = st.floats(min_value=0.01, max_value=100.0, allow_nan=False,
                    allow_infinity=False).map(lambda x: x / 3.0 + 0.1)


@st.composite
def row_sets(draw):
    """Columns for one category auction plus its eager twin."""
    n = draw(st.integers(min_value=1, max_value=24))
    costs = draw(st.lists(awkward, min_size=n, max_size=n))
    bids = draw(st.lists(awkward, min_size=n, max_size=n))
    ids = [f"q{row}" for row in range(n)]
    ops = ["sel_" + query_id for query_id in ids]
    owners = [f"user_{row % 3}" for row in range(n)]
    capacity = draw(st.floats(min_value=0.5, max_value=500.0))
    costs_arr = np.asarray(costs, dtype=np.float64)
    columnar = ColumnarSelectInstance._from_rows(
        ids=ids, ops=ops, inputs=["s"] * n, costs=costs_arr,
        selectivities=[1.0] * n,
        bids=np.asarray(bids, dtype=np.float64),
        loads=RATE * costs_arr, valuations=None, owners=owners,
        objs=None, capacity=capacity)
    # The reference boundary's instance: scalar loads, plan objects.
    eager = AuctionInstance(
        operators={op: Operator(op, RATE * cost)
                   for op, cost in zip(ops, costs)},
        queries=tuple(SelectPlan(query_id, op, "s", cost, 1.0, bid,
                                 None, owner)
                      for query_id, op, cost, bid, owner
                      in zip(ids, ops, costs, bids, owners)),
        capacity=capacity)
    return columnar, eager


def plan_fields(plan):
    return tuple(value.hex() if isinstance(value, float) else value
                 for value in (getattr(plan, name)
                               for name in SelectPlan.__slots__))


@settings(max_examples=150, deadline=None)
@given(pair=row_sets(), data=st.data())
def test_union_load_is_bit_equal_to_the_eager_instance(pair, data):
    columnar, eager = pair
    ids = [query.query_id for query in eager.queries]
    for _ in range(4):
        subset = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids),
                                    unique=True))
        assert (repr(columnar.union_load(subset))
                == repr(eager.union_load(subset)))
    assert repr(columnar.union_load(ids)) == repr(eager.union_load(ids))


@settings(max_examples=100, deadline=None)
@given(pair=row_sets(), data=st.data())
def test_materialized_winners_equal_the_eager_queries(pair, data):
    columnar, eager = pair
    ids = [query.query_id for query in eager.queries]
    winners = data.draw(st.lists(st.sampled_from(ids), unique=True))
    for query_id in winners:
        assert (plan_fields(columnar.query(query_id))
                == plan_fields(eager.query(query_id)))
    # A settled instance forgets its views and rebuilds them alike.
    columnar.forget_derived()
    assert ([plan_fields(query) for query in columnar.queries]
            == [plan_fields(query) for query in eager.queries])
    assert columnar.operators == eager.operators


def test_no_whole_column_float_lists():
    for name in ("_cost_floats", "_bid_floats", "_op_load_of"):
        assert not hasattr(ColumnarSelectInstance, name)


@settings(max_examples=40, deadline=None)
@given(clients=st.integers(min_value=1, max_value=40),
       block=st.integers(min_value=1, max_value=64),
       blocks=st.integers(min_value=1, max_value=4))
def test_a_synthetic_block_shares_its_owner_strings(clients, block, blocks):
    process = PoissonArrivals(rate=5.0, seed=1, clients=clients,
                              block=block)
    base = 0
    for _ in range(blocks):
        rows = process.next_block()
        owners = list(rows.owners)
        assert len({id(owner) for owner in owners}) <= clients
        assert owners == [f"user_{(base + offset) % clients}"
                          for offset in range(len(owners))]
        base += len(owners)

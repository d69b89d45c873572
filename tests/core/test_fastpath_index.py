"""Unit and property tests for the fastpath index and kernels.

The satellite Hypothesis property lives here: the incremental
admitted-operator *bitmask* accounting (:class:`FastTracker`) must
equal the set-based remaining-load definition
(:func:`repro.core.loads.remaining_load` / :class:`LoadTracker`)
under adversarial sharing — operators shared by every query,
zero-load operators, empty winner sets.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import (
    FastTracker,
    InstanceIndex,
    bid_order_indices,
    density_order,
    greedy_walk,
    optimal_single_price_array,
    skip_over_walk,
)
from repro.core.greedy import greedy_admit, priority_order
from repro.core.gv import bid_order
from repro.core.loads import (
    LoadTracker,
    remaining_load,
    static_fair_share_load,
    total_load,
)
from repro.core.model import AuctionInstance, Operator, Query

from tests.strategies import auction_instances


def build(operator_loads, query_specs, bids, capacity):
    return AuctionInstance.build(operator_loads, query_specs, bids,
                                 capacity)


SHARED_BY_ALL = build(
    {"shared": 4.0, "zero": 0.0, "own0": 1.0, "own1": 2.0},
    {"q0": ["shared", "zero", "own0"],
     "q1": ["shared", "zero", "own1"],
     "q2": ["shared", "zero"]},
    {"q0": 10.0, "q1": 8.0, "q2": 5.0},
    capacity=6.0,
)


class TestIndexStructure:
    def test_arrays_match_model(self):
        index = InstanceIndex.of(SHARED_BY_ALL)
        assert index.num_queries == 3
        assert index.num_operators == 4
        assert index.capacity == 6.0
        by_op = dict(zip(index.op_ids, index.op_loads.tolist()))
        assert by_op == {"shared": 4.0, "zero": 0.0, "own0": 1.0,
                         "own1": 2.0}
        sharing = dict(zip(index.op_ids, index.sharing.tolist()))
        assert sharing == {"shared": 3, "zero": 3, "own0": 1, "own1": 1}
        # CSR rows follow each query's declared operator order.
        for qi, query in enumerate(SHARED_BY_ALL.queries):
            row = index.indices[index.indptr[qi]:index.indptr[qi + 1]]
            assert [index.op_ids[o] for o in row] == list(
                query.operator_ids)
            assert index.query_ops[qi] == row.tolist()

    def test_cached_on_instance(self):
        instance = SHARED_BY_ALL.with_capacity(9.0)
        assert InstanceIndex.of(instance) is InstanceIndex.of(instance)

    def test_cache_excluded_from_pickle_and_deepcopy(self):
        instance = SHARED_BY_ALL.with_capacity(9.0)
        InstanceIndex.of(instance)
        assert "_fastpath_cache" in instance.__dict__
        for clone in (pickle.loads(pickle.dumps(instance)),
                      copy.deepcopy(instance)):
            assert "_fastpath_cache" not in clone.__dict__
            assert clone == instance

    @given(auction_instances())
    @settings(max_examples=60, deadline=None)
    def test_load_measures_match_reference_exactly(self, instance):
        index = InstanceIndex.of(instance)
        for qi, query in enumerate(instance.queries):
            assert index.total_loads_list[qi] == total_load(
                instance, query)
            assert index.fair_share_loads_list[qi] == (
                static_fair_share_load(instance, query))
            assert index.total_loads[qi] == index.total_loads_list[qi]

    @given(auction_instances())
    @settings(max_examples=40, deadline=None)
    def test_simple_query_flags(self, instance):
        index = InstanceIndex.of(instance)
        for qi, query in enumerate(instance.queries):
            expected = all(instance.sharing_degree(op_id) == 1
                           for op_id in query.operator_ids)
            assert index.simple_queries[qi] == expected


class TestBitmaskAccounting:
    """Satellite: incremental bitmask == set-based remaining load."""

    @given(auction_instances(max_queries=10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tracker_equals_set_based_accounting(self, instance, data):
        index = InstanceIndex.of(instance)
        fast = FastTracker(index)
        reference = LoadTracker(instance)
        admitted: list[int] = []
        order = data.draw(st.permutations(range(instance.num_queries)))
        for qi in order:
            query = instance.queries[qi]
            # The bitmask marginal equals the set-based Definition 2,
            # computed from scratch against the running operator set.
            assert fast.marginal(qi) == remaining_load(
                instance, query, reference.running_operator_ids)
            assert fast.marginal(qi) == reference.marginal_load(query)
            assert fast.fits(qi) == reference.fits(query)
            if data.draw(st.booleans()):
                assert fast.try_admit(qi) == reference.try_admit(query)
                admitted.append(qi)
            assert fast.used == reference.used_capacity
            assert (fast.running_operator_ids()
                    == reference.running_operator_ids)

    def test_empty_winner_set_is_full_load(self):
        index = InstanceIndex.of(SHARED_BY_ALL)
        tracker = FastTracker(index)
        for qi, query in enumerate(SHARED_BY_ALL.queries):
            assert tracker.marginal(qi) == remaining_load(
                SHARED_BY_ALL, query, ())
            assert tracker.marginal(qi) == total_load(
                SHARED_BY_ALL, query)

    def test_operator_shared_by_all_charged_once(self):
        index = InstanceIndex.of(SHARED_BY_ALL)
        tracker = FastTracker(index)
        assert tracker.admit(0) == 5.0  # shared + zero + own0
        # shared/zero already running: only private operators remain.
        assert tracker.marginal(1) == 2.0
        assert tracker.marginal(2) == 0.0
        assert tracker.used == 5.0

    def test_zero_load_operators_never_block(self):
        instance = build(
            {"z0": 0.0, "z1": 0.0},
            {"q0": ["z0", "z1"], "q1": ["z1"]},
            {"q0": 1.0, "q1": 2.0},
            capacity=1.0,
        )
        tracker = FastTracker(InstanceIndex.of(instance))
        assert tracker.marginal(0) == 0.0
        assert tracker.try_admit(0)
        assert tracker.try_admit(1)
        assert tracker.used == 0.0


class TestOrdersAndWalk:
    @given(auction_instances())
    @settings(max_examples=60, deadline=None)
    def test_orders_match_reference(self, instance):
        index = InstanceIndex.of(instance)
        ids = index.query_ids
        for measure, loads in (
                (total_load, index.total_loads),
                (static_fair_share_load, index.fair_share_loads)):
            expected = [q.query_id
                        for q in priority_order(instance, measure)]
            assert [ids[qi] for qi in density_order(index, loads)] == (
                expected)
        assert [ids[qi] for qi in bid_order_indices(index)] == [
            q.query_id for q in bid_order(instance)]

    @given(auction_instances(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_reference(self, instance, skip_over):
        index = InstanceIndex.of(instance)
        order = density_order(index, index.total_loads)
        reference = greedy_admit(
            instance,
            [instance.queries[qi] for qi in order],
            skip_over=skip_over)
        if skip_over:
            winners, first_loser, _ = skip_over_walk(index, order)
        else:
            winners, first_loser, tracker = greedy_walk(index, order)
            assert tracker.used == reference.tracker.used_capacity
        ids = index.query_ids
        assert [ids[qi] for qi in winners] == [
            q.query_id for q in reference.winners]
        expected_loser = (None if reference.first_loser is None
                          else reference.first_loser.query_id)
        assert (None if first_loser is None
                else ids[first_loser]) == expected_loser


class TestMovementWindow:
    @given(auction_instances(max_queries=10))
    @settings(max_examples=100, deadline=None)
    def test_batched_lasts_equal_single_replays(self, instance):
        from repro.core.movement_window import find_last as ref_find_last

        index = InstanceIndex.of(instance)
        order = density_order(index, index.fair_share_loads)
        winners, _, lasts = skip_over_walk(index, order)
        assert set(lasts) == set(winners)
        order_queries = [instance.queries[qi] for qi in order]
        for qi in winners:
            expected = ref_find_last(
                instance, order_queries, instance.queries[qi])
            got = (None if lasts[qi] is None
                   else index.query_ids[lasts[qi]])
            assert got == (None if expected is None
                           else expected.query_id)


#: Under CAT+'s total-load order, the replay without one winner fails
#: a fit test before the walk's first loser (float rounding), so the
#: op-level replay takes over from that position.
FALLBACK_BEFORE_FIRST_LOSER = build(
    {"o0": 0.7, "o1": 0.15, "o2": 0.7, "o3": 0.05},
    {"q0": ["o1", "o0", "o2", "o3"], "q1": ["o3", "o0", "o1", "o2"],
     "q2": ["o3", "o2", "o0"], "q3": ["o0", "o3"], "q4": ["o0"],
     "q5": ["o2", "o1", "o3", "o0"]},
    {"q0": 5.0, "q1": 2.0, "q2": 2.0, "q3": 1.0, "q4": 1.0, "q5": 5.0},
    capacity=1.5999999989999998,
)

#: Everyone wins: the walk fills the capacity to exactly 1.7.  The
#: replay without q2 sums the same operators in other groupings and
#: reaches 1.7000000000000002 at q1, so it cannot re-admit q1.  A
#: replay that trusted the walk's admissions would report
#: last(q2) = q1.
FALLBACK_DECIDES_LAST = build(
    {"o0": 0.35, "o1": 0.15, "o2": 0.05, "o3": 0.7, "o4": 0.45},
    {"q0": ["o2", "o3"], "q1": ["o0", "o4", "o1", "o2", "o3"],
     "q2": ["o2", "o1"]},
    {"q0": 3.0, "q1": 3.0, "q2": 3.0},
    capacity=1.6999999989999999,
)

#: Under CAT+, the replay without q1 fails the fit test at a position
#: whose margin it takes from the walk (no operator of q1 comes back
#: there): q1's boundary is then decided by the op-level replay from
#: that position.  A replay that trusted the walk's admission there
#: would report no boundary for q1.
FALLBACK_AT_RECORDED_MARGIN = build(
    {"o0": 0.3, "o1": 0.45, "o2": 1 / 3, "o3": 0.2, "o4": 1 / 7,
     "o5": 0.35},
    {"q0": ["o0", "o3", "o4", "o1"], "q1": ["o4", "o3", "o2"],
     "q2": ["o4", "o3", "o5", "o1", "o2"],
     "q3": ["o2", "o5", "o3", "o0", "o1"], "q4": ["o2", "o5", "o3"],
     "q5": ["o2"]},
    {"q0": 2.0, "q1": 3.0, "q2": 4.0, "q3": 1.0, "q4": 3.0, "q5": 4.0},
    capacity=1.776190475190476,
)

#: The winner test already holds before the first replayed position,
#: and admitting that position undoes it: the reference finds no
#: boundary there.
TEST_UNDONE_BY_FIRST_ADMISSION = build(
    {"o0": 0.6, "o1": 0.3333333333333333, "o2": 0.15},
    {"q0": ["o1", "o0"], "q1": ["o0"], "q2": ["o1", "o0", "o2"],
     "q3": ["o2", "o0"], "q4": ["o1"], "q5": ["o0", "o1"]},
    {"q0": 1.0, "q1": 2.0, "q2": 2.0, "q3": 2.0, "q4": 1.0, "q5": 4.0},
    capacity=1.0833333323333332,
)


@pytest.mark.parametrize("measure", ["total", "fair_share"])
@pytest.mark.parametrize(
    "instance", [FALLBACK_BEFORE_FIRST_LOSER, FALLBACK_DECIDES_LAST,
                 FALLBACK_AT_RECORDED_MARGIN,
                 TEST_UNDONE_BY_FIRST_ADMISSION],
    ids=["fallback", "fallback-decides", "fallback-recorded", "undone"])
def test_float_edge_lasts_equal_single_replays(instance, measure):
    from repro.core.movement_window import find_last as ref_find_last

    index = InstanceIndex.of(instance)
    loads = getattr(index, f"{measure}_loads")
    order = density_order(index, loads)
    winners, first_loser, lasts = skip_over_walk(index, order)
    order_queries = [instance.queries[qi] for qi in order]
    reference = greedy_admit(instance, order_queries, skip_over=True)
    assert [index.query_ids[qi] for qi in winners] == [
        q.query_id for q in reference.winners]
    assert (None if first_loser is None
            else index.query_ids[first_loser]) == (
        None if reference.first_loser is None
        else reference.first_loser.query_id)
    for qi in winners:
        expected = ref_find_last(
            instance, order_queries, instance.queries[qi])
        assert lasts[qi] == (None if expected is None
                             else index.query_ids.index(expected.query_id))
    # And so the mechanism whose order this is charges what the
    # reference charges.
    from repro.core import make_mechanism

    name = {"total": "CAT+", "fair_share": "CAF+"}[measure]
    fast = make_mechanism(name).run(instance, selection="fast")
    reference = make_mechanism(name).run(instance, selection="reference")
    assert fast.payments == reference.payments
    assert fast.details == reference.details


#: Loads where the summation order shows: 1e16 + 1.0 rounds back to
#: 1e16, so each query's measures depend on its declared order.
ORDER_SENSITIVE_LOADS = [1e16, 1.0, 1.0, 1e16, 0.5, 3.0, 1.0, 2.0 ** -40,
                         1e15, 1.0, 0.25, 7.0, 1.0, 1e16]


def _order_sensitive_instance():
    shared = {f"s{i}": load for i, load in enumerate(ORDER_SENSITIVE_LOADS)}
    private = {f"p{i}": load for i, load in enumerate(ORDER_SENSITIVE_LOADS)}
    names = list(shared)
    specs = {
        "forward": names,
        "backward": names[::-1],
        "ones_first": names[1:3] + names[5:] + names[:1] + names[3:5],
        "twelve": names[2:],
        "single": ["s1"],
        "private": list(private),
    }
    return build({**shared, **private}, specs,
                 {qid: 1.0 for qid in specs}, capacity=1e17)


class TestColumnPasses:
    def test_order_sensitive_loads_sum_left_to_right(self):
        instance = _order_sensitive_instance()
        index = InstanceIndex(instance)
        totals, fairs = [], []
        for query in instance.queries:
            total = fair = 0.0
            for op_id in query.operator_ids:
                load = instance.operator(op_id).load
                total += load
                fair += load / instance.sharing_degree(op_id)
            totals.append(total)
            fairs.append(fair)
        assert [x.hex() for x in index.total_loads_list] == [
            x.hex() for x in totals]
        assert [x.hex() for x in index.fair_share_loads_list] == [
            x.hex() for x in fairs]
        assert index.total_loads.tolist() == index.total_loads_list
        assert index.fair_share_loads.tolist() == (
            index.fair_share_loads_list)
        # The same operators in another order sum to other floats.
        assert len(set(totals[:3])) > 1

    def test_structure_of_a_ragged_instance(self):
        instance = _order_sensitive_instance()
        index = InstanceIndex(instance)
        op_ids = index.op_ids
        assert index.sharing.tolist() == [
            instance.sharing_degree(op_id) for op_id in op_ids]
        assert index.simple_queries == [
            all(instance.sharing_degree(op_id) == 1
                for op_id in query.operator_ids)
            for query in instance.queries]
        assert index.simple_queries[-1] and not any(
            index.simple_queries[:-1])
        for o, op_id in enumerate(op_ids):
            members = index.op_members[index.op_ptr[o]:index.op_ptr[o + 1]]
            assert members.tolist() == [
                qi for qi, query in enumerate(instance.queries)
                if op_id in query.operator_ids]


class TestOptimalSinglePrice:
    @given(st.lists(st.floats(0, 1000, allow_nan=False), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, values):
        from repro.core.two_price import optimal_single_price

        expected = optimal_single_price(values)
        assert optimal_single_price_array(
            np.asarray(values, dtype=np.float64)) == expected
        # Satellite: the presorted path skips the re-sort but must
        # agree with the sorting path.
        ordered = sorted(values, reverse=True)
        assert optimal_single_price(ordered, presorted=True) == expected

    def test_empty_and_all_zero(self):
        assert optimal_single_price_array(
            np.asarray([], dtype=np.float64)) == (float("inf"), 0.0)
        assert optimal_single_price_array(
            np.zeros(3)) == (float("inf"), 0.0)

    def test_prefers_earliest_maximum(self):
        # ranks 1*4 and 2*2 both yield 4: the reference keeps the
        # earliest (highest price).
        assert optimal_single_price_array(
            np.asarray([4.0, 2.0])) == (4.0, 4.0)


class TestEmptyInstance:
    def test_kernels_handle_zero_queries(self):
        instance = AuctionInstance({}, (), capacity=5.0)
        index = InstanceIndex.of(instance)
        assert density_order(index, index.total_loads) == []
        winners, lost, tracker = greedy_walk(index, [])
        assert winners == [] and lost is None and tracker.used == 0.0


def test_operator_load_validation_unchanged():
    from repro.utils.validation import ValidationError

    with pytest.raises(ValidationError):
        Operator("x", -1.0)
    with pytest.raises(ValidationError):
        Query("q", (), 1.0)

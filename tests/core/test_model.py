"""Unit tests for the auction data model."""

import pytest

from repro.core.model import AuctionInstance, Operator, Query
from repro.utils.validation import ValidationError


def make_instance(**overrides):
    defaults = dict(
        operator_loads={"a": 2.0, "b": 3.0, "c": 1.0},
        query_specs={"q1": ["a", "b"], "q2": ["b", "c"], "q3": ["c"]},
        bids={"q1": 10.0, "q2": 20.0, "q3": 5.0},
        capacity=6.0,
    )
    defaults.update(overrides)
    return AuctionInstance.build(**defaults)


class TestOperator:
    def test_valid_construction(self):
        op = Operator("sel1", 2.5)
        assert op.op_id == "sel1"
        assert op.load == 2.5

    def test_zero_load_allowed(self):
        assert Operator("free", 0.0).load == 0.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValidationError):
            Operator("bad", -1.0)

    def test_nan_load_rejected(self):
        # NaN is not < 0, and it passes every capacity comparison.
        with pytest.raises(ValidationError):
            Operator("bad", float("nan"))

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            Operator("", 1.0)


class TestQuery:
    def test_true_value_defaults_to_bid(self):
        query = Query("q", ("a",), bid=7.0)
        assert query.true_value == 7.0

    def test_explicit_valuation(self):
        query = Query("q", ("a",), bid=5.0, valuation=9.0)
        assert query.true_value == 9.0
        assert query.bid == 5.0

    def test_owner_defaults_to_query_id(self):
        assert Query("q7", ("a",), bid=1.0).owner_id == "q7"
        assert Query("q7", ("a",), bid=1.0, owner="alice").owner_id == "alice"

    def test_with_bid_preserves_valuation(self):
        query = Query("q", ("a",), bid=5.0)
        rebid = query.with_bid(2.0)
        assert rebid.bid == 2.0
        assert rebid.true_value == 5.0

    def test_requires_operator(self):
        with pytest.raises(ValidationError):
            Query("q", (), bid=1.0)

    def test_duplicate_operator_rejected(self):
        with pytest.raises(ValidationError):
            Query("q", ("a", "a"), bid=1.0)

    def test_negative_bid_rejected(self):
        with pytest.raises(ValidationError):
            Query("q", ("a",), bid=-1.0)


class TestAuctionInstance:
    def test_build_and_lookup(self):
        instance = make_instance()
        assert instance.num_queries == 3
        assert instance.query("q1").bid == 10.0
        assert instance.operator("b").load == 3.0

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError):
            make_instance(query_specs={"q1": ["a", "zzz"]},
                          bids={"q1": 1.0})

    def test_duplicate_query_id_rejected(self):
        ops = {"a": Operator("a", 1.0)}
        q = Query("q1", ("a",), bid=1.0)
        with pytest.raises(ValidationError):
            AuctionInstance(ops, (q, q), capacity=5.0)

    def test_sharing_degree(self):
        instance = make_instance()
        assert instance.sharing_degree("b") == 2
        assert instance.sharing_degree("a") == 1
        assert instance.max_sharing_degree() == 2

    def test_union_load_counts_shared_once(self):
        instance = make_instance()
        # q1 ∪ q2 = {a, b, c} = 6, not 2+3 + 3+1 = 9.
        assert instance.union_load(["q1", "q2"]) == pytest.approx(6.0)

    def test_fits(self):
        instance = make_instance()
        assert instance.fits(["q1"])
        assert instance.fits(["q1", "q2"])  # exactly capacity
        assert instance.fits(["q1", "q2", "q3"])  # c shared, still 6

    def test_total_demand(self):
        assert make_instance().total_demand() == pytest.approx(6.0)

    def test_with_bid(self):
        instance = make_instance()
        rebid = instance.with_bid("q1", 99.0)
        assert rebid.query("q1").bid == 99.0
        assert rebid.query("q1").true_value == 10.0  # truth preserved
        assert instance.query("q1").bid == 10.0  # original untouched

    def test_with_bid_unknown_query(self):
        with pytest.raises(KeyError):
            make_instance().with_bid("nope", 1.0)

    def test_with_queries_adds(self):
        instance = make_instance()
        extra = Query("q4", ("a",), bid=3.0)
        grown = instance.with_queries([extra])
        assert grown.num_queries == 4
        assert grown.sharing_degree("a") == 2
        assert instance.num_queries == 3

    def test_with_queries_new_operator(self):
        instance = make_instance()
        grown = instance.with_queries(
            [Query("q4", ("new",), bid=1.0)],
            [Operator("new", 0.5)])
        assert grown.operator("new").load == 0.5

    def test_with_queries_conflicting_operator_rejected(self):
        instance = make_instance()
        with pytest.raises(ValidationError):
            instance.with_queries(
                [Query("q4", ("a",), bid=1.0)],
                [Operator("a", 99.0)])

    def test_without_queries(self):
        instance = make_instance()
        shrunk = instance.without_queries(["q2"])
        assert shrunk.num_queries == 2
        assert shrunk.sharing_degree("b") == 1

    def test_with_capacity(self):
        assert make_instance().with_capacity(100.0).capacity == 100.0

    def test_with_capacity_starts_without_the_index(self):
        from repro.core.fastpath import InstanceIndex

        source = make_instance()
        InstanceIndex.of(source)
        clone = source.with_capacity(9.0)
        # The index is per instance: the copy builds its own.
        assert "_fastpath_cache" not in clone.__dict__
        assert InstanceIndex.of(clone).capacity == 9.0
        assert clone == AuctionInstance(source.operators, source.queries, 9.0)

    @pytest.mark.parametrize("capacity", [0.0, -1.0, float("nan")])
    def test_with_capacity_checks_the_capacity(self, capacity):
        with pytest.raises(ValidationError):
            make_instance().with_capacity(capacity)

    def test_truthful_resets_bids(self):
        instance = make_instance().with_bid("q1", 2.0)
        truthful = instance.truthful()
        assert truthful.query("q1").bid == 10.0

    def test_max_valuation(self):
        assert make_instance().max_valuation() == 20.0

    def test_owners_grouping(self):
        ops = {"a": Operator("a", 1.0)}
        queries = (
            Query("q1", ("a",), bid=1.0, owner="u"),
            Query("q2", ("a",), bid=2.0, owner="u"),
            Query("q3", ("a",), bid=3.0),
        )
        instance = AuctionInstance(ops, queries, capacity=5.0)
        owners = instance.owners()
        assert {q.query_id for q in owners["u"]} == {"q1", "q2"}
        assert [q.query_id for q in owners["q3"]] == ["q3"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValidationError):
            make_instance(capacity=0.0)

"""Query-plan catalog tests: sharing, merging, topology."""

import pytest

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.utils.validation import ValidationError


def select(op_id, source="s", cost=1.0):
    return SelectOperator(op_id, source, lambda t: True,
                          cost_per_tuple=cost)


class TestContinuousQuery:
    def test_valid(self):
        q = ContinuousQuery("q", (select("a"),), sink_id="a", bid=5.0)
        assert q.operator_ids == ("a",)
        assert q.true_value == 5.0

    def test_sink_must_be_member(self):
        with pytest.raises(ValidationError):
            ContinuousQuery("q", (select("a"),), sink_id="zzz")

    def test_duplicate_operator_rejected(self):
        with pytest.raises(ValidationError):
            ContinuousQuery("q", (select("a"), select("a")), sink_id="a")


class TestCatalogSharing:
    def test_shared_operator_merged(self):
        catalog = QueryPlanCatalog()
        catalog.add(ContinuousQuery("q1", (select("shared"),),
                                    sink_id="shared"))
        catalog.add(ContinuousQuery("q2", (select("shared"),),
                                    sink_id="shared"))
        assert len(catalog.operators) == 1
        assert catalog.sharing_degree("shared") == 2
        assert set(catalog.queries_containing("shared")) == {"q1", "q2"}

    def test_conflicting_share_rejected(self):
        """Every operator is checked before any is stored: the refused
        query's fresh operator ``b`` is not left behind."""
        catalog = QueryPlanCatalog()
        catalog.add(ContinuousQuery("q1", (select("x", cost=1.0),),
                                    sink_id="x"))
        with pytest.raises(ValidationError):
            catalog.add(ContinuousQuery(
                "q2", (select("b"), select("x", cost=9.0)), sink_id="x"))
        assert list(catalog.operator_ids) == ["x"]
        assert list(catalog.query_ids) == ["q1"]
        catalog.add(ContinuousQuery("q3", (select("b", cost=2.0),),
                                    sink_id="b"))

    def test_remove_drops_orphans_keeps_shared(self):
        catalog = QueryPlanCatalog()
        catalog.add(ContinuousQuery(
            "q1", (select("shared"), select("only1")), sink_id="only1"))
        catalog.add(ContinuousQuery("q2", (select("shared"),),
                                    sink_id="shared"))
        catalog.remove("q1")
        assert "only1" not in catalog.operators
        assert "shared" in catalog.operators

    def test_duplicate_query_rejected(self):
        catalog = QueryPlanCatalog()
        catalog.add(ContinuousQuery("q", (select("a"),), sink_id="a"))
        with pytest.raises(ValidationError):
            catalog.add(ContinuousQuery("q", (select("b"),), sink_id="b"))


class TestTopology:
    def test_topological_order(self):
        a = select("a", source="s")
        b = SelectOperator("b", "a", lambda t: True)
        c = SelectOperator("c", "b", lambda t: True)
        catalog = QueryPlanCatalog(
            [ContinuousQuery("q", (c, a, b), sink_id="c")])
        order = [op.op_id for op in catalog.topological_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_detected(self):
        a = SelectOperator("a", "b", lambda t: True)
        b = SelectOperator("b", "a", lambda t: True)
        catalog = QueryPlanCatalog(
            [ContinuousQuery("q", (a, b), sink_id="a")])
        with pytest.raises(ValidationError):
            catalog.topological_order()


class TestTopologicalOrderCache:
    def test_repeated_calls_return_equal_fresh_lists(self):
        a = select("a")
        catalog = QueryPlanCatalog(
            [ContinuousQuery("q", (a,), sink_id="a")])
        first = catalog.topological_order()
        second = catalog.topological_order()
        assert first == second
        assert first is not second  # callers may mutate their copy
        first.clear()
        assert catalog.topological_order() == second

    def test_cache_invalidated_by_add_and_remove(self):
        a = select("a")
        catalog = QueryPlanCatalog(
            [ContinuousQuery("q1", (a,), sink_id="a")])
        assert [op.op_id for op in catalog.topological_order()] == ["a"]
        b = select("b")
        catalog.add(ContinuousQuery("q2", (b,), sink_id="b"))
        assert [op.op_id for op in catalog.topological_order()] == [
            "a", "b"]
        catalog.remove("q1")
        assert [op.op_id for op in catalog.topological_order()] == ["b"]

    def test_cache_invalidated_by_engine_transition(self):
        # apply_changes regression: a transition mutates the plan
        # through add/remove, so the next tick must execute the new
        # operator set, not a stale cached order.
        from repro.dsms.engine import StreamEngine
        from repro.dsms.streams import SyntheticStream

        engine = StreamEngine(
            [SyntheticStream("s", rate=2, poisson=False, seed=0)])
        engine.admit(ContinuousQuery("q1", (select("a"),), sink_id="a"))
        engine.run(2)
        engine.transition(
            add=[ContinuousQuery("q2", (select("b"),), sink_id="b")],
            remove=["q1"])
        engine.run(2)
        order = [op.op_id for op in engine.catalog.topological_order()]
        assert order == ["b"]
        # 2 held-and-replayed tuples + 2 ticks × 2: the new operator
        # set executed, including over the transition's held arrivals.
        assert len(engine.results["q2"]) == 6

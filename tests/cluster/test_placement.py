"""Unit tests for the placement policies and their registry."""

import copy

import pytest

from repro.cluster import (
    ConsistentHashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    ShardStatus,
    register_placement,
    registered_placements,
    resolve_placement,
)
from repro.utils.validation import ValidationError

from tests.strategies import select_query

pytestmark = pytest.mark.cluster


def statuses(*counts, capacity=10.0):
    """Shard statuses with the given (pending, admitted) pairs."""
    return tuple(
        ShardStatus(index=i, capacity=capacity,
                    pending_count=pending, admitted_count=admitted)
        for i, (pending, admitted) in enumerate(counts)
    )


def q(qid, owner=None, bid=10.0):
    return select_query(qid, owner or qid, bid, 1.0)


class TestRoundRobin:
    def test_cycles_through_shards(self):
        policy = RoundRobinPlacement()
        shards = statuses((0, 0), (0, 0), (0, 0))
        chosen = [policy.choose(q(f"q{i}"), shards) for i in range(7)]
        assert chosen == [0, 1, 2, 0, 1, 2, 0]

    def test_cursor_survives_deep_copy(self):
        policy = RoundRobinPlacement()
        shards = statuses((0, 0), (0, 0))
        policy.choose(q("q0"), shards)
        clone = copy.deepcopy(policy)
        assert clone.choose(q("q1"), shards) == policy.choose(q("q1"), shards)


class TestLeastLoaded:
    def test_picks_emptiest_shard(self):
        policy = LeastLoadedPlacement()
        assert policy.choose(q("a"), statuses((3, 1), (0, 1), (2, 0))) == 1

    def test_counts_pending_plus_admitted(self):
        policy = LeastLoadedPlacement()
        assert policy.choose(q("a"), statuses((0, 5), (4, 0), (1, 2))) == 2

    def test_ties_break_to_lowest_index(self):
        policy = LeastLoadedPlacement()
        assert policy.choose(q("a"), statuses((1, 1), (2, 0), (0, 2))) == 0


class TestConsistentHash:
    def test_same_client_always_lands_on_same_shard(self):
        policy = ConsistentHashPlacement(seed=7)
        shards = statuses(*[(0, 0)] * 4)
        targets = {
            policy.choose(q(f"q{i}", owner="alice"), shards)
            for i in range(20)
        }
        assert len(targets) == 1

    def test_deterministic_across_instances(self):
        shards = statuses(*[(0, 0)] * 5)
        first = ConsistentHashPlacement(seed=3)
        second = ConsistentHashPlacement(seed=3)
        for i in range(30):
            query = q(f"q{i}", owner=f"client{i}")
            assert first.choose(query, shards) == second.choose(query, shards)

    def test_spreads_clients_across_shards(self):
        policy = ConsistentHashPlacement(seed=0)
        shards = statuses(*[(0, 0)] * 4)
        targets = {
            policy.choose(q(f"q{i}", owner=f"client{i}"), shards)
            for i in range(64)
        }
        assert len(targets) == 4  # 64 clients cover a 4-shard ring

    def test_unowned_query_keys_on_query_id(self):
        policy = ConsistentHashPlacement(seed=0)
        shards = statuses(*[(0, 0)] * 4)
        query = select_query("anon", None, 1.0, 1.0)
        assert query.owner is None
        assert policy.choose(query, shards) == policy.choose(query, shards)

    def test_growing_the_ring_moves_a_minority_of_clients(self):
        policy = ConsistentHashPlacement(seed=1)
        small = statuses(*[(0, 0)] * 4)
        large = statuses(*[(0, 0)] * 5)
        moved = sum(
            policy.choose(q(f"x{i}", owner=f"c{i}"), small)
            != policy.choose(q(f"x{i}", owner=f"c{i}"), large)
            for i in range(200)
        )
        assert 0 < moved < 100  # ~1/5 expected; far below half

    def test_replicas_validated(self):
        with pytest.raises(ValidationError, match="replicas"):
            ConsistentHashPlacement(replicas=0)


class TestRegistryAndSpecs:
    def test_policy_instance_passes_through(self):
        policy = RoundRobinPlacement()
        assert resolve_placement(policy) is policy

    def test_spec_strings(self):
        assert isinstance(resolve_placement("round-robin"),
                          RoundRobinPlacement)
        assert isinstance(resolve_placement("least-loaded"),
                          LeastLoadedPlacement)
        policy = resolve_placement("consistent-hash:seed=9,replicas=16")
        assert isinstance(policy, ConsistentHashPlacement)
        assert policy.seed == 9
        assert policy.replicas == 16

    def test_unknown_policy_lists_known(self):
        with pytest.raises(ValidationError, match="consistent-hash"):
            resolve_placement("no-such-policy")

    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(ValidationError, match="accepted parameters"):
            resolve_placement("consistent-hash:volume=11")
        with pytest.raises(ValidationError, match="round-robin"):
            resolve_placement("round-robin:seed=1")

    @pytest.mark.parametrize("text", ["consistent-hash:seed", "", ":x=1"])
    def test_malformed_spec_is_called_a_placement_spec(self, text):
        with pytest.raises(ValidationError, match="placement spec") as info:
            resolve_placement(text)
        assert "mechanism" not in str(info.value)

    def test_unresolvable_value_rejected(self):
        with pytest.raises(ValidationError, match="PlacementPolicy"):
            resolve_placement(42)

    def test_custom_policy_registration(self):
        class AlwaysZero(PlacementPolicy):
            name = "always-zero"

            def choose(self, query, shards):
                return 0

        register_placement("always-zero", AlwaysZero)
        try:
            assert "always-zero" in registered_placements()
            assert isinstance(resolve_placement("always-zero"), AlwaysZero)
        finally:
            from repro.cluster import placement as placement_module

            placement_module._REGISTRY._factories.pop("always-zero", None)
"""Workload generator tests (Table III)."""

import pytest

from repro.core import make_mechanism
from repro.utils.rng import derive_seed
from repro.utils.validation import ValidationError
from repro.workload.generator import (
    PAPER_CAPACITIES,
    PAPER_SHARING_DEGREES,
    WorkloadConfig,
    WorkloadGenerator,
    workload_sets,
)


class TestWorkloadConfig:
    def test_paper_defaults(self):
        config = WorkloadConfig()
        assert config.num_queries == 2000
        assert config.max_sharing == 60
        assert config.max_bid == 100
        assert config.bid_skew == 0.5
        assert config.max_operator_load == 10
        assert config.load_skew == 1.0
        assert config.capacity == 15_000.0

    def test_scaled_keeps_ratio(self):
        scaled = WorkloadConfig().scaled(200)
        assert scaled.num_queries == 200
        assert scaled.capacity == pytest.approx(1500.0)

    def test_invalid_bid_mode(self):
        with pytest.raises(ValidationError):
            WorkloadConfig(bid_mode="weird")

    def test_max_sharing_capped_by_queries(self):
        with pytest.raises(ValidationError):
            WorkloadConfig(num_queries=10, max_sharing=20)

    def test_paper_constants(self):
        assert PAPER_SHARING_DEGREES == tuple(range(1, 61))
        assert PAPER_CAPACITIES == (5_000, 10_000, 15_000, 20_000)


class TestWorkloadGenerator:
    @pytest.fixture
    def generator(self):
        return WorkloadGenerator(
            config=WorkloadConfig(num_queries=100, max_sharing=10,
                                  capacity=800.0),
            seed=3)

    def test_base_instance_shape(self, generator):
        base = generator.base_instance()
        assert base.num_queries == 100
        assert base.max_sharing_degree() <= 10
        assert all(len(q.operator_ids) >= 1 for q in base.queries)

    def test_base_is_cached(self, generator):
        assert generator.base_instance() is generator.base_instance()

    def test_instance_derivation(self, generator):
        inst = generator.instance(max_sharing=3, capacity=500.0)
        assert inst.max_sharing_degree() <= 3
        assert inst.capacity == 500.0

    def test_derivation_deterministic(self, generator):
        other = WorkloadGenerator(config=generator.config, seed=3)
        a = generator.instance(max_sharing=4)
        b = other.instance(max_sharing=4)
        assert [q.bid for q in a.queries] == [q.bid for q in b.queries]
        assert a.total_demand() == pytest.approx(b.total_demand())

    def test_seeds_differ(self):
        config = WorkloadConfig(num_queries=50, max_sharing=5,
                                capacity=300.0)
        a = WorkloadGenerator(config=config, seed=1).base_instance()
        b = WorkloadGenerator(config=config, seed=2).base_instance()
        assert [q.bid for q in a.queries] != [q.bid for q in b.queries]

    def test_rank_bids_distinct(self, generator):
        bids = [q.bid for q in generator.base_instance().queries]
        assert len(set(bids)) == len(bids)  # rank profile → all distinct
        assert max(bids) == pytest.approx(100.0)

    def test_sampled_bid_mode(self):
        config = WorkloadConfig(num_queries=100, max_sharing=5,
                                capacity=500.0, bid_mode="sampled")
        base = WorkloadGenerator(config=config, seed=1).base_instance()
        bids = [q.bid for q in base.queries]
        assert all(1 <= b <= 100 for b in bids)
        assert all(float(b).is_integer() for b in bids)

    @pytest.mark.parametrize("bid_mode, winner",
                             [("rank", "CAT"), ("sampled", "Two-price")])
    def test_bid_mode_ablation(self, bid_mode, winner):
        """Read as a rank profile, Table III's bids give CAT Figure
        4(c)'s lead at degree 1; read as i.i.d. samples, they hand the
        win to Two-price's constant pricing even there — on the seed-2010
        instance, and summed over seeds 0-19 (rank: CAT 10 593.5 against
        Two-price 8 939.9; sampled: Two-price 31 034.0 against CAT
        29 648.4)."""
        config = WorkloadConfig(bid_mode=bid_mode).scaled(150)
        instance = WorkloadGenerator(
            config=config, seed=derive_seed(2010, "abl", bid_mode),
        ).instance(max_sharing=1, capacity=5_000.0 * 150 / 2_000)
        cat = make_mechanism("CAT").run(instance).profit
        two_price = make_mechanism("Two-price", seed=0).run(instance).profit
        assert ("CAT" if cat > two_price else "Two-price") == winner

        summed = {"CAT": 0.0, "Two-price": 0.0}
        for seed in range(20):
            instance = WorkloadGenerator(
                config=config, seed=derive_seed(seed, "abl", bid_mode),
            ).instance(max_sharing=1, capacity=5_000.0 * 150 / 2_000)
            for name, mechanism in [
                    ("CAT", make_mechanism("CAT")),
                    ("Two-price", make_mechanism("Two-price", seed=0))]:
                summed[name] += mechanism.run(instance).profit
        assert max(summed, key=summed.get) == winner, summed

    def test_sweep_yields_all_degrees(self, generator):
        degrees = [d for d, _ in generator.sweep(degrees=(1, 3, 5))]
        assert degrees == [1, 3, 5]

    def test_operator_count_range_tracks_paper(self):
        """At paper scale ratios, ops span roughly 0.35n..4.4n, the
        Table III 700–8800 range for n=2000."""
        config = WorkloadConfig(num_queries=400, max_sharing=60,
                                capacity=3000.0)
        generator = WorkloadGenerator(config=config, seed=7)
        high_sharing = generator.instance(max_sharing=60)
        no_sharing = generator.instance(max_sharing=1)
        used = lambda inst: sum(
            1 for op in inst.operators if inst.sharing_degree(op) > 0)
        assert used(high_sharing) < 0.8 * 400
        assert used(no_sharing) > 2.0 * 400


class TestWorkloadSets:
    def test_independent_seeds(self):
        sets = workload_sets(
            3, WorkloadConfig(num_queries=30, max_sharing=5,
                              capacity=200.0), seed=0)
        assert len(sets) == 3
        seeds = {generator.seed for generator in sets}
        assert len(seeds) == 3

"""The paper's workload generator (Table III, Section VI-A).

Table III:

========================  =====================================
Number of workload sets   50
Number of queries         2000
Number of operators       700 – 8800 (falls as sharing rises)
Max degree of sharing     1 – 60, Zipf skew 1
Maximum bid               100, Zipf skew 0.5
Maximum operator load     10, Zipf skew 1
System capacity           5K / 10K / 15K / 20K
========================  =====================================

Generation follows the paper: build the workload once at the **highest**
maximum degree of sharing (60) — drawing each operator's load and
sharing degree from bounded Zipf distributions and assigning it to that
many random queries — then derive every lower-degree instance by the
operator-splitting procedure of :mod:`repro.workload.sharing`, which
keeps the average query load constant across the sweep.

With the paper's parameters this yields ≈700 operators at degree 60 and
≈8800 at degree 1, matching Table III's operator-count range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.model import AuctionInstance, Operator, Query
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.validation import require, require_positive
from repro.workload.sharing import with_max_sharing
from repro.workload.zipf import BoundedZipf

#: The sharing degrees plotted in Figure 4 (x axis 1..60).
PAPER_SHARING_DEGREES = tuple(range(1, 61))

#: The system capacities of Figures 4(c)–(f).
PAPER_CAPACITIES = (5_000, 10_000, 15_000, 20_000)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the Table III generator (paper defaults).

    ``operators_per_query`` is the mean number of operators per query;
    the paper's 2000 queries and 700–8800 operators imply ≈4.4 operator
    slots per query, which we adopt as the default.

    ``bid_mode`` selects between the two readings of "Maximum Bid 100 —
    Zipf, skewness 0.5" (Table III):

    * ``"rank"`` (default) — a Zipf *rank profile*: the i-th highest
      bid is ``max_bid · i^{-skew}``, randomly assigned to queries.
      This gives every user a distinct valuation (the assumption
      Two-price's Theorem 11 is stated under) and reproduces the
      figures' shape: the density mechanisms beat Two-price at low
      sharing, with the crossover sliding left as capacity grows.
    * ``"sampled"`` — bids drawn i.i.d. from the bounded Zipf pmf
      ``P(b) ∝ b^{-skew}``, b in 1..max_bid.  Under this literal
      reading constant pricing extracts enough revenue that Two-price
      usually beats CAT even at degree 1, contradicting Figure 4: with
      150 queries at capacity 375, over 42 instances (seeds 0-39, 11
      and 2010), Two-price beats CAT in 30 with sampled bids, while
      CAT beats Two-price in 38 with rank bids.  Kept for ablation
      (``test_bid_mode_ablation`` in
      ``tests/workload/test_generator.py``).
    """

    num_queries: int = 2000
    max_sharing: int = 60
    max_bid: int = 100
    bid_skew: float = 0.5
    bid_mode: str = "rank"
    max_operator_load: int = 10
    load_skew: float = 1.0
    sharing_skew: float = 1.0
    operators_per_query: float = 4.4
    capacity: float = 15_000.0

    def __post_init__(self) -> None:
        require(self.bid_mode in ("rank", "sampled"),
                f"bid_mode must be 'rank' or 'sampled', got {self.bid_mode!r}")
        require(self.num_queries >= 1, "num_queries must be >= 1")
        require(self.max_sharing >= 1, "max_sharing must be >= 1")
        require(self.max_sharing <= self.num_queries,
                "max_sharing cannot exceed num_queries")
        require_positive(self.operators_per_query, "operators_per_query")
        require_positive(self.capacity, "capacity")

    def scaled(self, num_queries: int) -> "WorkloadConfig":
        """Copy with a different query count, capacity scaled pro rata.

        Keeps the capacity-to-demand ratio of the paper's setup so that
        reduced-scale benchmark runs preserve the figures' shape.
        """
        factor = num_queries / self.num_queries
        return replace(
            self,
            num_queries=num_queries,
            capacity=self.capacity * factor,
            max_sharing=min(self.max_sharing, num_queries),
        )


@dataclass
class WorkloadGenerator:
    """Seeded generator producing :class:`AuctionInstance` objects.

    One generator corresponds to one *workload set* in the paper's
    terminology: :meth:`base_instance` builds the maximum-sharing
    instance and :meth:`instance` derives the variant for any requested
    maximum degree of sharing and capacity.
    """

    config: WorkloadConfig = field(default_factory=WorkloadConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        self._bid_dist = BoundedZipf(self.config.max_bid,
                                     self.config.bid_skew)
        self._load_dist = BoundedZipf(self.config.max_operator_load,
                                      self.config.load_skew)
        self._degree_dist = BoundedZipf(self.config.max_sharing,
                                        self.config.sharing_skew)
        self._base_cache: AuctionInstance | None = None

    # ------------------------------------------------------------------
    # Base (maximum-sharing) instance
    # ------------------------------------------------------------------

    def base_instance(self) -> AuctionInstance:
        """The workload at the configured maximum degree of sharing.

        Operators are created until the total number of (operator,
        query) slots reaches ``operators_per_query × num_queries``; each
        operator draws a load and a sharing degree from the Table III
        Zipf distributions and is assigned to that many distinct random
        queries.  Queries left empty receive a private degree-1
        operator, and each query then draws its bid.
        """
        if self._base_cache is not None:
            return self._base_cache
        rng = spawn_rng(derive_seed(self.seed, "base"))
        cfg = self.config
        target_slots = int(round(cfg.operators_per_query * cfg.num_queries))
        assignments: list[list[int]] = [[] for _ in range(cfg.num_queries)]
        operators: dict[str, Operator] = {}
        slots = 0
        op_index = 0
        while slots < target_slots:
            degree = int(self._degree_dist.sample(rng))
            load = float(self._load_dist.sample(rng))
            op_id = f"op{op_index}"
            operators[op_id] = Operator(op_id, load)
            members = rng.choice(cfg.num_queries, size=degree, replace=False)
            for query_idx in members:
                assignments[int(query_idx)].append(op_index)
            slots += degree
            op_index += 1
        # Guarantee every query contains at least one operator.
        for query_idx, ops in enumerate(assignments):
            if not ops:
                load = float(self._load_dist.sample(rng))
                op_id = f"op{op_index}"
                operators[op_id] = Operator(op_id, load)
                ops.append(op_index)
                op_index += 1
        bids = self._draw_bids(rng)
        queries = tuple(
            Query(
                query_id=f"q{idx}",
                operator_ids=tuple(f"op{op}" for op in ops),
                bid=float(bids[idx]),
            )
            for idx, ops in enumerate(assignments)
        )
        self._base_cache = AuctionInstance(
            operators, queries, cfg.capacity)
        return self._base_cache

    def _draw_bids(self, rng: np.random.Generator) -> np.ndarray:
        """Per-query bids under the configured ``bid_mode``."""
        cfg = self.config
        if cfg.bid_mode == "sampled":
            return np.asarray(
                self._bid_dist.sample(rng, size=cfg.num_queries),
                dtype=float)
        ranks = rng.permutation(cfg.num_queries) + 1
        return cfg.max_bid * ranks.astype(float) ** (-cfg.bid_skew)

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------

    def instance(
        self,
        max_sharing: int | None = None,
        capacity: float | None = None,
    ) -> AuctionInstance:
        """Instance at the given max degree of sharing and capacity.

        Splitting is deterministic per (seed, degree) so re-requesting
        the same point of the sweep reproduces the same instance.
        """
        base = self.base_instance()
        if max_sharing is not None and max_sharing < self.config.max_sharing:
            split_rng = spawn_rng(derive_seed(self.seed, "split", max_sharing))
            base = with_max_sharing(base, max_sharing, split_rng)
        if capacity is not None:
            base = base.with_capacity(capacity)
        return base

    def sweep(
        self,
        degrees: tuple[int, ...] = PAPER_SHARING_DEGREES,
        capacity: float | None = None,
    ):
        """Yield ``(degree, instance)`` across a sharing sweep."""
        for degree in degrees:
            yield degree, self.instance(max_sharing=degree,
                                        capacity=capacity)


def workload_sets(
    num_sets: int,
    config: WorkloadConfig | None = None,
    seed: int = 0,
) -> list[WorkloadGenerator]:
    """The paper's "50 different sets of workload" (any count).

    Each set is an independent :class:`WorkloadGenerator` with a derived
    seed; experiments average their metrics across sets.
    """
    cfg = config or WorkloadConfig()
    return [
        WorkloadGenerator(config=cfg, seed=derive_seed(seed, "set", index))
        for index in range(num_sets)
    ]

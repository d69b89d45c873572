"""Differential suite: fast selection == reference, outcome for outcome.

Every mechanism of the paper runs each random shared-DAG instance
through both selection paths; winners, payments (values *and* dict
ordering) and the full details dictionaries must be identical — the
fast path trades representation, never semantics.  The fast mechanisms
run a strict :class:`FastSelection` so a silently missing kernel cannot
pass as equivalence, the reference leg names ``"reference"``, and a
third leg pins nothing: whichever path the mechanism picks from what it
observes (cold, then with the index the strict leg left cached) must
produce the same outcome.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_mechanism
from repro.core.density import DensityMechanism
from repro.core.loads import total_load
from repro.core.mechanism import Mechanism
from repro.core.selection import FastSelection
from repro.utils.validation import ValidationError

from tests.strategies import auction_instances

#: Strict: a mechanism without a kernel raises instead of falling back.
STRICT = FastSelection(strict=True)

#: (registry name, factory kwargs) for the seven paper mechanisms.
FAST_MECHANISMS = [
    ("CAR", {}),
    ("CAF", {}),
    ("CAF+", {}),
    ("CAT", {}),
    ("CAT+", {}),
    ("GV", {}),
    ("two-price", {"seed": 11}),
]

#: Registry mechanisms without a fast kernel (fallback path).  The
#: special-case auctions (k-unit, knapsack) reject general shared
#: instances by design, so the fallback check runs on the two that
#: accept arbitrary inputs.
FALLBACK_MECHANISMS = [
    ("Random", {"seed": 3}),
    ("OPT_C", {}),
]


def assert_identical(reference, fast):
    assert reference.winner_ids == fast.winner_ids
    assert reference.payments == fast.payments
    assert list(reference.payments) == list(fast.payments)
    assert reference.details == fast.details
    assert list(reference.details) == list(fast.details)
    assert reference.mechanism == fast.mechanism


@pytest.mark.parametrize("name,kwargs", FAST_MECHANISMS,
                         ids=[name for name, _ in FAST_MECHANISMS])
@given(instance=auction_instances(max_queries=10, max_operators=12))
@settings(max_examples=100, deadline=None)
def test_fast_equals_reference(name, kwargs, instance):
    reference = make_mechanism(name, **kwargs).run(
        instance, selection="reference")
    cold = make_mechanism(name, **kwargs).run(instance)
    fast = make_mechanism(name, **kwargs).use_selection(
        STRICT).run(instance)
    warm = make_mechanism(name, **kwargs).run(instance)
    assert_identical(reference, fast)
    assert_identical(reference, cold)
    assert_identical(reference, warm)


@pytest.mark.parametrize(
    "mode", ["even", "coin", "hash"])
@given(instance=auction_instances(max_queries=10),
       seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_two_price_partition_modes(mode, instance, seed):
    reference = make_mechanism(
        "two-price", seed=seed, partition_mode=mode).run(
        instance, selection="reference")
    fast = make_mechanism(
        "two-price", seed=seed, partition_mode=mode).use_selection(
        STRICT).run(instance)
    assert_identical(reference, fast)


@given(instance=auction_instances(max_queries=8))
@settings(max_examples=30, deadline=None)
def test_two_price_rng_streams_stay_interchangeable(instance):
    """Alternating paths on one mechanism draws one RNG stream."""
    mixed = make_mechanism("two-price", seed=5)
    outcomes = []
    for turn in range(4):
        selection = STRICT if turn % 2 else "reference"
        outcomes.append(mixed.run(instance, selection=selection))
    pure = make_mechanism("two-price", seed=5)
    for turn, outcome in enumerate(outcomes):
        assert_identical(
            pure.run(instance, selection="reference"), outcome)


@pytest.mark.parametrize("name,kwargs", FALLBACK_MECHANISMS,
                         ids=[name for name, _ in FALLBACK_MECHANISMS])
@given(instance=auction_instances(max_queries=6, max_operators=6))
@settings(max_examples=20, deadline=None)
def test_fallback_mechanisms_unchanged_under_fast(name, kwargs,
                                                  instance):
    reference = make_mechanism(name, **kwargs).run(
        instance, selection="reference")
    fast = make_mechanism(name, **kwargs).use_selection("fast").run(
        instance)
    observed = make_mechanism(name, **kwargs).run(instance)
    assert_identical(reference, fast)
    assert_identical(reference, observed)


#: Table III sizes: (queries, capacity shares of total demand).  The
#: reference CAF+/CAT+/CAR are super-linear, and at 1 250 queries with
#: a 0.3 share one seed alone costs ~0.7 s, so that cell runs seed 0
#: only.
TABLE_III_GRID = [
    (300, (0.02, 0.08, 0.3), range(4)),
    (1250, (0.02, 0.08), range(4)),
    (1250, (0.3,), range(1)),
]


@pytest.mark.parametrize(
    "queries,shares,seed",
    [(queries, shares, seed) for queries, shares, seeds in TABLE_III_GRID
     for seed in seeds],
    ids=lambda value: (f"shares{'-'.join(map(str, value))}"
                       if isinstance(value, tuple) else str(value)))
def test_table_iii_scale_fast_equals_reference(queries, shares, seed):
    """Generator instances at the paper's sizes, sharing up to 8.

    The Hypothesis instances above hold at most 10 queries, so the
    skip-over kernel's replays never cross a long stretch before the
    first loser; these do (about a hundred winners precede it at the
    0.08 share).
    """
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator

    base = WorkloadGenerator(config=WorkloadConfig().scaled(queries),
                             seed=seed).instance(max_sharing=8)
    demand = base.total_demand()
    for share in shares:
        instance = base.with_capacity(demand * share)
        for name, kwargs in FAST_MECHANISMS:
            reference = make_mechanism(name, **kwargs).run(
                instance, selection="reference")
            fast = make_mechanism(name, **kwargs).use_selection(
                STRICT).run(instance)
            assert_identical(reference, fast)


def test_car_denormal_residue_does_not_reselect_admitted():
    """Regression: a float residue can drive a pending query's
    remaining load tiny-*negative*, overflowing its priority to -inf —
    which must not collide with the admitted-query mask sentinel."""
    from repro.core.model import AuctionInstance

    instance = AuctionInstance.build(
        {"a": 1.0, "b": 5e-324},
        {"q0": ["a", "b"], "q1": ["a", "b"]},
        {"q0": 1e308, "q1": 2.0},
        capacity=1.0,
    )
    reference = make_mechanism("CAR").run(instance, selection="reference")
    fast = make_mechanism("CAR").use_selection(STRICT).run(instance)
    assert_identical(reference, fast)
    assert reference.details["admission_order"] == ["q0", "q1"]


def test_strict_fast_rejects_kernel_less_mechanisms():
    from repro.core.model import AuctionInstance

    instance = AuctionInstance.build(
        {"a": 1.0}, {"q0": ["a"]}, {"q0": 5.0}, capacity=10.0)
    mechanism = make_mechanism("Random", seed=0).use_selection(STRICT)
    with pytest.raises(ValidationError, match="no fast selection"):
        mechanism.run(instance)


def test_overridden_select_is_not_hijacked():
    """A subclass with its own ``_select`` keeps its semantics."""

    class EveryoneFree(DensityMechanism):
        name = "free"
        load_measure = staticmethod(total_load)

        def _select(self, instance):
            return ({q.query_id: 0.0 for q in instance.queries[:1]},
                    {"marker": True})

    from repro.core.model import AuctionInstance

    instance = AuctionInstance.build(
        {"a": 1.0}, {"q0": ["a"]}, {"q0": 5.0}, capacity=10.0)
    outcome = EveryoneFree().use_selection("fast").run(instance)
    assert outcome.details == {"marker": True}


def test_seal_returns_truthful_instance_unchanged():
    """Satellite: no rebuilt copy when every valuation equals the bid."""
    from repro.core.model import AuctionInstance, Query

    truthful = AuctionInstance.build(
        {"a": 1.0}, {"q0": ["a"], "q1": ["a"]},
        {"q0": 5.0, "q1": 3.0}, capacity=10.0)
    assert Mechanism._seal(truthful) is truthful

    explicit = AuctionInstance(
        truthful.operators,
        tuple(Query(q.query_id, q.operator_ids, q.bid, valuation=q.bid)
              for q in truthful.queries),
        truthful.capacity)
    assert Mechanism._seal(explicit) is explicit

    divergent = AuctionInstance(
        truthful.operators,
        (Query("q0", ("a",), 5.0, valuation=9.0),) + truthful.queries[1:],
        truthful.capacity)
    sealed = Mechanism._seal(divergent)
    assert sealed is not divergent
    assert sealed.query("q0").valuation == 5.0
    assert divergent.query("q0").valuation == 9.0


def test_fast_selection_defaults_are_not_strict():
    assert FastSelection()._strict is False
    assert FastSelection(strict=True)._strict is True

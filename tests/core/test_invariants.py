"""Property-based invariants over all mechanisms (hypothesis).

What every mechanism owes Section II's model, checked on randomly
drawn instances:

1. admitted sets never exceed capacity;
2. individual rationality: truthful winners pay at most their bid
   (strategyproof mechanisms only — CAR can overcharge, OPT_C is a
   benchmark that charges exactly the bid at most);
3. losers pay zero (implicit in the outcome representation);
4. density mechanisms fill greedily: the top-priority query that fits
   alone is always admitted.
"""

import pytest
from hypothesis import given, settings

from repro.core import make_mechanism
from tests.conftest import ALL_MECHANISMS, build_mechanism
from tests.strategies import auction_instances

STRATEGYPROOF = ("CAF", "CAF+", "CAT", "CAT+", "GV", "Two-price")


@settings(max_examples=60, deadline=None)
@given(instance=auction_instances())
@pytest.mark.parametrize("name", sorted(ALL_MECHANISMS))
def test_capacity_never_exceeded(name, instance):
    outcome = build_mechanism(name).run(instance)
    assert outcome.used_capacity <= instance.capacity + 1e-6


@settings(max_examples=60, deadline=None)
@given(instance=auction_instances())
@pytest.mark.parametrize("name", STRATEGYPROOF)
def test_individual_rationality(name, instance):
    """Truthful winners never pay more than their bid."""
    outcome = build_mechanism(name).run(instance)
    for qid in outcome.winner_ids:
        assert outcome.payment(qid) <= instance.query(qid).bid + 1e-6


@settings(max_examples=60, deadline=None)
@given(instance=auction_instances())
@pytest.mark.parametrize("name", STRATEGYPROOF)
def test_truthful_payoffs_non_negative(name, instance):
    outcome = build_mechanism(name).run(instance)
    for query in instance.queries:
        assert outcome.payoff(query.query_id) >= -1e-6


@settings(max_examples=40, deadline=None)
@given(instance=auction_instances(min_queries=2))
@pytest.mark.parametrize("name", ("CAF", "CAT", "CAF+", "CAT+"))
def test_top_density_query_admitted(name, instance):
    """The first query of the priority order wins whenever it fits an
    empty server (greedy admission starts with it)."""
    mechanism = build_mechanism(name)
    outcome = mechanism.run(instance)
    order = outcome.details["priority_order"]
    first = instance.query(order[0])
    if instance.union_load([first.query_id]) <= instance.capacity:
        assert outcome.is_winner(first.query_id)


@settings(max_examples=40, deadline=None)
@given(instance=auction_instances(min_queries=2))
def test_caf_cat_agree_without_sharing(instance):
    """With no shared operators, C^SF == C^T, so CAF ≡ CAT."""
    if instance.max_sharing_degree() > 1:
        return
    caf = make_mechanism("CAF").run(instance)
    cat = make_mechanism("CAT").run(instance)
    assert caf.winner_ids == cat.winner_ids
    for qid in caf.winner_ids:
        assert caf.payment(qid) == pytest.approx(cat.payment(qid))


@settings(max_examples=40, deadline=None)
@given(instance=auction_instances(min_queries=2))
def test_plus_variants_admit_supersets(instance):
    """Skip-over admission can only add winners relative to
    stop-at-first (same priority order, same prefix behavior)."""
    for base, plus in (("CAF", "CAF+"), ("CAT", "CAT+")):
        stop = make_mechanism(base).run(instance)
        skip = make_mechanism(plus).run(instance)
        assert stop.winner_ids <= skip.winner_ids

"""Subscription category mix tests (Section VII).

The boundary that auctions the categories is
:class:`repro.sim.SubscriptionManager`'s; its tests are in
``tests/sim/test_sim_subscriptions.py``.
"""

import pytest

from repro.cloud.subscriptions import SubscriptionCategory
from repro.sim import SubscriptionOptions
from repro.utils.validation import ValidationError


class TestConfiguration:
    def test_fractions_must_not_exceed_one(self):
        bad = (SubscriptionCategory("x", 1, 0.7),
               SubscriptionCategory("y", 1, 0.5))
        with pytest.raises(ValidationError):
            SubscriptionOptions(categories=bad)

    def test_fraction_error_names_the_categories(self):
        bad = (SubscriptionCategory("gold", 1, 0.7),
               SubscriptionCategory("silver", 7, 0.5))
        with pytest.raises(ValidationError) as excinfo:
            SubscriptionOptions(categories=bad)
        message = str(excinfo.value)
        assert "gold=0.7" in message
        assert "silver=0.5" in message
        assert "1.2" in message

    def test_fractions_summing_exactly_to_one_are_fine(self):
        exact = (SubscriptionCategory("x", 1, 0.6),
                 SubscriptionCategory("y", 1, 0.4))
        assert SubscriptionOptions(categories=exact).categories == exact

    def test_fraction_barely_over_one_is_rejected(self):
        bad = (SubscriptionCategory("x", 1, 0.6),
               SubscriptionCategory("y", 1, 0.4 + 1e-6))
        with pytest.raises(ValidationError) as excinfo:
            SubscriptionOptions(categories=bad)
        assert "x=0.6" in str(excinfo.value)

    def test_validate_categories_helper_returns_tuple(self):
        from repro.cloud.subscriptions import validate_categories

        mix = [SubscriptionCategory("x", 1, 0.3)]
        assert validate_categories(mix) == tuple(mix)
        with pytest.raises(ValidationError):
            validate_categories([])

    def test_duplicate_names_rejected(self):
        bad = (SubscriptionCategory("x", 1, 0.3),
               SubscriptionCategory("x", 2, 0.3))
        with pytest.raises(ValidationError):
            SubscriptionOptions(categories=bad)

    def test_category_validation(self):
        with pytest.raises(ValidationError):
            SubscriptionCategory("x", 0, 0.5)
        with pytest.raises(ValidationError):
            SubscriptionCategory("x", 1, 0.0)

"""Unit tests for the bounded Zipf sampler."""

import numpy as np
import pytest

from repro.utils.validation import ValidationError
from repro.workload.zipf import BoundedZipf


class TestBoundedZipf:
    def test_support_bounds(self):
        dist = BoundedZipf(10, 1.0)
        samples = dist.sample(np.random.default_rng(0), size=500)
        assert samples.min() >= 1
        assert samples.max() <= 10

    def test_pmf_normalizes(self):
        dist = BoundedZipf(20, 0.7)
        assert sum(dist.pmf(k) for k in range(1, 21)) == pytest.approx(1.0)

    def test_pmf_outside_support(self):
        dist = BoundedZipf(5, 1.0)
        assert dist.pmf(0) == 0.0
        assert dist.pmf(6) == 0.0

    def test_skew_orders_probabilities(self):
        dist = BoundedZipf(10, 1.0)
        assert dist.pmf(1) > dist.pmf(2) > dist.pmf(10)

    def test_zero_skew_uniform(self):
        dist = BoundedZipf(4, 0.0)
        for k in range(1, 5):
            assert dist.pmf(k) == pytest.approx(0.25)

    def test_mean_matches_empirical(self):
        dist = BoundedZipf(10, 1.0)
        samples = dist.sample(np.random.default_rng(1), size=20_000)
        assert samples.mean() == pytest.approx(dist.mean(), rel=0.05)

    def test_single_sample_is_int(self):
        value = BoundedZipf(10, 1.0).sample(np.random.default_rng(2))
        assert isinstance(value, int)

    def test_seeded_reproducibility(self):
        dist = BoundedZipf(10, 1.0)
        first = dist.sample(7, size=50)
        second = dist.sample(7, size=50)
        assert (first == second).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            BoundedZipf(0, 1.0)
        with pytest.raises(ValidationError):
            BoundedZipf(10, -0.5)

    def test_paper_load_distribution_mean(self):
        """Mean of Zipf(10, s=1) is 10/H_10 ≈ 3.41: Table III's mean
        operator load, which sets its demand-to-capacity ratios."""
        dist = BoundedZipf(10, 1.0)
        h10 = sum(1.0 / k for k in range(1, 11))
        assert dist.mean() == pytest.approx(10.0 / h10)

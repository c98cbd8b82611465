"""Tests for the estimation-noise model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.estimate import noisy_scenario

from .conftest import random_scenario


class TestNoisyScenario:
    def test_zero_noise_is_identity(self, rng):
        sc = random_scenario(rng, 5, 3)
        noisy = noisy_scenario(sc, rng)
        assert np.allclose(noisy.wifi_rates, sc.wifi_rates)
        assert np.allclose(noisy.plc_rates, sc.plc_rates)

    def test_noise_perturbs_rates(self, rng):
        sc = random_scenario(rng, 5, 3)
        noisy = noisy_scenario(sc, rng, wifi_noise_fraction=0.2,
                               plc_noise_fraction=0.2)
        assert not np.allclose(noisy.wifi_rates, sc.wifi_rates)
        assert not np.allclose(noisy.plc_rates, sc.plc_rates)

    def test_reachability_preserved(self, rng):
        sc = random_scenario(rng, 8, 4, reachable_prob=0.5)
        noisy = noisy_scenario(sc, rng, wifi_noise_fraction=0.5)
        assert np.array_equal(noisy.wifi_rates > 0, sc.wifi_rates > 0)

    def test_negative_noise_rejected(self, rng):
        sc = random_scenario(rng, 2, 2)
        with pytest.raises(ValueError):
            noisy_scenario(sc, rng, wifi_noise_fraction=-0.1)

    @given(st.floats(min_value=0.01, max_value=0.5),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_noise_is_roughly_unbiased(self, level, seed):
        """The log-normal perturbation has unit mean (many-link average
        stays near truth)."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, 40, 10)
        noisy = noisy_scenario(sc, rng, wifi_noise_fraction=level)
        ratio = noisy.wifi_rates.mean() / sc.wifi_rates.mean()
        assert 0.8 <= ratio <= 1.2

"""Tests for the optimality bounds and the Theorem-1 reduction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (balanced_partition_value,
                                  partition_to_scenario,
                                  solve_partition_by_association)
from repro.core.wolt import solve_wolt

from .conftest import random_scenario
from .oracles import (certify, exhaustive_optimum, plc_capacity_bound,
                      relaxation_bound, wifi_ceiling_bound)


class TestBounds:
    @given(st.integers(2, 7), st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds_dominate_brute_force_optimum(self, n_users, n_ext,
                                                 seed):
        """Every bound must sit above the certified optimum."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        for mode in ("redistribute", "active", "fixed"):
            _, opt = exhaustive_optimum(sc, plc_mode=mode)
            assert plc_capacity_bound(sc, mode) >= opt - 1e-6
            assert wifi_ceiling_bound(sc) >= opt - 1e-6
            if mode == "fixed":
                assert relaxation_bound(sc) >= opt - 1e-6

    def test_certify_wolt(self, rng):
        sc = random_scenario(rng, 10, 4)
        result = solve_wolt(sc, plc_mode="fixed")
        cert = certify(sc, result.assignment, plc_mode="fixed")
        assert cert.achieved == pytest.approx(result.aggregate_throughput)
        assert cert.upper_bound >= cert.achieved - 1e-9
        assert 0.0 <= cert.gap_fraction <= 1.0

    def test_wolt_gap_small_under_fixed_law(self):
        """Under the fixed law WOLT certifies close to the bound."""
        gaps = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sc = random_scenario(rng, 20, 5)
            result = solve_wolt(sc, plc_mode="fixed")
            gaps.append(certify(sc, result.assignment,
                                plc_mode="fixed").gap_fraction)
        assert np.mean(gaps) < 0.15

    def test_unknown_mode_rejected(self, rng):
        sc = random_scenario(rng, 3, 2)
        with pytest.raises(ValueError):
            plc_capacity_bound(sc, "magic")

    def test_zero_bound_degenerate(self):
        from repro.core.problem import Scenario

        sc = Scenario(wifi_rates=np.empty((0, 1)),
                      plc_rates=np.array([10.0]))
        assert wifi_ceiling_bound(sc) == 0.0


class TestPartitionReduction:
    def test_scenario_encoding(self):
        sc = partition_to_scenario([1.0, 2.0, 3.0])
        assert sc.n_users == 3
        assert sc.n_extenders == 2
        assert sc.wifi_rates[1, 0] == pytest.approx(0.5)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            partition_to_scenario([1.0])
        with pytest.raises(ValueError):
            partition_to_scenario([1.0, -2.0])

    def test_balanced_value(self):
        assert balanced_partition_value([1, 2, 3], [0, 0, 1]) == 0.0
        assert balanced_partition_value([1, 2, 3], [0, 1, 1]) == 4.0
        with pytest.raises(ValueError):
            balanced_partition_value([1, 2], [0, 2])
        with pytest.raises(ValueError):
            balanced_partition_value([1, 2], [0])

    def test_perfect_partition_found(self):
        """{3,1,1,2,2,1} splits perfectly into 5 + 5."""
        result = solve_partition_by_association([3, 1, 1, 2, 2, 1])
        assert result.is_perfect
        assert result.imbalance == 0.0

    def test_imperfect_instance(self):
        """{2,2,3} has no perfect partition; best imbalance is 1."""
        result = solve_partition_by_association([2, 2, 3])
        assert not result.is_perfect
        assert result.imbalance == pytest.approx(1.0)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            solve_partition_by_association(list(range(1, 23)))

    @given(st.lists(st.integers(1, 30), min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_partition(self, weights):
        """The Problem-1 route finds the true minimum imbalance."""
        import itertools

        result = solve_partition_by_association(weights)
        total = sum(weights)
        best = min(
            abs(2 * sum(combo) - total)
            for k in range(1, len(weights))
            for combo in itertools.combinations(weights, k))
        assert result.imbalance == pytest.approx(float(best))

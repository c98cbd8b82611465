"""Tests for the demand-limited fluid traffic model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Scenario, UNASSIGNED
from repro.net.engine import evaluate
from repro.sim.traffic import evaluate_with_demands

from .conftest import random_scenario


class TestEvaluateWithDemands:
    def test_saturated_matches_engine(self, rng):
        """With infinite demands, the demand model reduces to evaluate()."""
        sc = random_scenario(rng, 8, 3)
        assignment = rng.integers(0, 3, size=8)
        demands = np.full(8, np.inf)
        demand_report = evaluate_with_demands(sc, assignment, demands)
        engine_report = evaluate(sc, assignment)
        assert demand_report.aggregate == pytest.approx(
            engine_report.aggregate, rel=1e-6)

    def test_tiny_demands_fully_satisfied(self, rng):
        sc = random_scenario(rng, 6, 3)
        assignment = rng.integers(0, 3, size=6)
        demands = np.full(6, 0.5)  # 0.5 Mbps each: trivially served
        report = evaluate_with_demands(sc, assignment, demands)
        assert np.all(report.satisfied)
        assert report.user_throughputs == pytest.approx(demands)

    def test_demand_caps_respected(self, rng):
        sc = random_scenario(rng, 10, 4)
        assignment = rng.integers(0, 4, size=10)
        demands = rng.uniform(1.0, 50.0, 10)
        report = evaluate_with_demands(sc, assignment, demands)
        assert np.all(report.user_throughputs <= demands + 1e-6)

    def test_small_flows_survive_bottleneck(self):
        """TCP max-min: an audio stream keeps its 2 Mbps even when a big
        flow saturates the shared PLC link."""
        sc = Scenario(wifi_rates=np.array([[100.0], [100.0]]),
                      plc_rates=np.array([20.0]))
        report = evaluate_with_demands(sc, [0, 0], [2.0, 1000.0])
        assert report.user_throughputs[0] == pytest.approx(2.0, abs=0.1)
        assert report.user_throughputs[1] == pytest.approx(18.0, abs=0.5)
        assert report.satisfied.tolist() == [True, False]

    def test_offline_user_gets_nothing(self, rng):
        sc = random_scenario(rng, 3, 2)
        report = evaluate_with_demands(sc, [0, UNASSIGNED, 1],
                                       [10.0, 10.0, 10.0])
        assert report.user_throughputs[1] == 0.0
        assert not report.satisfied[1]

    def test_shape_mismatch_rejected(self, rng):
        sc = random_scenario(rng, 3, 2)
        with pytest.raises(ValueError):
            evaluate_with_demands(sc, [0, 0, 1], [10.0])

    def test_negative_demand_rejected(self, rng):
        sc = random_scenario(rng, 2, 2)
        with pytest.raises(ValueError):
            evaluate_with_demands(sc, [0, 1], [-1.0, 5.0])

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_physical_feasibility(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        demands = rng.uniform(0.0, 100.0, n_users)
        report = evaluate_with_demands(sc, assignment, demands)
        # Never more than demand, never negative.
        assert np.all(report.user_throughputs <= demands + 1e-6)
        assert np.all(report.user_throughputs >= -1e-9)
        # PLC medium time bounded.
        assert report.plc_time_shares.sum() <= 1.0 + 1e-9
        # Aggregate consistency.
        assert report.user_throughputs.sum() == pytest.approx(
            report.extender_throughputs.sum(), rel=1e-4, abs=1e-6)

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_bounded_by_demand_and_capacity(self, n_users,
                                                      n_ext, seed):
        """Capped aggregate never exceeds total demand nor the best
        physical rate available.

        Note it CAN exceed the saturated-traffic aggregate: a
        demand-limited slow user frees airtime that a fast user recycles
        (the 802.11 anomaly only binds among saturated stations).
        """
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        demands = rng.uniform(0.0, 100.0, n_users)
        capped = evaluate_with_demands(sc, assignment, demands)
        assert capped.aggregate <= demands.sum() + 1e-6
        assert capped.aggregate <= max(sc.wifi_rates.max(),
                                       sc.plc_rates.max()) * n_ext

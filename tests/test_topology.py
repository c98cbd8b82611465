"""Tests for the enterprise floor-plan topology generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Scenario
from repro.net.topology import (FloorPlan, build_scenario,
                                enterprise_floor, sample_floor_plan,
                                sample_user_positions)
from repro.plc.channel import random_building
from repro.wifi.phy import WifiPhy


def _plan(n_ext=3, n_users=5, rng=None) -> FloorPlan:
    rng = rng or np.random.default_rng(0)
    return FloorPlan(width_m=100.0, height_m=100.0,
                     extender_xy=rng.uniform(0, 100, (n_ext, 2)),
                     user_xy=rng.uniform(0, 100, (n_users, 2)),
                     plc_rates=rng.uniform(60, 160, n_ext))


class TestFloorPlan:
    def test_counts(self):
        plan = _plan(4, 7)
        assert plan.n_extenders == 4
        assert plan.n_users == 7

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            FloorPlan(width_m=0.0, height_m=100.0,
                      extender_xy=np.zeros((1, 2)),
                      user_xy=np.zeros((0, 2)),
                      plc_rates=np.ones(1))

    def test_rate_count_mismatch(self):
        with pytest.raises(ValueError):
            FloorPlan(width_m=10.0, height_m=10.0,
                      extender_xy=np.zeros((2, 2)),
                      user_xy=np.zeros((0, 2)),
                      plc_rates=np.ones(3))

    def test_with_users_replaces_population(self):
        plan = _plan(3, 5)
        grown = plan.with_users(np.zeros((9, 2)))
        assert grown.n_users == 9
        assert grown.n_extenders == 3
        assert plan.n_users == 5  # original untouched


class TestSampleUserPositions:
    def test_within_bounds(self, rng):
        xy = sample_user_positions(200, 50.0, 30.0, rng)
        assert xy.shape == (200, 2)
        assert np.all(xy[:, 0] >= 0) and np.all(xy[:, 0] <= 50.0)
        assert np.all(xy[:, 1] >= 0) and np.all(xy[:, 1] <= 30.0)

    def test_zero_users(self, rng):
        assert sample_user_positions(0, 10.0, 10.0, rng).shape == (0, 2)

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_user_positions(-1, 10.0, 10.0, rng)


class TestBuildScenario:
    def test_rates_follow_distance(self):
        plan = FloorPlan(width_m=100.0, height_m=100.0,
                         extender_xy=np.array([[0.0, 0.0]]),
                         user_xy=np.array([[1.0, 0.0], [90.0, 0.0]]),
                         plc_rates=np.array([100.0]))
        scenario = build_scenario(plan)
        assert scenario.wifi_rates[0, 0] > scenario.wifi_rates[1, 0]

    def test_out_of_range_user_rescued(self):
        """A user beyond every extender's range still gets attached at
        the lowest MCS."""
        phy = WifiPhy()
        far = 1000.0
        assert phy.rate_at_distance(far) == 0.0
        plan = FloorPlan(width_m=far * 2, height_m=far * 2,
                         extender_xy=np.array([[0.0, 0.0]]),
                         user_xy=np.array([[far, far]]),
                         plc_rates=np.array([100.0]))
        scenario = build_scenario(plan, phy=phy)
        assert scenario.wifi_rates[0, 0] == pytest.approx(
            phy.mcs_table[0][1] * phy.spatial_streams)

    def test_user_ids_assigned(self):
        scenario = build_scenario(_plan(2, 4))
        assert scenario.user_ids.tolist() == [0, 1, 2, 3]


class TestSampleFloorPlan:
    def test_dimensions(self, rng):
        plan = sample_floor_plan(6, rng, width_m=80.0, height_m=40.0)
        assert plan.n_extenders == 6
        assert plan.n_users == 0
        assert np.all(plan.extender_xy[:, 0] <= 80.0)
        assert np.all(plan.extender_xy[:, 1] <= 40.0)
        assert np.all(plan.plc_rates >= 0)

    def test_is_the_floor_under_enterprise_floor(self):
        building = random_building(12, np.random.default_rng(1))
        for kwargs in ({}, {"building": building}):
            plan = sample_floor_plan(8, np.random.default_rng(5),
                                     **kwargs)
            scenario = enterprise_floor(8, 0, np.random.default_rng(5),
                                        **kwargs)
            assert plan.plc_rates.tobytes() == scenario.plc_rates.tobytes()

    def test_too_few_outlets_rejected(self, rng):
        with pytest.raises(ValueError, match="outlets"):
            sample_floor_plan(8, rng, building=random_building(3, rng))


class TestEnterpriseFloor:
    def test_paper_scale(self, rng):
        scenario = enterprise_floor(15, 36, rng)
        assert isinstance(scenario, Scenario)
        assert scenario.n_extenders == 15
        assert scenario.n_users == 36
        # Every user is attachable somewhere.
        for i in range(36):
            assert len(scenario.reachable(i)) > 0

    def test_deterministic(self):
        a = enterprise_floor(5, 10, np.random.default_rng(3))
        b = enterprise_floor(5, 10, np.random.default_rng(3))
        assert np.allclose(a.wifi_rates, b.wifi_rates)
        assert np.allclose(a.plc_rates, b.plc_rates)

    def test_prebuilt_building(self, rng):
        building = random_building(20, rng)
        scenario = enterprise_floor(8, 12, rng, building=building)
        assert scenario.n_extenders == 8

    def test_too_few_outlets_rejected(self, rng):
        building = random_building(3, rng)
        with pytest.raises(ValueError, match="outlets"):
            enterprise_floor(8, 12, rng, building=building)

    def test_invalid_extender_count(self, rng):
        with pytest.raises(ValueError):
            enterprise_floor(0, 5, rng)

    @given(st.integers(1, 10), st.integers(0, 30),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_shapes_always_consistent(self, n_ext, n_users, seed):
        scenario = enterprise_floor(n_ext, n_users,
                                    np.random.default_rng(seed))
        assert scenario.wifi_rates.shape == (n_users, n_ext)
        assert scenario.plc_rates.shape == (n_ext,)

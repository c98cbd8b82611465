"""Tests for the Scenario data model and assignment validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import (UNASSIGNED, Scenario,
                                validate_assignment)


class TestScenario:
    def test_basic_shapes(self, fig3_scenario):
        assert fig3_scenario.n_users == 2
        assert fig3_scenario.n_extenders == 2

    def test_1d_wifi_rates_promoted(self):
        sc = Scenario(wifi_rates=np.array([10.0, 20.0]),
                      plc_rates=np.array([5.0, 6.0]))
        assert sc.n_users == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Scenario(wifi_rates=np.ones((2, 3)), plc_rates=np.ones(2))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Scenario(wifi_rates=np.array([[np.nan]]),
                      plc_rates=np.array([1.0]))

    def test_infinite_rates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Scenario(wifi_rates=np.array([[np.inf]]),
                     plc_rates=np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            Scenario(wifi_rates=np.ones((1, 1)),
                     plc_rates=np.array([-np.inf]))

    def test_negative_plc_rejected(self):
        with pytest.raises(ValueError):
            Scenario(wifi_rates=np.ones((1, 1)), plc_rates=np.array([-1.0]))

    def test_capacity_validation(self):
        sc = Scenario(wifi_rates=np.ones((3, 2)), plc_rates=np.ones(2),
                      capacities=[2, 2])
        assert sc.capacity_of(0) == 2.0
        with pytest.raises(ValueError):
            Scenario(wifi_rates=np.ones((3, 2)), plc_rates=np.ones(2),
                      capacities=[2])
        with pytest.raises(ValueError):
            Scenario(wifi_rates=np.ones((3, 2)), plc_rates=np.ones(2),
                      capacities=[-1, 2])

    def test_uncapacitated_is_infinite(self, fig3_scenario):
        assert fig3_scenario.capacity_of(0) == np.inf

    def test_reachable_filters_dead_links(self):
        sc = Scenario(wifi_rates=np.array([[0.0, 20.0, 30.0]]),
                      plc_rates=np.ones(3))
        assert sc.reachable(0).tolist() == [1, 2]

    def test_subset_users(self):
        sc = Scenario(wifi_rates=np.arange(6, dtype=float).reshape(3, 2) + 1,
                      plc_rates=np.ones(2), user_ids=np.array([10, 11, 12]))
        sub = sc.subset_users([2, 0])
        assert sub.n_users == 2
        assert sub.user_ids.tolist() == [12, 10]
        assert sub.wifi_rates[0].tolist() == [5.0, 6.0]

    def test_with_users_appends(self):
        sc = Scenario(wifi_rates=np.ones((1, 2)), plc_rates=np.ones(2))
        grown = sc.with_users(np.array([[2.0, 3.0]]))
        assert grown.n_users == 2
        assert grown.wifi_rates[1].tolist() == [2.0, 3.0]

    def test_user_ids_length_checked(self):
        with pytest.raises(ValueError):
            Scenario(wifi_rates=np.ones((2, 1)), plc_rates=np.ones(1),
                     user_ids=np.array([1]))


class TestValidateAssignment:
    def test_valid_complete(self, fig3_scenario):
        out = validate_assignment(fig3_scenario, [0, 1])
        assert out.tolist() == [0, 1]

    def test_incomplete_rejected_when_required(self, fig3_scenario):
        with pytest.raises(ValueError, match="constraint \\(7\\)"):
            validate_assignment(fig3_scenario, [0, UNASSIGNED])

    def test_incomplete_allowed_when_not_required(self, fig3_scenario):
        out = validate_assignment(fig3_scenario, [0, UNASSIGNED],
                                  require_complete=False)
        assert out[1] == UNASSIGNED

    def test_out_of_range_rejected(self, fig3_scenario):
        with pytest.raises(ValueError, match="out of range"):
            validate_assignment(fig3_scenario, [0, 5])

    def test_wrong_length_rejected(self, fig3_scenario):
        with pytest.raises(ValueError):
            validate_assignment(fig3_scenario, [0])

    def test_unreachable_assignment_rejected(self):
        sc = Scenario(wifi_rates=np.array([[0.0, 20.0]]),
                      plc_rates=np.ones(2))
        with pytest.raises(ValueError, match="unreachable"):
            validate_assignment(sc, [0])

    def test_capacity_enforced(self):
        sc = Scenario(wifi_rates=np.ones((3, 2)), plc_rates=np.ones(2),
                      capacities=[1, 3])
        with pytest.raises(ValueError, match="constraint \\(8\\)"):
            validate_assignment(sc, [0, 0, 1])
        validate_assignment(sc, [0, 1, 1])  # fits

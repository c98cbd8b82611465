"""Tests for the TDMA reservation oracle and ASCII floor rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import Scenario
from repro.net.topology import FloorPlan
from repro.net.visualize import render_floor
from repro.plc.mac import TdmaScheduler

from .oracles import optimal_tdma_weights


def _scenario() -> Scenario:
    return Scenario(wifi_rates=np.array([[15.0, 10.0], [40.0, 20.0]]),
                    plc_rates=np.array([60.0, 20.0]))


class TestOptimalTdmaWeights:
    def test_matches_max_min_allocation_fig3c(self):
        """Fig. 3c: ext 1 needs 0.25 time, ext 2 takes the leftover."""
        weights = optimal_tdma_weights(_scenario(), [0, 1])
        assert weights == pytest.approx([0.25, 0.75])

    def test_idle_extender_gets_zero(self):
        weights = optimal_tdma_weights(_scenario(), [0, 0])
        assert weights[1] == 0.0

    def test_tdma_schedule_reproduces_csma_throughputs(self):
        """A TdmaScheduler with the computed weights delivers what the
        redistributing CSMA backhaul delivers."""
        sc = _scenario()
        weights = optimal_tdma_weights(sc, [0, 1])
        sched = TdmaScheduler(sc.plc_rates, weights=weights)
        out = sched.throughputs()
        # Fig 3c backhaul grants: 15 (demand-capped) and 15.
        assert out[0] == pytest.approx(15.0)
        assert out[1] == pytest.approx(15.0)

    def test_weights_sum_bounded(self):
        weights = optimal_tdma_weights(_scenario(), [1, 0])
        assert 0.0 <= weights.sum() <= 1.0 + 1e-9


class TestRenderFloor:
    def _plan(self) -> FloorPlan:
        return FloorPlan(width_m=100.0, height_m=100.0,
                         extender_xy=np.array([[10.0, 10.0],
                                               [90.0, 90.0]]),
                         user_xy=np.array([[12.0, 10.0], [88.0, 90.0]]),
                         plc_rates=np.array([100.0, 100.0]))

    def test_contains_extender_glyphs(self):
        art = render_floor(self._plan())
        assert "A" in art and "B" in art

    def test_users_marked_by_assignment(self):
        art = render_floor(self._plan(), assignment=[0, 1])
        assert "a" in art and "b" in art

    def test_unassigned_users_are_dots(self):
        art = render_floor(self._plan(), assignment=[-1, -1])
        assert "." in art

    def test_raster_dimensions(self):
        art = render_floor(self._plan(), width_chars=30, height_chars=10)
        lines = art.splitlines()
        assert len(lines) == 13  # border + 10 rows + border + legend
        assert all(len(line) == 32 for line in lines[:-1])

    def test_validation(self):
        plan = self._plan()
        with pytest.raises(ValueError):
            render_floor(plan, width_chars=1)
        with pytest.raises(ValueError):
            render_floor(plan, assignment=[0])

"""Tests for the random-waypoint mobility extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.mobility import (MobilitySimulation, RandomWaypoint)
from repro.net.topology import sample_floor_plan


class TestRandomWaypoint:
    def _walker(self, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        return RandomWaypoint([50.0, 50.0], 100.0, 100.0, rng, **kwargs)

    def test_stays_in_bounds(self):
        walker = self._walker()
        for _ in range(200):
            pos = walker.advance(1.0)
            assert 0.0 <= pos[0] <= 100.0
            assert 0.0 <= pos[1] <= 100.0

    def test_moves_over_time(self):
        walker = self._walker(pause_time=0.0)
        start = walker.position.copy()
        walker.advance(30.0)
        assert np.hypot(*(walker.position - start)) > 1.0

    def test_speed_bounds_displacement(self):
        walker = self._walker(v_min=1.0, v_max=1.0, pause_time=0.0)
        start = walker.position.copy()
        walker.advance(5.0)
        assert np.hypot(*(walker.position - start)) <= 5.0 + 1e-9

    def test_zero_dt_is_noop(self):
        walker = self._walker()
        pos = walker.position.copy()
        walker.advance(0.0)
        assert np.allclose(walker.position, pos)

    def test_pause_halts_motion(self):
        walker = self._walker(v_min=2.0, v_max=2.0, pause_time=1e9)
        # Force arrival at the first waypoint, then it pauses ~forever.
        walker.advance(500.0)
        held = walker.position.copy()
        walker.advance(10.0)
        assert np.allclose(walker.position, held)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandomWaypoint([0, 0], 10, 10, rng, v_min=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint([0, 0], 10, 10, rng, v_min=2.0, v_max=1.0)
        with pytest.raises(ValueError):
            RandomWaypoint([0, 0], 10, 10, rng, pause_time=-1.0)
        with pytest.raises(ValueError):
            self._walker().advance(-1.0)


class TestMobilitySimulation:
    def _sim(self, policy="wolt", seed=0, n_users=10, **kwargs):
        plan_seq, walk_seq = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(plan_seq)
        plan = sample_floor_plan(5, rng)
        return MobilitySimulation(plan, n_users, policy,
                                  rng=np.random.default_rng(walk_seq),
                                  **kwargs)

    def test_epochs_recorded(self):
        sim = self._sim()
        history = sim.run(3)
        assert [e.epoch for e in history] == [1, 2, 3]
        assert sim.history == history

    def test_first_epoch_counts_no_handoffs(self):
        sim = self._sim()
        stats = sim.run_epoch()
        assert stats.handoffs == 0  # nobody was associated before

    def test_mobility_induces_handoffs(self):
        sim = self._sim(epoch_duration=30.0)
        history = sim.run(6)
        assert sum(e.handoffs for e in history[1:]) > 0

    def test_throughput_positive(self):
        for policy in ("wolt", "rssi"):
            sim = self._sim(policy=policy, seed=3)
            stats = sim.run_epoch()
            assert stats.aggregate_throughput > 0

    def test_displacement_scales_with_epoch_length(self):
        short = self._sim(seed=5, epoch_duration=1.0)
        long = self._sim(seed=5, epoch_duration=20.0)
        d_short = np.mean([e.mean_displacement_m for e in short.run(3)])
        d_long = np.mean([e.mean_displacement_m for e in long.run(3)])
        assert d_long > d_short

    def test_wolt_beats_rssi_on_average_fixed_model(self):
        aggs = {}
        for policy in ("wolt", "rssi"):
            sim = self._sim(policy=policy, seed=9, n_users=15,
                            plc_mode="fixed")
            aggs[policy] = np.mean(
                [e.aggregate_throughput for e in sim.run(4)])
        assert aggs["wolt"] >= aggs["rssi"] - 1e-6

    def test_validation(self):
        rng = np.random.default_rng(0)
        plan = sample_floor_plan(3, rng)
        with pytest.raises(ValueError):
            MobilitySimulation(plan, 5, "magic", rng=rng)
        with pytest.raises(ValueError):
            MobilitySimulation(plan, 0, "wolt", rng=rng)
        with pytest.raises(ValueError):
            self._sim().run(0)

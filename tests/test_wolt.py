"""Tests for the complete WOLT algorithm (Alg. 1)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import greedy_assignment, rssi_assignment
import repro.core.wolt as wolt_module
from repro.core.phase2 import Phase2Result
from repro.core.problem import UNASSIGNED, Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import count_engine_calls, evaluate

from .conftest import random_scenario
from .oracles import exhaustive_optimum


class TestFig3:
    def test_wolt_finds_the_optimum(self, fig3_scenario):
        res = solve_wolt(fig3_scenario)
        assert res.assignment.tolist() == [1, 0]
        assert res.aggregate_throughput == pytest.approx(40.0)

    def test_wolt_beats_both_baselines(self, fig3_scenario):
        wolt = solve_wolt(fig3_scenario).aggregate_throughput
        rssi = evaluate(fig3_scenario,
                        rssi_assignment(fig3_scenario)).aggregate
        greedy = evaluate(fig3_scenario,
                          greedy_assignment(fig3_scenario)).aggregate
        assert wolt > greedy > rssi


class TestLazyReport:
    @pytest.mark.parametrize("plc_mode", ["redistribute", "active", "fixed"])
    def test_report_equals_eager_evaluate(self, rng, plc_mode):
        sc = random_scenario(rng, 20, 5, reachable_prob=0.6)
        res = solve_wolt(sc, plc_mode=plc_mode)
        eager = evaluate(sc, res.assignment, plc_mode=plc_mode)
        assert res.report.aggregate == eager.aggregate
        for field in dataclasses.fields(eager):
            assert np.array_equal(getattr(res.report, field.name),
                                  getattr(eager, field.name)), field.name

    def test_assignment_alone_makes_no_scalar_engine_call(self, rng):
        sc = random_scenario(rng, 20, 5)
        with count_engine_calls() as stats:
            assert solve_wolt(sc).assignment.size == 20
        assert stats.scalar_calls == 0
        with count_engine_calls() as stats:
            res = solve_wolt(sc)
            assert res.aggregate_throughput == res.report.aggregate
        assert stats.scalar_calls == 1

    def test_invalid_assignment_still_raises_inside_the_solve(
            self, monkeypatch):
        sc = Scenario(wifi_rates=np.array([[15.0, 0.0], [40.0, 20.0]]),
                      plc_rates=np.array([60.0, 20.0]))

        def unreachable_phase2(scenario, phase1_assignment):
            # User 0 cannot hear extender 1.
            return Phase2Result(assignment=np.array([1, 0]), objective=0.0,
                                iterations=0, was_integral=True)

        monkeypatch.setattr(wolt_module, "solve_phase2", unreachable_phase2)
        with pytest.raises(ValueError, match="unreachable"):
            solve_wolt(sc)

    def test_unknown_plc_mode_rejected_before_solving(self, fig3_scenario):
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_wolt(fig3_scenario, plc_mode="magic")


class TestAlgorithmContract:
    def test_complete_assignment(self, rng):
        sc = random_scenario(rng, 25, 6)
        res = solve_wolt(sc)
        assert np.all(res.assignment != UNASSIGNED)

    def test_anchors_are_phase1_users(self, rng):
        sc = random_scenario(rng, 25, 6)
        res = solve_wolt(sc)
        assert res.anchored_users.tolist() == \
            res.phase1.anchored_users.tolist()
        for user in res.anchored_users:
            assert res.assignment[user] == res.phase1.assignment[user]

    def test_report_matches_assignment(self, rng):
        sc = random_scenario(rng, 15, 4)
        res = solve_wolt(sc)
        ref = evaluate(sc, res.assignment, require_complete=True)
        assert res.aggregate_throughput == pytest.approx(ref.aggregate)

    @pytest.mark.parametrize("keyword", ["phase2_solver", "rng"])
    def test_phase2_switch_is_gone(self, rng, keyword):
        sc = random_scenario(rng, 6, 3)
        with pytest.raises(TypeError, match=keyword):
            solve_wolt(sc, **{keyword: None})

    def test_deterministic(self, rng):
        sc = random_scenario(rng, 20, 5)
        a = solve_wolt(sc).assignment
        b = solve_wolt(sc).assignment
        assert a.tolist() == b.tolist()

    @given(st.integers(3, 8), st.integers(2, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_and_tracks_optimal(self, n_users, n_ext, seed):
        """WOLT is a heuristic for an NP-hard problem (Theorem 1).

        It must never beat the certified optimum, and on tiny dense
        instances it can drop below 0.5x (observed 0.49x at 8 users on
        2 extenders: Phase I pins one user per extender; Phase II
        ignores the PLC side by design).  The paper only claims
        optimality on the Fig. 3 study; its headline claims are
        against Greedy/RSSI at scale.
        """
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        wolt = solve_wolt(sc).aggregate_throughput
        _, opt = exhaustive_optimum(sc)
        assert wolt <= opt + 1e-6
        assert wolt >= 0.45 * opt

    def test_mean_optimality_over_many_seeds(self):
        """Mean WOLT/optimal ratio stays above 0.8 on small instances."""
        ratios = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            sc = random_scenario(rng, int(rng.integers(3, 8)),
                                 int(rng.integers(2, 4)))
            wolt = solve_wolt(sc).aggregate_throughput
            _, opt = exhaustive_optimum(sc)
            ratios.append(wolt / opt)
        assert np.mean(ratios) > 0.8

    @given(st.integers(4, 15), st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_wolt_capacity_feasible(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext, capacities=True)
        if int(sc.capacities.sum()) < n_users:
            return  # infeasible instance, not WOLT's contract
        res = solve_wolt(sc)
        counts = np.bincount(res.assignment, minlength=n_ext)
        assert np.all(counts <= sc.capacities)

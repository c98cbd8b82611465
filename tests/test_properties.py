"""Cross-module property tests: system-level invariants under hypothesis.

Each property ties at least two subsystems together and must hold for
*any* random instance — the safety net behind refactors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (greedy_assignment, rssi_assignment,
                                  selfish_greedy_assignment)
from repro.core.phase1 import phase1_utilities, solve_phase1
from repro.core.problem import UNASSIGNED
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate
from repro.plc.mac import TdmaScheduler
from repro.sim.traffic import evaluate_with_demands

from .conftest import random_scenario
from .oracles import certify, optimal_tdma_weights

seeds = st.integers(0, 2**31 - 1)


class TestAssignmentInvariants:
    @given(st.integers(3, 12), st.integers(2, 5), seeds)
    @settings(max_examples=60, deadline=None)
    def test_all_policies_complete_and_reachable(self, n_users, n_ext,
                                                 seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext, reachable_prob=0.8)
        for assignment in (
                solve_wolt(sc).assignment,
                greedy_assignment(sc, rng.permutation(n_users)),
                rssi_assignment(sc),
                selfish_greedy_assignment(sc)):
            assert np.all(assignment != UNASSIGNED)
            for i in range(n_users):
                assert sc.wifi_rates[i, assignment[i]] > 0

    @given(st.integers(3, 10), st.integers(2, 4), seeds)
    @settings(max_examples=60, deadline=None)
    def test_mode_ordering(self, n_users, n_ext, seed):
        """redistribute >= active >= fixed for any fixed assignment."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        r = evaluate(sc, assignment, plc_mode="redistribute").aggregate
        a = evaluate(sc, assignment, plc_mode="active").aggregate
        f = evaluate(sc, assignment, plc_mode="fixed").aggregate
        assert r >= a - 1e-9
        assert a >= f - 1e-9

    @given(st.integers(3, 10), st.integers(2, 4), seeds)
    @settings(max_examples=40, deadline=None)
    def test_certificates_valid_for_every_policy(self, n_users, n_ext,
                                                 seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        for mode in ("redistribute", "fixed"):
            for assignment in (solve_wolt(sc, plc_mode=mode).assignment,
                               rssi_assignment(sc)):
                cert = certify(sc, assignment, plc_mode=mode)
                assert cert.achieved <= cert.upper_bound + 1e-6


class TestPhase1Invariants:
    @given(st.integers(2, 12), st.integers(2, 6), seeds)
    @settings(max_examples=60, deadline=None)
    def test_utilities_bounded_by_both_links(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        u = phase1_utilities(sc)
        fair = sc.plc_rates / n_ext
        for i in range(n_users):
            for j in range(n_ext):
                assert u[i, j] <= fair[j] + 1e-9
                assert u[i, j] <= sc.wifi_rates[i, j] + 1e-9

    @given(st.integers(4, 12), st.integers(2, 5), seeds)
    @settings(max_examples=60, deadline=None)
    def test_phase1_anchors_distinct_extenders(self, n_users, n_ext,
                                               seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        res = solve_phase1(sc)
        anchored = res.assignment[res.assignment != UNASSIGNED]
        assert len(set(anchored.tolist())) == len(anchored)

    @given(st.integers(4, 10), st.integers(2, 4), seeds)
    @settings(max_examples=40, deadline=None)
    def test_scaling_rates_scales_phase1_objective(self, n_users, n_ext,
                                                   seed):
        """Homogeneity: doubling every rate doubles the Phase-I value."""
        from repro.core.problem import Scenario

        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        doubled = Scenario(wifi_rates=2 * sc.wifi_rates,
                           plc_rates=2 * sc.plc_rates)
        assert solve_phase1(doubled).objective == pytest.approx(
            2 * solve_phase1(sc).objective)


class TestTdmaConsistency:
    @given(st.integers(2, 10), st.integers(2, 4), seeds)
    @settings(max_examples=60, deadline=None)
    def test_tdma_weights_reproduce_engine_grants(self, n_users, n_ext,
                                                  seed):
        """TdmaScheduler(optimal weights) == the engine's PLC grants."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        weights = optimal_tdma_weights(sc, assignment)
        if weights.sum() == 0:
            return
        report = evaluate(sc, assignment, plc_mode="redistribute")
        tdma = TdmaScheduler(sc.plc_rates, weights=weights)
        granted = tdma.throughputs() * weights.sum()
        # Scheduler normalizes weights to 1; undo to compare shares.
        assert np.allclose(np.minimum(granted, report.wifi_throughputs),
                           report.extender_throughputs, atol=1e-6)


class TestDemandConsistency:
    @given(st.integers(2, 8), st.integers(1, 3), seeds)
    @settings(max_examples=40, deadline=None)
    def test_scaling_demands_down_scales_throughput_down(self, n_users,
                                                         n_ext, seed):
        """Halving every demand can only reduce every user's share —
        and in the fully-satisfied regime, exactly halves it."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        assignment = rng.integers(0, n_ext, size=n_users)
        demands = rng.uniform(0.1, 5.0, n_users)  # small: satisfiable
        full = evaluate_with_demands(sc, assignment, demands)
        half = evaluate_with_demands(sc, assignment, demands / 2)
        assert np.all(half.user_throughputs
                      <= full.user_throughputs + 1e-6)

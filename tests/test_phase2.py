"""Tests for Phase II (Problem 2) solvers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guard import DecisionGuard
from repro.core.phase1 import solve_phase1
from repro.core.phase2 import (solve_phase2, solve_phase2_continuous,
                               wifi_objective)
from repro.core.problem import UNASSIGNED, Scenario

from .conftest import max_examples, random_scenario
from .oracles import solve_phase2_scalar


def _exhaustive_phase2_optimum(scenario, phase1_assignment):
    """Brute-force the Problem-2 optimum over the pending users."""
    pending = np.flatnonzero(np.asarray(phase1_assignment) == UNASSIGNED)
    best = -np.inf
    choices = [scenario.reachable(int(u)).tolist() for u in pending]
    for combo in itertools.product(*choices):
        assignment = np.array(phase1_assignment, dtype=int)
        assignment[pending] = combo
        if scenario.capacities is not None:
            counts = np.bincount(assignment,
                                 minlength=scenario.n_extenders)
            if np.any(counts > scenario.capacities):
                continue
        best = max(best, wifi_objective(scenario, assignment))
    return best


class TestCombinatorialSolver:
    def test_completes_the_assignment(self, rng):
        sc = random_scenario(rng, 12, 4)
        p1 = solve_phase1(sc)
        res = solve_phase2(sc, p1.assignment)
        assert np.all(res.assignment != UNASSIGNED)
        assert res.was_integral

    def test_preserves_phase1_anchors(self, rng):
        sc = random_scenario(rng, 10, 3)
        p1 = solve_phase1(sc)
        res = solve_phase2(sc, p1.assignment)
        for user in p1.anchored_users:
            assert res.assignment[user] == p1.assignment[user]

    def test_objective_matches_recomputation(self, rng):
        sc = random_scenario(rng, 10, 3)
        p1 = solve_phase1(sc)
        res = solve_phase2(sc, p1.assignment)
        assert res.objective == pytest.approx(
            wifi_objective(sc, res.assignment))

    def test_no_pending_users_is_noop(self, fig3_scenario):
        p1 = solve_phase1(fig3_scenario)
        res = solve_phase2(fig3_scenario, p1.assignment)
        assert res.assignment.tolist() == p1.assignment.tolist()

    def test_unattachable_user_raises(self):
        wifi = np.array([[10.0, 5.0], [0.0, 0.0]])
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([50.0, 50.0]))
        p1 = solve_phase1(sc)
        with pytest.raises(ValueError, match="cannot be attached"):
            solve_phase2(sc, p1.assignment)

    def test_capacities_respected(self, rng):
        sc = random_scenario(rng, 9, 3, capacities=True)
        p1 = solve_phase1(sc)
        res = solve_phase2(sc, p1.assignment)
        counts = np.bincount(res.assignment, minlength=3)
        assert np.all(counts <= sc.capacities)

    def test_wrong_length_rejected(self, fig3_scenario):
        with pytest.raises(ValueError):
            solve_phase2(fig3_scenario, [0])

    @given(st.integers(3, 7), st.integers(2, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=max_examples(60), deadline=None)
    def test_near_optimal_on_small_instances(self, n_users, n_ext, seed):
        """Local search stays close to the brute-force Problem-2 optimum.

        The relocation+swap neighbourhood can leave ~10% on the table in
        adversarial instances (multi-move optima); empirically the mean
        ratio is >0.99 (see test_mean_quality_over_many_seeds).
        """
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        p1 = solve_phase1(sc)
        res = solve_phase2(sc, p1.assignment)
        best = _exhaustive_phase2_optimum(sc, p1.assignment)
        assert res.objective >= best * 0.85 - 1e-9
        assert res.objective <= best + 1e-6

    def test_mean_quality_over_many_seeds(self):
        """Across 60 random small instances, mean optimality ratio > 0.98."""
        ratios = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            sc = random_scenario(rng, int(rng.integers(3, 8)),
                                 int(rng.integers(2, 4)))
            p1 = solve_phase1(sc)
            res = solve_phase2(sc, p1.assignment)
            best = _exhaustive_phase2_optimum(sc, p1.assignment)
            ratios.append(res.objective / best)
        assert np.mean(ratios) > 0.98
        assert min(ratios) > 0.85

    @given(st.integers(4, 20), st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=max_examples(60), deadline=None)
    def test_local_search_cannot_improve(self, n_users, n_ext, seed):
        """Returned assignment is a single-relocation local optimum."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        p1 = solve_phase1(sc)
        res = solve_phase2(sc, p1.assignment)
        base = res.objective
        movable = np.flatnonzero(p1.assignment == UNASSIGNED)
        for user in movable:
            for j in range(n_ext):
                if j == res.assignment[user]:
                    continue
                trial = res.assignment.copy()
                trial[user] = j
                assert wifi_objective(sc, trial) <= base + 1e-6


def _assert_same_result(got, ref):
    assert np.array_equal(got.assignment, ref.assignment)
    assert got.objective == ref.objective
    assert got.iterations == ref.iterations


class TestSwapPassDifferential:
    """The matrix-scored swap pass against the one-pair-at-a-time oracle."""

    @given(st.integers(2, 60), st.integers(2, 12),
           st.floats(0.3, 0.95), st.sampled_from(["none", "random", "full"]),
           st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=max_examples(100), deadline=None)
    def test_matches_scalar_oracle(self, n_users, n_ext, reachable_prob,
                                   capacities, guarded, seed):
        """Same assignment, objective and iterations as the oracle.

        ``full`` capacities leave no spare room once every user is placed
        (each extender keeps room for its Phase-I anchor), so no
        relocation fits and the swap pass does all the work.
        """
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext,
                             reachable_prob=reachable_prob,
                             capacities=capacities == "random")
        if capacities == "full":
            caps = np.full(n_ext, n_users // n_ext)
            caps[:n_users % n_ext] += 1
            caps = np.maximum(caps, 1)
            sc = Scenario(wifi_rates=sc.wifi_rates, plc_rates=sc.plc_rates,
                          capacities=caps)
        p1 = solve_phase1(sc).assignment
        guard = DecisionGuard() if guarded else None
        try:
            ref = solve_phase2_scalar(sc, p1)
        except ValueError:
            # Capacities left some user nowhere to go.
            if guard is None:
                with pytest.raises(ValueError, match="cannot be attached"):
                    solve_phase2(sc, p1)
            return
        _assert_same_result(solve_phase2(sc, p1, guard=guard), ref)
        if guard is not None:
            assert guard.violation_count == 0

    def test_swap_between_single_user_cells(self):
        """Both cells hold one user, so a trial empties and refills each.

        Greedy insertion puts user 0 on extender 0 and user 1 on
        extender 1 (110 Mbps), and no single relocation helps; only the
        swap reaches 99 + 90 Mbps.
        """
        sc = Scenario(wifi_rates=np.array([[100.0, 99.0], [90.0, 10.0]]),
                      plc_rates=np.array([50.0, 50.0]))
        start = np.full(2, UNASSIGNED)
        res = solve_phase2(sc, start)
        assert res.assignment.tolist() == [1, 0]
        assert res.objective == pytest.approx(189.0)
        assert res.iterations == 2
        _assert_same_result(res, solve_phase2_scalar(sc, start))


class TestContinuousSolver:
    def test_agrees_with_combinatorial_on_small_instances(self, rng):
        for _ in range(5):
            sc = random_scenario(rng, 6, 2)
            p1 = solve_phase1(sc)
            comb = solve_phase2(sc, p1.assignment)
            cont = solve_phase2_continuous(sc, p1.assignment, rng=rng)
            assert np.all(cont.assignment != UNASSIGNED)
            # Theorem 3: both integral routes reach comparable objectives
            # (SLSQP from a random interior point can lose a few percent).
            assert cont.objective >= comb.objective * 0.80

    def test_theorem3_integrality(self, rng):
        """The continuous optimum snaps to (near-)integral solutions."""
        integral_count = 0
        trials = 6
        for _ in range(trials):
            sc = random_scenario(rng, 5, 2)
            p1 = solve_phase1(sc)
            cont = solve_phase2_continuous(sc, p1.assignment, rng=rng)
            integral_count += bool(cont.was_integral)
        assert integral_count >= trials // 2

    def test_no_pending_users_is_noop(self, fig3_scenario):
        p1 = solve_phase1(fig3_scenario)
        res = solve_phase2_continuous(fig3_scenario, p1.assignment)
        assert res.assignment.tolist() == p1.assignment.tolist()
        assert res.iterations == 0

    def test_unattachable_user_raises(self):
        wifi = np.array([[10.0, 5.0], [0.0, 0.0]])
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([50.0, 50.0]))
        p1 = solve_phase1(sc)
        with pytest.raises(ValueError, match="no reachable extender"):
            solve_phase2_continuous(sc, p1.assignment)

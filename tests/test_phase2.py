"""Tests for Phase II (Problem 2) solvers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.phase1 import solve_phase1
from repro.core.phase2 import (solve_phase2, solve_phase2_continuous,
                               wifi_objective)
from repro.core.problem import UNASSIGNED, Scenario

from .conftest import max_examples, random_scenario
from .oracles import solve_phase2_batch, solve_phase2_scalar


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

    def test_unattachable_message_lists_plain_user_indices(self):
        wifi = np.array([[10.0, 5.0], [0.0, 0.0]])
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([50.0, 50.0]))
        with pytest.raises(ValueError) as info:
            solve_phase2(sc, solve_phase1(sc).assignment)
        assert str(info.value) == (
            "users [1] cannot be attached to any extender")

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
    """The matrix-scored swap pass against the one-pair-at-a-time oracle.

    ``TestOracleDifferential`` checks it on random floors.
    """

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


@st.composite
def _phase2_cases(draw):
    """A random scenario and its Phase-I anchors.

    2-60 users on 2-15 extenders, with unreachable links and no, random
    or full capacities.  ``full`` capacities leave no spare room once
    every user is placed (each extender keeps room for its Phase-I
    anchor), so no relocation fits and the swap pass does all the work.
    """
    n_ext = draw(st.integers(2, 15))
    n_users = draw(st.integers(2, 60))
    capacities = draw(st.sampled_from(["none", "random", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    sc = random_scenario(rng, n_users, n_ext,
                         reachable_prob=draw(st.floats(0.3, 1.0)),
                         capacities=capacities == "random")
    if capacities == "full":
        caps = np.full(n_ext, n_users // n_ext)
        caps[:n_users % n_ext] += 1
        sc = Scenario(wifi_rates=sc.wifi_rates, plc_rates=sc.plc_rates,
                      capacities=np.maximum(caps, 1))
    return sc, solve_phase1(sc).assignment


#: Staying on extender 2 scores 1/(1/110) == 110.0; moving to the empty
#: extender 1 scores exactly 110.0 + 1e-12 in floats, the hysteresis
#: bar itself, so user 1 must stay.  (User 1 reaches extender 2 only
#: through the first swap pass.)
_GAIN_AT_THE_BAR = (
    Scenario(wifi_rates=np.array([[125.0, 20.0, 30.0],
                                  [130.0, 110.000000000001, 110.0]]),
             plc_rates=np.full(3, 50.0)),
    np.full(2, UNASSIGNED))

#: In round 1, extender 0 holds its anchor and user 1, its capacity of
#: 2.  User 2 would gain by joining it, so it must stay on extender 1
#: (the swap pass then trades users 1 and 2).
_DESTINATION_FULL = (
    Scenario(wifi_rates=np.array([[100.0, 5.0], [1000.0, 50.0],
                                  [900.0, 10.0]]),
             plc_rates=np.full(2, 50.0), capacities=np.array([2, 3])),
    np.array([0, UNASSIGNED, UNASSIGNED]))

#: After the first swap pass user 1 is alone on extender 2; in round 2
#: it moves to extender 1 and leaves extender 2 empty.
_MOVE_EMPTIES_CELL = (
    Scenario(wifi_rates=np.array([[125.0, 20.0, 30.0],
                                  [130.0, 125.0, 110.0]]),
             plc_rates=np.full(3, 50.0)),
    np.full(2, UNASSIGNED))


#: User 2's inverse rate (1e8) swamps anchor 0's (1e-9), so taking
#: user 2 off extender 0 leaves an inverse-rate sum of exactly 0.0 on
#: a cell that still holds its anchor.  Staying then scores
#: ``2/1e8 - inf`` and user 2 moves to extender 1 (where the same
#: happens).  In round 2 the scan divides by extender 0's 0.0 sum.
_EMPTY_SUM_OCCUPIED_CELL = (
    Scenario(wifi_rates=np.array([[1e9, 0.0], [0.0, 2e9], [1e-8, 1e-8]]),
             plc_rates=np.full(2, 50.0)),
    np.array([0, 1, UNASSIGNED]))


def _outcome(solver, scenario, phase1):
    """Assignment, objective bits and rounds, or the error message."""
    try:
        res = solver(scenario, phase1)
    except ValueError as exc:
        return str(exc)
    return (res.assignment.tolist(), res.objective.hex(), res.iterations)


# The numpy divisions by _EMPTY_SUM_OCCUPIED_CELL's zero sums warn.
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
class TestOracleDifferential:
    """``solve_phase2`` against both Phase-II oracles.

    The oracles relocate over a numpy gains row (batch) or one candidate
    at a time (scalar) and try swaps one pair at a time, so this checks
    production's Python-float relocation pass and matrix-scored swap
    pass.
    """

    @given(_phase2_cases())
    @example(_GAIN_AT_THE_BAR)
    @example(_DESTINATION_FULL)
    @example(_MOVE_EMPTIES_CELL)
    @example(_EMPTY_SUM_OCCUPIED_CELL)
    @settings(max_examples=max_examples(100), deadline=None)
    def test_matches_batch_and_scalar_oracles(self, case):
        scenario, phase1 = case
        got = _outcome(solve_phase2, scenario, phase1)
        assert got == _outcome(solve_phase2_batch, scenario, phase1)
        assert got == _outcome(solve_phase2_scalar, scenario, phase1)

    @pytest.mark.parametrize("case,assignment,iterations", [
        (_GAIN_AT_THE_BAR, [0, 2], 2),
        (_DESTINATION_FULL, [0, 1, 0], 2),
        (_MOVE_EMPTIES_CELL, [0, 1], 3),
        (_EMPTY_SUM_OCCUPIED_CELL, [0, 1, 1], 2),
    ])
    def test_examples_take_the_intended_path(self, case, assignment,
                                             iterations):
        res = solve_phase2(*case)
        assert res.assignment.tolist() == assignment
        assert res.iterations == iterations


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

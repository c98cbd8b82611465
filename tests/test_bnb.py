"""Tests for the branch-and-bound exact solver, against the exhaustive
oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import greedy_assignment
from repro.core.bnb import branch_and_bound_optimal
from repro.core.problem import Scenario, validate_assignment
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate
from repro.plc.sharing import PLC_MODES

from .conftest import max_examples, random_scenario
from .oracles import exhaustive_optimum

#: Capacities [1, 1] dead-end the greedy order on this instance: user 0
#: takes extender 0, and user 1 hears only extender 0.
GREEDY_DEAD_END = Scenario(wifi_rates=np.array([[50.0, 10.0], [20.0, 0.0]]),
                           plc_rates=np.array([100.0, 100.0]),
                           capacities=[1, 1])


@st.composite
def small_scenarios(draw, min_users: int = 3, capacities=st.just(False),
                    reachable_prob=st.just(1.0)) -> Scenario:
    """A :func:`random_scenario` of ``min_users``-7 users on 2-3
    extenders."""
    n_users = draw(st.integers(min_users, 7))
    n_ext = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return random_scenario(rng, n_users, n_ext,
                           reachable_prob=draw(reachable_prob),
                           capacities=draw(capacities))


class TestCorrectness:
    def test_fig3_optimum(self, fig3_scenario):
        for mode in PLC_MODES:
            result = branch_and_bound_optimal(fig3_scenario, plc_mode=mode)
            assert result.assignment.tolist() == [1, 0]
            assert result.aggregate_throughput == 40.0

    def test_fig3_oracle_optimum(self, fig3_scenario):
        """The exhaustive oracle itself finds Fig. 3d's unique optimum."""
        for mode in PLC_MODES:
            assignment, value = exhaustive_optimum(fig3_scenario,
                                                   plc_mode=mode)
            assert assignment.tolist() == [1, 0]
            assert value == 40.0

    @given(small_scenarios(min_users=2, capacities=st.booleans(),
                           reachable_prob=st.sampled_from([1.0, 0.6])))
    @settings(max_examples=max_examples(40), deadline=None)
    def test_matches_brute_force(self, sc):
        """The optimum's aggregate is the exhaustive oracle's, and the
        reported assignment is feasible and scores what is reported.
        The two may pick different optima among ties."""
        for mode in PLC_MODES:
            try:
                _, want = exhaustive_optimum(sc, plc_mode=mode)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    branch_and_bound_optimal(sc, plc_mode=mode)
                continue
            result = branch_and_bound_optimal(sc, plc_mode=mode)
            assert abs(result.aggregate_throughput - want) <= 1e-9
            validate_assignment(sc, result.assignment,
                                require_complete=True)
            assert evaluate(sc, result.assignment, plc_mode=mode
                            ).aggregate == result.aggregate_throughput

    @given(small_scenarios(capacities=st.just(True)))
    @example(GREEDY_DEAD_END)
    @settings(max_examples=max_examples(30), deadline=None)
    def test_capacities_respected(self, sc):
        if int(sc.capacities.sum()) < sc.n_users:
            return
        result = branch_and_bound_optimal(sc)
        counts = np.bincount(result.assignment, minlength=sc.n_extenders)
        assert np.all(counts <= sc.capacities)

    @given(small_scenarios(min_users=2), st.integers(0, 2**31 - 1))
    @settings(max_examples=max_examples(50), deadline=None)
    def test_dominates_any_random_assignment(self, sc, seed):
        result = branch_and_bound_optimal(sc)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            assignment = rng.integers(0, sc.n_extenders, size=sc.n_users)
            assert result.aggregate_throughput >= \
                evaluate(sc, assignment).aggregate - 1e-9

    def test_dominates_wolt(self):
        """The exact optimum never loses to the heuristic."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sc = random_scenario(rng, 7, 3)
            exact = branch_and_bound_optimal(sc, plc_mode="fixed")
            heuristic = solve_wolt(sc, plc_mode="fixed")
            assert exact.aggregate_throughput >= \
                heuristic.aggregate_throughput - 1e-9


class TestPruning:
    def test_prunes_under_fixed_law(self, rng):
        """The bound is tight under the fixed law: a 12-user instance
        (531441 complete assignments) collapses to a handful."""
        sc = random_scenario(rng, 12, 3)
        result = branch_and_bound_optimal(sc, plc_mode="fixed")
        assert result.nodes_expanded < 50_000

    def test_node_limit_enforced(self, rng):
        sc = random_scenario(rng, 10, 4)
        with pytest.raises(ValueError, match="node limit"):
            branch_and_bound_optimal(sc, plc_mode="redistribute",
                                     node_limit=3)

    def test_counters_populated(self, rng):
        sc = random_scenario(rng, 5, 2)
        result = branch_and_bound_optimal(sc)
        assert result.nodes_expanded >= 1
        assert result.nodes_pruned >= 0


class TestValidation:
    def test_unattachable_user_rejected(self):
        sc = Scenario(wifi_rates=np.array([[30.0, 0.0], [0.0, 0.0]]),
                      plc_rates=np.array([50.0, 50.0]))
        for solve in (branch_and_bound_optimal, exhaustive_optimum):
            with pytest.raises(ValueError,
                               match="user 1 has no reachable extender"):
                solve(sc)

    def test_unreachable_user_rejected(self):
        """A lone user that hears no extender has no assignment."""
        sc = Scenario(wifi_rates=np.array([[0.0]]), plc_rates=np.ones(1))
        for solve in (branch_and_bound_optimal, exhaustive_optimum):
            with pytest.raises(ValueError, match="no reachable extender"):
                solve(sc)

    def test_capacity_filtering(self):
        wifi = np.full((2, 2), 50.0)
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([100.0, 10.0]),
                      capacities=[1, 1])
        result = branch_and_bound_optimal(sc)
        counts = np.bincount(result.assignment, minlength=2)
        assert np.all(counts <= 1)

    def test_infeasible_capacity_raises(self):
        wifi = np.full((2, 1), 50.0)
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([100.0]),
                      capacities=[1])
        with pytest.raises(ValueError, match="no capacity-feasible"):
            branch_and_bound_optimal(sc)

    def test_greedy_dead_end_is_solved(self):
        """A capacity dead-end of the greedy warm start leaves the
        search without an incumbent, not without an answer."""
        with pytest.raises(ValueError, match="cannot be attached"):
            greedy_assignment(GREEDY_DEAD_END)
        result = branch_and_bound_optimal(GREEDY_DEAD_END)
        assert result.assignment.tolist() == [1, 0]
        assert result.aggregate_throughput == 30.0

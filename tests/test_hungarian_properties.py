"""Property tests for the from-scratch rectangular assignment solver.

Randomized cross-checks of :func:`repro.core.hungarian.solve_assignment`
against :func:`scipy.optimize.linear_sum_assignment` on rectangular
matrices with forbidden pairs, plus explicit guarantees that a
fully-forbidden row raises :class:`InfeasibleAssignmentError` instead of
silently matching the sentinel "big" cost.

The exact-equality wall pins the scalar solver to its numpy
predecessor (:func:`tests.oracles.shortest_path_assignment_numpy`):
identical ``(row4col, col4row)`` on tied, forbidden, tall, wide and
Phase-I instances, so Phase I picks the same anchors bit for bit.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.hungarian import (InfeasibleAssignmentError,
                                  _shortest_path_assignment,
                                  solve_assignment)
from repro.core.phase1 import phase1_utilities

from .conftest import max_examples, random_scenario
from .oracles import assignment_cost, shortest_path_assignment_numpy


def _random_instance(seed: int, n_rows: int, n_cols: int,
                     forbidden_prob: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-50.0, 150.0, size=(n_rows, n_cols))
    forbidden = rng.random((n_rows, n_cols)) < forbidden_prob
    return np.where(forbidden, -np.inf, weights)


def _scipy_reference(weights: np.ndarray):
    """scipy's verdict: (feasible, total utility of an optimal matching)."""
    try:
        rows, cols = linear_sum_assignment(weights, maximize=True)
    except ValueError:
        return False, None
    if np.any(np.isneginf(weights[rows, cols])):
        return False, None
    return True, float(weights[rows, cols].sum())


class TestScipyDifferential:
    @given(st.integers(1, 7), st.integers(1, 7),
           st.sampled_from([0.0, 0.2, 0.4, 0.6]),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_same_verdict_and_value(self, n_rows, n_cols, forbidden_prob,
                                    seed):
        weights = _random_instance(seed, n_rows, n_cols, forbidden_prob)
        feasible, best = _scipy_reference(weights)
        if not feasible:
            with pytest.raises(InfeasibleAssignmentError):
                solve_assignment(weights)
            return
        rows, cols = solve_assignment(weights)
        assert rows.size == cols.size == min(n_rows, n_cols)
        assert len(set(rows.tolist())) == rows.size
        assert len(set(cols.tolist())) == cols.size
        assert not np.any(np.isneginf(weights[rows, cols]))
        assert float(weights[rows, cols].sum()) == pytest.approx(best)

    @given(st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_minimize_orientation(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.0, 100.0, size=(n_rows, n_cols))
        rows, cols = solve_assignment(-costs)
        ref_rows, ref_cols = linear_sum_assignment(costs)
        assert float(costs[rows, cols].sum()) == pytest.approx(
            float(costs[ref_rows, ref_cols].sum()))


class TestFullyForbiddenRows:
    def test_square_matrix_with_dead_row_is_infeasible(self):
        weights = np.array([[10.0, 20.0, 30.0],
                            [-np.inf, -np.inf, -np.inf],
                            [5.0, 15.0, 25.0]])
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(weights)

    def test_wide_matrix_with_dead_row_is_infeasible(self):
        # Fewer rows than columns: every row must still be matched.
        weights = np.array([[-np.inf, -np.inf, -np.inf, -np.inf],
                            [1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(weights)

    def test_tall_matrix_skips_dead_row(self):
        # More rows than columns: a dead row can simply stay unmatched.
        weights = np.array([[10.0, 1.0],
                            [-np.inf, -np.inf],
                            [2.0, 20.0]])
        rows, cols = solve_assignment(weights)
        assert 1 not in rows.tolist()
        assert float(weights[rows, cols].sum()) == pytest.approx(30.0)

    def test_all_forbidden_matrix_is_infeasible(self):
        weights = np.full((2, 2), -np.inf)
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(weights)

    def test_minimize_dead_row_is_infeasible(self):
        costs = np.array([[np.inf, np.inf],
                          [1.0, 2.0]])
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(-costs)

    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_matches_sentinel_cost(self, n, seed):
        """A forbidden pair never leaks into the matching via `big`."""
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 100.0, size=(n, n))
        dead = int(rng.integers(n))
        weights[dead, :] = -np.inf
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(weights)


def _assert_same_anchors(weights: np.ndarray) -> None:
    """Production and the numpy oracle agree on ``weights``: the solver
    returns identical ``(row4col, col4row)`` on the prepared cost, and
    ``solve_assignment`` returns the pairs the oracle implies."""
    if np.all(np.isneginf(weights)):
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(weights)
        return
    cost, forbidden, transposed = assignment_cost(weights)
    row4col, col4row = shortest_path_assignment_numpy(cost)
    assert _shortest_path_assignment(cost.tolist()) == (
        row4col.tolist(), col4row.tolist())
    rows = np.arange(col4row.size)
    if forbidden[rows, col4row].any():
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(weights)
        return
    cols = col4row
    if transposed:
        rows = np.flatnonzero(row4col != -1)
        cols = row4col[rows]
    got_rows, got_cols = solve_assignment(weights)
    assert got_rows.tolist() == rows.tolist()
    assert got_cols.tolist() == cols.tolist()


class TestNumpyOracleIdentity:
    @given(n_rows=st.integers(1, 9), n_cols=st.integers(1, 9),
           levels=st.sampled_from([1, 2, 3, 5]),
           forbidden_prob=st.sampled_from([0.0, 0.2, 0.5]),
           seed=st.integers(0, 2**31 - 1))
    @example(n_rows=1, n_cols=1, levels=1, forbidden_prob=0.0, seed=0)
    @example(n_rows=3, n_cols=1, levels=1, forbidden_prob=0.5, seed=1)
    @settings(max_examples=max_examples(150), deadline=None)
    def test_tied_integer_weights(self, n_rows, n_cols, levels,
                                  forbidden_prob, seed):
        """Few distinct values force ties at every path step."""
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, levels, size=(n_rows, n_cols)).astype(
            float)
        weights[rng.random((n_rows, n_cols)) < forbidden_prob] = -np.inf
        _assert_same_anchors(weights)

    @given(n_users=st.integers(1, 40), n_extenders=st.integers(2, 15),
           reachable_prob=st.sampled_from([1.0, 0.6, 0.3]),
           seed=st.integers(0, 2**31 - 1))
    @example(n_users=6, n_extenders=3, reachable_prob=1.0, seed=0)
    @example(n_users=124, n_extenders=15, reachable_prob=0.6, seed=0)
    @settings(max_examples=max_examples(60), deadline=None)
    def test_phase1_utilities(self, n_users, n_extenders, reachable_prob,
                              seed):
        """``min(c_j/|A|, r_ij)`` ties on every fast user's column."""
        scenario = random_scenario(np.random.default_rng(seed), n_users,
                                   n_extenders,
                                   reachable_prob=reachable_prob)
        _assert_same_anchors(phase1_utilities(scenario))


def test_fleet_solve_imports_no_scipy():
    """Phase I runs in-repo: a fleet shard solve loads no scipy."""
    code = ("import sys, numpy as np\n"
            "import repro.core, repro.fleet\n"
            "from repro.core.problem import Scenario\n"
            "repro.core.solve_wolt(Scenario(wifi_rates=np.array("
            "[[15., 10.], [40., 20.]]), plc_rates=np.array([60., 20.])))\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n")
    subprocess.run([sys.executable, "-c", code], check=True)

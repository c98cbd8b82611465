"""Tests for the from-scratch rectangular Hungarian solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.hungarian import InfeasibleAssignmentError, solve_assignment


class TestBasics:
    def test_identity_is_optimal(self):
        w = np.eye(3)
        rows, cols = solve_assignment(w)
        assert rows.tolist() == cols.tolist() == [0, 1, 2]

    def test_minimize_orientation(self):
        # A minimum-cost matching is the maximum of the negated costs.
        w = np.array([[1.0, 10.0], [10.0, 1.0]])
        rows, cols = solve_assignment(-w)
        assert w[rows, cols].sum() == pytest.approx(2.0)

    def test_maximize_orientation(self):
        w = np.array([[1.0, 10.0], [10.0, 1.0]])
        rows, cols = solve_assignment(w)
        assert w[rows, cols].sum() == pytest.approx(20.0)

    def test_rectangular_tall_matches_all_columns(self):
        w = np.array([[5.0, 1.0], [4.0, 8.0], [9.0, 2.0]])
        rows, cols = solve_assignment(w)
        assert len(rows) == 2
        assert sorted(cols.tolist()) == [0, 1]
        assert len(set(rows.tolist())) == 2
        assert w[rows, cols].sum() == pytest.approx(17.0)  # 9 + 8

    def test_rectangular_wide_matches_all_rows(self):
        w = np.array([[5.0, 1.0, 7.0]])
        rows, cols = solve_assignment(w)
        assert rows.tolist() == [0]
        assert cols.tolist() == [2]

    def test_forbidden_pairs_avoided(self):
        w = np.array([[10.0, -np.inf], [9.0, 8.0]])
        rows, cols = solve_assignment(w)
        pairs = dict(zip(rows.tolist(), cols.tolist()))
        assert pairs[0] == 0
        assert pairs[1] == 1

    def test_infeasible_detected(self):
        w = np.array([[-np.inf, -np.inf], [1.0, 2.0]])
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(w)

    def test_all_forbidden_detected(self):
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment(np.full((2, 2), -np.inf))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment(np.array([[np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_assignment(np.empty((0, 3)))

    def test_single_cell(self):
        rows, cols = solve_assignment(np.array([[3.5]]))
        assert rows.tolist() == [0] and cols.tolist() == [0]


class TestAgainstScipy:
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_optimal_value_matches_scipy(self, n, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 100.0, size=(n, m))
        rows, cols = solve_assignment(w)
        ref_rows, ref_cols = linear_sum_assignment(w, maximize=True)
        assert w[rows, cols].sum() == pytest.approx(
            w[ref_rows, ref_cols].sum())

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_minimize_matches_scipy(self, n, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-50.0, 50.0, size=(n, m))
        rows, cols = solve_assignment(-w)
        ref_rows, ref_cols = linear_sum_assignment(w, maximize=False)
        assert w[rows, cols].sum() == pytest.approx(
            w[ref_rows, ref_cols].sum())

    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**31 - 1),
           st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_sparse_feasibility_matches_scipy(self, n, m, seed, density):
        """With random forbidden pairs, agree with scipy (or both fail)."""
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 100.0, size=(n, m))
        forbidden = rng.random((n, m)) > density
        w = np.where(forbidden, -np.inf, w)
        scipy_w = np.where(forbidden, -1e12, w)
        ref_rows, ref_cols = linear_sum_assignment(scipy_w, maximize=True)
        ref_feasible = not np.any(forbidden[ref_rows, ref_cols])
        try:
            rows, cols = solve_assignment(w)
        except InfeasibleAssignmentError:
            assert not ref_feasible
        else:
            assert ref_feasible
            assert w[rows, cols].sum() == pytest.approx(
                scipy_w[ref_rows, ref_cols].sum())

    @given(st.integers(1, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matching_is_a_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, n))
        rows, cols = solve_assignment(w)
        assert sorted(rows.tolist()) == list(range(n))
        assert sorted(cols.tolist()) == list(range(n))

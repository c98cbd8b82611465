"""Tests for Phase I (the relaxed assignment problem, Theorem 2)."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.hungarian import InfeasibleAssignmentError, solve_assignment
from repro.core.phase1 import (_max_matchable_extenders, phase1_utilities,
                               solve_phase1)
from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

from .conftest import max_examples, random_scenario
from .oracles import max_matchable_extenders_networkx


class TestUtilities:
    def test_eq12_definition(self, fig3_scenario):
        u = phase1_utilities(fig3_scenario)
        # c = [60, 20], |A| = 2 -> fair PLC shares [30, 10].
        assert u[0].tolist() == [15.0, 10.0]   # min(30,15), min(10,10)
        assert u[1].tolist() == [30.0, 10.0]   # min(30,40), min(10,20)

    def test_unreachable_pairs_forbidden(self):
        sc = Scenario(wifi_rates=np.array([[0.0, 20.0]]),
                      plc_rates=np.array([60.0, 20.0]))
        u = phase1_utilities(sc)
        assert u[0, 0] == -np.inf
        assert np.isfinite(u[0, 1])


class TestSolvePhase1:
    def test_fig3_anchors(self, fig3_scenario):
        res = solve_phase1(fig3_scenario)
        # Optimal Phase I: user 2 -> ext 1 (30), user 1 -> ext 2 (10).
        assert res.assignment.tolist() == [1, 0]
        assert res.objective == pytest.approx(40.0)
        assert res.anchored_users.tolist() == [0, 1]
        assert res.unmatched_extenders.size == 0

    def test_one_user_per_extender(self, rng):
        sc = random_scenario(rng, 20, 6)
        res = solve_phase1(sc)
        attached = res.assignment[res.assignment != UNASSIGNED]
        assert len(attached) == 6
        assert sorted(attached.tolist()) == list(range(6))

    def test_fewer_users_than_extenders(self, rng):
        sc = random_scenario(rng, 3, 8)
        res = solve_phase1(sc)
        attached = res.assignment[res.assignment != UNASSIGNED]
        assert len(attached) == 3
        assert res.unmatched_extenders.size == 5

    def test_unreachable_extender_left_unmatched(self):
        wifi = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([50.0, 50.0]))
        res = solve_phase1(sc)
        assert res.unmatched_extenders.tolist() == [1]
        attached = res.assignment[res.assignment != UNASSIGNED]
        assert attached.tolist() == [0]

    def test_hall_violation_falls_back(self):
        """Two extenders reachable only through the same single user."""
        wifi = np.array([[10.0, 10.0], [0.0, 0.0], [0.0, 0.0]])
        # Users 2,3 unreachable everywhere would break Scenario semantics
        # in Phase II, but Phase I itself must still anchor extenders.
        sc = Scenario(wifi_rates=wifi, plc_rates=np.array([50.0, 50.0]))
        res = solve_phase1(sc)
        attached = res.assignment[res.assignment != UNASSIGNED]
        assert len(attached) == 1  # only user 0 can anchor anything

    @given(st.integers(1, 9), st.integers(2, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=max_examples(200), deadline=None)
    def test_hall_fallback_is_a_maximum_matching(self, n_users, n_ext,
                                                 seed):
        """The fallback's column set is as large as Hopcroft-Karp's and
        matchable; which maximum matching it picks may differ."""
        rng = np.random.default_rng(seed)
        feasible = rng.random((n_users, n_ext)) < rng.uniform(0.2, 0.9)
        # Squeeze k extenders onto at most k - 1 users: a Hall
        # violation whenever the matrix is at least as tall as wide.
        k = int(rng.integers(2, n_ext + 1))
        users = rng.choice(n_users, min(k - 1, n_users), replace=False)
        blocked = np.setdiff1d(np.arange(n_users), users)
        feasible[np.ix_(blocked, rng.choice(n_ext, k, replace=False))] = False
        utilities = np.where(feasible, rng.uniform(1.0, 50.0, feasible.shape),
                             -np.inf)
        if n_users >= n_ext:
            with pytest.raises(InfeasibleAssignmentError):
                solve_assignment(utilities)
        matched = _max_matchable_extenders(utilities)
        assert matched.tolist() == sorted(set(matched.tolist()))
        assert matched.size == max_matchable_extenders_networkx(
            utilities).size
        if matched.size:
            _, cols = solve_assignment(utilities[:, matched])
            assert cols.size == matched.size

    def test_no_users(self):
        sc = Scenario(wifi_rates=np.empty((0, 2)),
                      plc_rates=np.array([10.0, 20.0]))
        res = solve_phase1(sc)
        assert res.anchored_users.size == 0
        assert res.unmatched_extenders.tolist() == [0, 1]

    def test_wrong_utility_shape_rejected(self, fig3_scenario):
        with pytest.raises(ValueError):
            solve_phase1(fig3_scenario, utilities=np.ones((3, 3)))

    @given(st.integers(2, 15), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_certified_optimum(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext)
        res = solve_phase1(sc)
        u = phase1_utilities(sc)
        if n_users >= n_ext:
            ref_rows, ref_cols = linear_sum_assignment(u.T, maximize=True)
            ref = u.T[ref_rows, ref_cols].sum()
        else:
            ref_rows, ref_cols = linear_sum_assignment(u, maximize=True)
            ref = u[ref_rows, ref_cols].sum()
        assert res.objective == pytest.approx(float(ref))

    @given(st.integers(2, 12), st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_anchors_consistent_with_assignment(self, n_users, n_ext, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext, reachable_prob=0.8)
        res = solve_phase1(sc)
        anchored = np.flatnonzero(res.assignment != UNASSIGNED)
        assert anchored.tolist() == res.anchored_users.tolist()
        # Anchors only sit on reachable extenders.
        for i in anchored:
            assert sc.wifi_rates[i, res.assignment[i]] > 0


class TestLemma2:
    """Lemma 2 as a property of every Phase-I solve.

    An optimum of the relaxed problem anchors at most one user per
    extender, only on links the user can hear, and leaves an extender
    unmatched only when no unanchored user reaches it (otherwise that
    pair would extend the matching).  Tall draws have more users than
    extenders, wide draws fewer.
    """

    @pytest.mark.parametrize("reachable_prob", [1.0, 0.6, 0.3])
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=max_examples(60), deadline=None)
    def test_anchors_form_a_maximal_reachable_matching(
            self, shape, reachable_prob, small, extra, seed):
        n_users, n_ext = small + extra, small
        if shape == "wide":
            n_users, n_ext = small, small + extra + 1
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, n_users, n_ext,
                             reachable_prob=reachable_prob)
        res = solve_phase1(sc)
        anchored = np.flatnonzero(res.assignment != UNASSIGNED)
        extenders = res.assignment[anchored]
        # Every anchor sits on a link its user can hear.
        assert np.all(sc.wifi_rates[anchored, extenders] > MIN_USABLE_RATE)
        # No extender holds two anchors.
        assert np.all(np.bincount(extenders, minlength=n_ext) <= 1)
        unmatched = np.setdiff1d(np.arange(n_ext), extenders)
        assert res.unmatched_extenders.tolist() == unmatched.tolist()
        # No unmatched extender is reachable by an unanchored user.
        free = res.assignment == UNASSIGNED
        assert not np.any(
            sc.wifi_rates[np.ix_(free, unmatched)] > MIN_USABLE_RATE)

    def test_a_second_anchor_beats_the_strongest_link(self):
        """User 0 hears extenders 0 and 2 equally well, user 1 only
        extender 0: the matching anchors both users, user 0 on
        extender 2, and leaves only the unheard extender 1 unmatched."""
        sc = Scenario(wifi_rates=np.array([[80.0, 0.0, 30.0],
                                           [60.0, 0.0, 0.0]]),
                      plc_rates=np.array([50.0, 50.0, 50.0]))
        res = solve_phase1(sc)
        assert res.assignment.tolist() == [2, 0]
        assert res.unmatched_extenders.tolist() == [1]


def test_runtime_imports_no_networkx():
    """The service, a channel plan and Phase I's Hall fallback run on
    numpy alone: none of them loads networkx or scipy."""
    code = ("import sys, numpy as np\n"
            "import repro, repro.fleet.service\n"
            "import repro.core.phase1 as phase1\n"
            "from repro.core.problem import UNASSIGNED, Scenario\n"
            "from repro.wifi.channels import assign_channels\n"
            "assign_channels(np.array([[0., 0.], [10., 0.], [99., 0.]]))\n"
            "calls = []\n"
            "fallback = phase1._max_matchable_extenders\n"
            "phase1._max_matchable_extenders = ("
            "lambda u: calls.append(u.shape) or fallback(u))\n"
            "res = phase1.solve_phase1(Scenario(wifi_rates=np.array("
            "[[10., 10.], [0., 0.], [0., 0.]]), "
            "plc_rates=np.array([50., 50.])))\n"
            "assert calls and (res.assignment != UNASSIGNED).sum() == 1\n"
            "loaded = {m.split('.')[0] for m in sys.modules}\n"
            "assert not loaded & {'networkx', 'scipy'}\n")
    subprocess.run([sys.executable, "-c", code], check=True)

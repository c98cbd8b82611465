"""Tests for the decision guard: invariants, repair, bit-identity.

The contracts under test (docs/ROBUSTNESS.md, "Self-healing control
loop"):

* repair is a **no-op** on violation-free assignments (an equal
  copy), so repairing a solver's or baseline's decision on a clean
  seed scenario returns that decision unchanged;
* repair is **idempotent** — repairing a repaired assignment changes
  nothing;
* repair output is **never invalid** — every surviving directive
  targets a reachable, within-capacity extender; a dropped or evicted
  user is left UNASSIGNED, never moved, and a user who violated
  nothing keeps their extender (a Hypothesis property over random
  scenarios and corrupted assignments);
* solvers and baselines trust their scenario and raise on a user that
  hears no extender; the boundary pattern (solve the hearing subset,
  scatter it back, repair once) leaves exactly that user UNASSIGNED.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (greedy_assignment, random_assignment,
                                  rssi_assignment,
                                  selfish_greedy_assignment)
from repro.core.bnb import branch_and_bound_optimal
from repro.core.guard import DecisionGuard
from repro.core.phase1 import solve_phase1
from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate

from .conftest import max_examples, random_scenario


def corrupt(assignment: np.ndarray, rng: np.random.Generator,
            n_extenders: int) -> np.ndarray:
    """Randomly break an assignment in every repairable way."""
    bad = assignment.copy()
    n = bad.size
    bad[rng.integers(n)] = n_extenders + 3          # out of range
    bad[rng.integers(n)] = -7                       # negative garbage
    bad[rng.integers(n)] = UNASSIGNED               # detached user
    return bad


def assert_valid(scenario: Scenario, assignment: np.ndarray) -> None:
    """The post-repair validity contract."""
    counts = np.zeros(scenario.n_extenders, dtype=int)
    for user in range(scenario.n_users):
        j = assignment[user]
        if j == UNASSIGNED:
            continue
        assert 0 <= j < scenario.n_extenders
        assert scenario.wifi_rates[user, j] > MIN_USABLE_RATE
        counts[j] += 1
    if scenario.capacities is not None:
        assert np.all(counts <= scenario.capacities)


class TestRepairAssignment:
    def test_noop_on_clean(self, rng):
        sc = random_scenario(rng, 12, 4)
        clean = rssi_assignment(sc)
        before = clean.copy()
        repaired = DecisionGuard().repair_assignment(sc, clean)
        assert np.array_equal(repaired, clean)
        assert repaired is not clean
        assert np.array_equal(clean, before)

    def test_drops_out_of_range_directives(self, rng):
        sc = random_scenario(rng, 12, 4)
        bad = corrupt(rssi_assignment(sc), rng, sc.n_extenders)
        repaired = DecisionGuard().repair_assignment(sc, bad)
        assert_valid(sc, repaired)
        # Broken directives are dropped, never redirected.
        changed = np.flatnonzero(repaired != bad)
        assert changed.size > 0
        assert np.all(repaired[changed] == UNASSIGNED)
        assert np.array_equal(repaired == UNASSIGNED,
                              (bad == UNASSIGNED) | (bad < 0)
                              | (bad >= sc.n_extenders))

    def test_unreachable_directive_dropped(self, rng):
        sc = random_scenario(rng, 8, 3, reachable_prob=0.6)
        guard = DecisionGuard()
        bad = rssi_assignment(sc)
        # Force a user onto an extender it cannot hear, if one exists.
        user = next((u for u in range(8)
                     if np.any(sc.wifi_rates[u] <= MIN_USABLE_RATE)),
                    None)
        if user is None:
            pytest.skip("every user hears every extender")
        dead_j = int(np.argmin(sc.wifi_rates[user]))
        bad[user] = dead_j
        repaired = guard.repair_assignment(sc, bad)
        assert repaired[user] == UNASSIGNED
        assert np.flatnonzero(repaired != bad).tolist() == [user]
        assert_valid(sc, repaired)

    def test_over_capacity_evicts_weakest(self, rng):
        sc = random_scenario(rng, 6, 3, capacities=True)
        caps = np.array([1, 6, 6])
        sc = Scenario(wifi_rates=sc.wifi_rates, plc_rates=sc.plc_rates,
                      capacities=caps)
        bad = np.zeros(6, dtype=int)  # everyone piled on extender 0
        repaired = DecisionGuard().repair_assignment(sc, bad)
        survivor = np.flatnonzero(repaired == 0)
        assert survivor.size == 1
        # The strongest link keeps its place.
        assert survivor[0] == int(np.argmax(sc.wifi_rates[:, 0]))
        assert_valid(sc, repaired)

    def test_evicted_users_stay_detached(self, rng):
        """Eviction never moves a user elsewhere, even where another
        extender has room: the loop applying the decision decides."""
        sc = random_scenario(rng, 6, 3, reachable_prob=1.0)
        sc = Scenario(wifi_rates=sc.wifi_rates, plc_rates=sc.plc_rates,
                      capacities=np.array([2, 6, 6]))
        repaired = DecisionGuard().repair_assignment(
            sc, np.zeros(6, dtype=int))
        evicted = np.flatnonzero(repaired != 0)
        assert len(evicted) == 4
        assert np.all(repaired[evicted] == UNASSIGNED)
        assert np.count_nonzero(repaired == 0) == 2

    def test_repair_idempotent(self, rng):
        for trial in range(20):
            sc = random_scenario(rng, 10, 4, reachable_prob=0.7,
                                 capacities=bool(trial % 2))
            bad = corrupt(rssi_assignment(sc), rng, sc.n_extenders)
            guard = DecisionGuard()
            once = guard.repair_assignment(sc, bad)
            twice = guard.repair_assignment(sc, once)
            assert np.array_equal(once, twice)
            assert_valid(sc, once)

    def test_detached_users_are_not_a_violation(self, rng):
        sc = random_scenario(rng, 5, 2)
        partial = np.full(5, UNASSIGNED, dtype=int)
        repaired = DecisionGuard().repair_assignment(sc, partial)
        assert np.array_equal(repaired, partial)

    def test_wrong_length_raises(self, rng):
        sc = random_scenario(rng, 5, 2)
        with pytest.raises(ValueError):
            DecisionGuard().repair_assignment(sc, [0, 0, 0])

    def test_takes_no_options(self):
        with pytest.raises(TypeError):
            DecisionGuard(strict=True)  # type: ignore[call-arg]

    def test_retains_no_history(self, rng):
        """An online loop repairs every epoch: the guard keeps no
        state at all, so nothing grows with the epoch count."""
        sc = random_scenario(rng, 8, 3)
        guard = DecisionGuard()
        for _ in range(50):
            guard.repair_assignment(
                sc, corrupt(rssi_assignment(sc), rng, sc.n_extenders))
            guard.sanitize_rates([np.nan, 1.0, -2.0])
        assert vars(guard) == {}


class TestSanitizeRates:
    def test_clean_rates_pass_through(self):
        guard = DecisionGuard()
        rates = np.array([10.0, 0.0, 33.5])
        clean, n_replaced = guard.sanitize_rates(rates)
        assert np.array_equal(clean, rates)
        assert clean is not rates
        assert n_replaced == 0

    def test_nonfinite_replaced_with_fallback(self):
        guard = DecisionGuard()
        rates = np.array([np.nan, 20.0, np.inf, -5.0])
        fallback = np.array([11.0, 99.0, np.nan, 4.0])
        clean, n_replaced = guard.sanitize_rates(rates, fallback=fallback)
        # nan -> fallback; inf -> non-finite fallback -> 0; -5 -> 0.
        assert clean.tolist() == [11.0, 20.0, 0.0, 0.0]
        assert n_replaced == 3
        assert np.isnan(rates[0])  # the input is not mutated

    def test_nonfinite_without_fallback_zeroed(self):
        clean, n_replaced = DecisionGuard().sanitize_rates([np.nan, 7.0])
        assert clean.tolist() == [0.0, 7.0]
        assert n_replaced == 1

    def test_fallback_shape_mismatch(self):
        with pytest.raises(ValueError):
            DecisionGuard().sanitize_rates([np.nan],
                                           fallback=np.ones(3))


#: WiFi rates drawn from a few values, so ties between users (the
#: eviction tie-break) and unreachable links (0) are common.
_WIFI = st.sampled_from([0.0, 6.5, 24.0, 54.0])


@st.composite
def repair_cases(draw) -> Tuple[Scenario, np.ndarray]:
    """A random scenario, with or without capacities, and a corrupted
    assignment: UNASSIGNED, negative garbage, out-of-range, unreachable
    and valid directives mixed."""
    n_users = draw(st.integers(1, 9))
    n_extenders = draw(st.integers(1, 4))
    wifi = draw(st.lists(
        st.lists(_WIFI, min_size=n_extenders, max_size=n_extenders),
        min_size=n_users, max_size=n_users))
    caps = draw(st.none() | st.lists(
        st.integers(0, n_users), min_size=n_extenders,
        max_size=n_extenders))
    sc = Scenario(wifi_rates=np.array(wifi),
                  plc_rates=np.full(n_extenders, 50.0), capacities=caps)
    assignment = draw(st.lists(st.integers(-3, n_extenders + 1),
                               min_size=n_users, max_size=n_users))
    return sc, np.array(assignment, dtype=int)


class TestRepairProperties:
    @given(case=repair_cases())
    @settings(max_examples=max_examples(200), deadline=None)
    def test_repair_contract(self, case):
        sc, bad = case
        before = bad.copy()
        out = DecisionGuard().repair_assignment(sc, bad)
        assert np.array_equal(bad, before)  # the input is not mutated

        # Every attached user is in range, reachable, within capacity.
        assert_valid(sc, out)

        # Users are only ever detached, never moved.
        changed = out != bad
        assert np.all(out[changed] == UNASSIGNED)

        # A user who violated nothing keeps their extender: the only
        # change to an in-range, reachable directive is an eviction
        # from an extender that was over capacity.
        in_range = (bad >= 0) & (bad < sc.n_extenders)
        usable = np.zeros(sc.n_users, dtype=bool)
        users = np.flatnonzero(in_range)
        usable[users] = sc.wifi_rates[users, bad[users]] > MIN_USABLE_RATE
        assert np.all(out[~usable & (bad != UNASSIGNED)] == UNASSIGNED)
        for j in range(sc.n_extenders):
            members = np.flatnonzero(usable & (bad == j))
            cap = (members.size if sc.capacities is None
                   else int(sc.capacities[j]))
            kept = [int(u) for u in members if out[u] == j]
            evicted = [int(u) for u in members if out[u] != j]
            assert len(kept) == min(cap, members.size)
            # Evictions take the weakest members; ties go to the
            # higher index.
            rates = sc.wifi_rates[:, j]
            for k in kept:
                for e in evicted:
                    assert (rates[k], -k) > (rates[e], -e)

        # Idempotent, and an equal copy on clean input.
        again = DecisionGuard().repair_assignment(sc, out)
        assert np.array_equal(again, out)
        assert again is not out


class TestCleanInputBitIdentity:
    """The boundary repair on clean seed scenarios: every solver's and
    baseline's decision comes back byte for byte."""

    @staticmethod
    def _assert_repair_is_identity(sc, assignment):
        repaired = DecisionGuard().repair_assignment(sc, assignment)
        expected = np.asarray(assignment)
        assert repaired.dtype == expected.dtype
        assert repaired.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_users,n_extenders", [(6, 2), (12, 4),
                                                     (24, 8)])
    def test_solve_wolt(self, rng, n_users, n_extenders):
        sc = random_scenario(rng, n_users, n_extenders)
        self._assert_repair_is_identity(sc, solve_wolt(sc).assignment)

    def test_solve_wolt_sparse_reachability(self, rng):
        sc = random_scenario(rng, 15, 5, reachable_prob=0.5)
        self._assert_repair_is_identity(sc, solve_wolt(sc).assignment)

    def test_phase1(self, rng):
        # Phase I anchors at most one user per extender and leaves the
        # rest UNASSIGNED: a valid partial decision.
        sc = random_scenario(rng, 10, 4)
        anchors = solve_phase1(sc).assignment
        assert np.any(anchors == UNASSIGNED)
        self._assert_repair_is_identity(sc, anchors)

    def test_baselines(self, rng):
        sc = random_scenario(rng, 12, 4, capacities=True)
        for fn in (rssi_assignment, greedy_assignment,
                   selfish_greedy_assignment):
            self._assert_repair_is_identity(sc, fn(sc))
        self._assert_repair_is_identity(
            sc, random_assignment(sc, rng=np.random.default_rng(7)))

    def test_bnb(self, rng):
        sc = random_scenario(rng, 7, 3)
        self._assert_repair_is_identity(
            sc, branch_and_bound_optimal(sc).assignment)


def _deaf_user_scenario(rng):
    sc = random_scenario(rng, 8, 3)
    wifi = sc.wifi_rates.copy()
    wifi[2, :] = 0.0  # user 2 hears nothing
    return Scenario(wifi_rates=wifi, plc_rates=sc.plc_rates)


def _boundary_solve(sc, solve):
    """Solve the hearing users alone and scatter the result back."""
    hearing = np.flatnonzero(
        np.any(sc.wifi_rates > MIN_USABLE_RATE, axis=1))
    target = np.full(sc.n_users, UNASSIGNED, dtype=int)
    target[hearing] = solve(sc.subset_users(hearing))
    return target


class TestGuardedSolversOnDirtyInputs:
    """On a scenario with a deaf user, the boundary pattern (subset
    solve, scatter, one repair) degrades gracefully where a solver
    called on the whole scenario raises."""

    def test_solve_wolt_drops_deaf_user(self, rng):
        sc = _deaf_user_scenario(rng)
        target = _boundary_solve(sc, lambda s: solve_wolt(s).assignment)
        repaired = DecisionGuard().repair_assignment(sc, target)
        assert repaired[2] == UNASSIGNED
        assert_valid(sc, repaired)
        # The deaf user carries no traffic: the scattered decision
        # scores exactly what the subset solve scores on its own.
        hearing = np.flatnonzero(repaired != UNASSIGNED)
        sub = sc.subset_users(hearing)
        assert evaluate(sc, repaired).aggregate == pytest.approx(
            evaluate(sub, repaired[hearing]).aggregate, rel=1e-12)
        assert evaluate(sc, repaired).aggregate > 0

    def test_baselines_drop_deaf_user(self, rng):
        sc = _deaf_user_scenario(rng)
        for fn in (rssi_assignment, greedy_assignment,
                   selfish_greedy_assignment, random_assignment):
            with pytest.raises(ValueError):
                fn(sc)
            target = _boundary_solve(sc, fn)
            out = DecisionGuard().repair_assignment(sc, target)
            assert np.array_equal(out, target)
            assert out[2] == UNASSIGNED
            assert np.count_nonzero(out == UNASSIGNED) == 1
            assert_valid(sc, out)

    def test_bnb_certifies_reachable_subset(self, rng):
        sc = _deaf_user_scenario(rng)
        with pytest.raises(ValueError):
            branch_and_bound_optimal(sc)
        exact = _boundary_solve(
            sc, lambda s: branch_and_bound_optimal(s).assignment)
        repaired = DecisionGuard().repair_assignment(sc, exact)
        assert np.array_equal(repaired, exact)
        assert repaired[2] == UNASSIGNED
        assert_valid(sc, repaired)
        # The subset optimum must dominate any heuristic on the
        # reachable users.
        heuristic = _boundary_solve(sc, lambda s: solve_wolt(s).assignment)
        assert evaluate(sc, repaired).aggregate >= \
            evaluate(sc, heuristic).aggregate - 1e-9


class TestBoundaryPattern:
    """Solvers raise on a deaf user; the online loops solve the hearing
    subset, scatter it back and repair once."""

    def test_solvers_raise_on_deaf_user(self, rng):
        sc = _deaf_user_scenario(rng)
        for fn in (solve_wolt, rssi_assignment, greedy_assignment,
                   selfish_greedy_assignment, random_assignment,
                   branch_and_bound_optimal):
            with pytest.raises(ValueError):
                fn(sc)

    def test_subset_solve_repairs_to_itself(self, rng):
        sc = _deaf_user_scenario(rng)
        for solve in (lambda s: solve_wolt(s).assignment,
                      greedy_assignment,
                      lambda s: branch_and_bound_optimal(s).assignment):
            target = _boundary_solve(sc, solve)
            repaired = DecisionGuard().repair_assignment(sc, target)
            assert np.array_equal(repaired, target)
            assert repaired[2] == UNASSIGNED
            assert_valid(sc, repaired)

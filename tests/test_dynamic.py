"""Tests for the incremental / hysteresis WOLT controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic import IncrementalWolt
from repro.core.problem import UNASSIGNED, Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import DeltaEvaluator

from .conftest import random_scenario
from .oracles import reconfigure_batch


def _loaded_controller(rng, n_users=12, n_ext=4, **kwargs):
    sc = random_scenario(rng, n_users, n_ext)
    ctrl = IncrementalWolt(sc.plc_rates, **kwargs)
    for uid in range(n_users):
        ctrl.add_user(uid, sc.wifi_rates[uid])
    return ctrl, sc


class TestChurn:
    def test_add_user_parks_on_strongest(self, rng):
        ctrl = IncrementalWolt([100.0, 50.0])
        j = ctrl.add_user(7, [20.0, 30.0])
        assert j == 1
        assert ctrl.assignment[7] == 1
        assert ctrl.n_users == 1

    def test_duplicate_user_rejected(self):
        ctrl = IncrementalWolt([100.0])
        ctrl.add_user(1, [10.0])
        with pytest.raises(ValueError):
            ctrl.add_user(1, [10.0])

    def test_deaf_user_rejected(self):
        ctrl = IncrementalWolt([100.0])
        with pytest.raises(ValueError):
            ctrl.add_user(1, [0.0])

    def test_rate_vector_length_checked(self):
        ctrl = IncrementalWolt([100.0, 50.0])
        with pytest.raises(ValueError):
            ctrl.add_user(1, [10.0])

    def test_remove_user(self):
        ctrl = IncrementalWolt([100.0])
        ctrl.add_user(1, [10.0])
        ctrl.remove_user(1)
        assert ctrl.n_users == 0
        ctrl.remove_user(99)  # unknown: no-op


class TestReconfigure:
    def test_empty_controller(self):
        ctrl = IncrementalWolt([100.0])
        outcome = ctrl.reconfigure()
        assert outcome.moves == ()
        assert outcome.aggregate_after == 0.0

    def test_zero_threshold_tracks_wolt(self, rng):
        ctrl, _ = _loaded_controller(rng, min_gain_mbps=0.0)
        outcome = ctrl.reconfigure()
        # With no hysteresis, applied moves reach at least WOLT's level
        # minus negligible tolerance.
        assert outcome.aggregate_after >= outcome.wolt_aggregate - 1e-6 \
            or outcome.hysteresis_cost <= 1e-6

    def test_moves_never_hurt(self, rng):
        ctrl, _ = _loaded_controller(rng, min_gain_mbps=0.5)
        outcome = ctrl.reconfigure()
        assert outcome.aggregate_after >= outcome.aggregate_before - 1e-9

    def test_each_move_clears_the_bar(self, rng):
        """Every applied move gained at least min_gain_mbps."""
        ctrl, _ = _loaded_controller(rng, min_gain_mbps=2.0)
        outcome = ctrl.reconfigure()
        if outcome.moves:
            total_gain = outcome.aggregate_after - outcome.aggregate_before
            assert total_gain >= 2.0 * len(outcome.moves) - 1e-6

    def test_move_cap_enforced(self, rng):
        ctrl, _ = _loaded_controller(rng, max_moves=1)
        outcome = ctrl.reconfigure()
        assert len(outcome.moves) <= 1
        assert ctrl.total_moves <= 1

    def test_high_threshold_freezes_network(self, rng):
        ctrl, _ = _loaded_controller(rng, min_gain_mbps=1e9)
        outcome = ctrl.reconfigure()
        assert outcome.moves == ()
        assert outcome.aggregate_after == pytest.approx(
            outcome.aggregate_before)

    def test_threshold_monotone_in_moves(self, rng):
        """Raising the hysteresis bar never increases the move count."""
        moves = []
        for threshold in (0.0, 1.0, 5.0, 50.0):
            ctrl, _ = _loaded_controller(np.random.default_rng(7),
                                         min_gain_mbps=threshold)
            moves.append(len(ctrl.reconfigure().moves))
        assert moves == sorted(moves, reverse=True)

    def test_assignment_state_updated(self, rng):
        ctrl, _ = _loaded_controller(rng, min_gain_mbps=0.0)
        outcome = ctrl.reconfigure()
        for user_id, _, new_j in outcome.moves:
            assert ctrl.assignment[user_id] == new_j
        # aggregate_throughput() reflects the applied state.
        assert ctrl.aggregate_throughput() == pytest.approx(
            outcome.aggregate_after)

    def test_second_reconfigure_is_stable(self, rng):
        ctrl, _ = _loaded_controller(rng, min_gain_mbps=0.0)
        ctrl.reconfigure()
        second = ctrl.reconfigure()
        # No strictly-improving moves should remain at zero threshold
        # beyond numerical dust.
        assert (second.aggregate_after
                - second.aggregate_before) <= max(
                    1e-6, 0.01 * second.aggregate_before)


def _drift_scenario() -> Scenario:
    """A scenario whose first greedy move drifts ``best += gain``.

    Everyone parks on extender 0 (dominant WiFi) whose PLC backhaul is
    junk, so the initial aggregate is tiny and the first target move
    multiplies it ~80x.  ``fl(best + fl(agg - best))`` is only exact
    when the subtraction is (Sterbenz: within a factor of two); the
    pinned ``plc[0] = 1.186`` makes the first jump land on bit patterns
    where the old accumulation ends up ``~1.4e-14`` *above* the true
    committed aggregate.
    """
    rng = np.random.default_rng(3)
    n_users, n_ext = 30, 6
    wifi = rng.uniform(6.5, 144.0, size=(n_users, n_ext))
    wifi[:, 0] = rng.uniform(140.0, 144.0, size=n_users)
    plc = rng.uniform(20.0, 200.0, size=n_ext)
    plc[0] = 1.186
    return Scenario(wifi_rates=wifi, plc_rates=plc)


def _replay_greedy(scenario: Scenario, current: np.ndarray):
    """Replay the greedy target-move loop with a drift-free baseline.

    Returns the ``(move_index, committed_aggregate)`` sequence the
    fixed implementation must follow: the baseline is re-read from the
    evaluator after every commit, never accumulated.
    """
    target = solve_wolt(scenario).assignment
    pending = {i for i in range(scenario.n_users)
               if target[i] != current[i] and target[i] != UNASSIGNED}
    ev = DeltaEvaluator(scenario, current.copy())
    best = ev.aggregate
    steps = []
    while pending:
        idxs = sorted(pending)
        aggs = [ev.score_move(i, int(target[i])) for i in idxs]
        gain, idx = max((float(a) - best, i)
                        for a, i in zip(aggs, idxs))
        if gain <= 0:
            break
        best = ev.commit(idx, int(target[idx]))
        pending.discard(idx)
        steps.append((idx, best))
    return steps


class TestBugfixRegressions:
    """Pins for the two ``reconfigure`` control-loop bugs.

    Both tests fail on the pre-fix code: the first because zero-gain
    tie-point moves were silently dropped (``gain <= 1e-12`` break),
    the second because ``best += gain`` drifted the greedy threshold
    baseline off the evaluator's committed aggregate.
    """

    def test_zero_gain_tie_moves_applied(self):
        """min_gain 0 must apply zero-gain moves from the WOLT target.

        Both extenders are PLC-bottlenecked (10 Mbps each behind
        40-50 Mbps WiFi links), so swapping the two users between them
        changes nothing about the aggregate — a pure tie point.  The
        fresh WOLT target still prefers the swapped association, and
        the class contract says min_gain 0 *is* vanilla epoch-boundary
        WOLT, so the swap must happen.
        """
        scenario = Scenario(wifi_rates=np.array([[40.0, 50.0],
                                                 [50.0, 40.0]]),
                            plc_rates=np.array([10.0, 10.0]))
        target = solve_wolt(scenario).assignment
        parked = np.array([1, 0])  # add_user parks on argmax WiFi
        assert not np.array_equal(target, parked), \
            "precondition: the tie point must separate target from parking"
        for reconfigure in (IncrementalWolt.reconfigure, reconfigure_batch):
            ctrl = IncrementalWolt(scenario.plc_rates, min_gain_mbps=0.0)
            ctrl.add_user(0, scenario.wifi_rates[0])
            ctrl.add_user(1, scenario.wifi_rates[1])
            assert [ctrl.assignment[u] for u in (0, 1)] == [1, 0]
            outcome = reconfigure(ctrl)
            assert len(outcome.moves) == 2
            assert [ctrl.assignment[u] for u in (0, 1)] == \
                target.tolist()
            assert outcome.hysteresis_cost == 0.0

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_zero_threshold_is_vanilla_wolt(self, seed):
        """min_gain 0 adopts the complete fresh WOLT target, exactly."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, 14, 4)
        ctrl = IncrementalWolt(sc.plc_rates, min_gain_mbps=0.0)
        for uid in range(sc.n_users):
            ctrl.add_user(uid, sc.wifi_rates[uid])
        ctrl.reconfigure()
        target = solve_wolt(sc).assignment
        adopted = np.array([ctrl.assignment[uid]
                            for uid in range(sc.n_users)])
        assert np.array_equal(adopted, target)

    def test_threshold_baseline_does_not_drift(self):
        """The greedy bar must compare against the committed aggregate.

        The pinned scenario's first move drifts the old ``best += gain``
        accumulation ~1.4e-14 above the evaluator's true aggregate.
        Setting ``min_gain_mbps`` to the *exact* gain of the second
        replayed move then separates the implementations: against the
        true baseline the move clears the bar with equality and is
        applied; against the drifted baseline its computed gain falls
        1.4e-14 short and the loop stops after one move.
        """
        scenario = _drift_scenario()
        parked = np.argmax(scenario.wifi_rates, axis=1)
        steps = _replay_greedy(scenario, parked)
        assert len(steps) >= 2, "precondition: needs two greedy moves"
        ev = DeltaEvaluator(scenario, parked.copy())
        agg0 = ev.commit(steps[0][0],
                         int(solve_wolt(scenario).assignment[steps[0][0]]))
        drifted = ev.aggregate  # true committed aggregate after move 1
        # Demonstrate the drift the old arithmetic would have produced.
        before = DeltaEvaluator(scenario, parked.copy()).aggregate
        old_best = before + (agg0 - before)
        assert old_best > drifted, \
            "precondition: the pinned scenario must drift the baseline up"
        exact_second_gain = steps[1][1] - agg0
        ctrl = IncrementalWolt(scenario.plc_rates,
                               min_gain_mbps=exact_second_gain)
        for uid in range(scenario.n_users):
            ctrl.add_user(uid, scenario.wifi_rates[uid])
        outcome = ctrl.reconfigure()
        assert len(outcome.moves) >= 2
        assert outcome.moves[1][0] == steps[1][0]


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            IncrementalWolt([100.0], min_gain_mbps=-1.0)
        with pytest.raises(ValueError):
            IncrementalWolt([100.0], max_moves=-1)
        with pytest.raises(ValueError):
            IncrementalWolt([])

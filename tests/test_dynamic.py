"""Tests for the Central Controller's hysteresis bar (``min_gain_mbps``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import CentralController, ScanReport, Transport
from repro.core.health import HealthMonitor
from repro.core.problem import UNASSIGNED, Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import DeltaEvaluator, evaluate

from .conftest import random_scenario
from .oracles import reconfigure_batch


def _admit(cc, scenario):
    for uid in range(scenario.n_users):
        cc.receive_scan_report(ScanReport(uid, scenario.wifi_rates[uid]))


def _loaded_controller(rng, n_users=12, n_ext=4, **kwargs):
    sc = random_scenario(rng, n_users, n_ext)
    cc = CentralController(sc.plc_rates, **kwargs)
    _admit(cc, sc)
    return cc, sc


def _aggregate(cc, scenario):
    """Aggregate of the controller's associations (``redistribute``)."""
    return evaluate(scenario, [cc.associations[uid] for uid
                               in range(scenario.n_users)]).aggregate


def _reconfigure(cc, scenario, reconfigure=CentralController.reconfigure):
    """Reconfigure; return ``(moved users, aggregate before, after)``."""
    before = cc.associations
    aggregate_before = _aggregate(cc, scenario)
    reconfigure(cc)
    moved = sorted(uid for uid, j in cc.associations.items()
                   if before[uid] != j)
    return moved, aggregate_before, _aggregate(cc, scenario)


class TestChurn:
    def test_add_user_parks_on_strongest(self):
        cc = CentralController([100.0, 50.0], min_gain_mbps=1.0)
        cc.receive_scan_report(ScanReport(7, np.array([20.0, 30.0])))
        assert cc.associations == {7: 1}

    def test_repeated_report_refreshes_one_user(self):
        cc = CentralController([100.0], min_gain_mbps=1.0)
        cc.receive_scan_report(ScanReport(1, np.array([10.0])))
        cc.receive_scan_report(ScanReport(1, np.array([12.0])))
        assert cc.associations == {1: 0}

    def test_deaf_user_rejected(self):
        cc = CentralController([100.0], min_gain_mbps=1.0)
        with pytest.raises(ValueError):
            cc.receive_scan_report(ScanReport(1, np.array([0.0])))

    def test_rate_vector_length_checked(self):
        cc = CentralController([100.0, 50.0], min_gain_mbps=1.0)
        with pytest.raises(ValueError):
            cc.receive_scan_report(ScanReport(1, np.array([10.0])))

    def test_remove_user(self):
        cc = CentralController([100.0], min_gain_mbps=1.0)
        cc.receive_scan_report(ScanReport(1, np.array([10.0])))
        cc.disconnect(1)
        assert cc.associations == {}
        cc.disconnect(99)  # unknown: no-op


class TestReconfigure:
    def test_empty_controller(self):
        cc = CentralController([100.0], min_gain_mbps=1.0)
        cc.reconfigure()
        assert cc.associations == {}
        assert cc.stats.reassignments == 0

    def test_zero_threshold_tracks_wolt(self, rng):
        cc, sc = _loaded_controller(rng, min_gain_mbps=0.0)
        _, _, after = _reconfigure(cc, sc)
        assert after == evaluate(sc, solve_wolt(sc).assignment).aggregate

    def test_moves_never_hurt(self, rng):
        cc, sc = _loaded_controller(rng, min_gain_mbps=0.5)
        _, before, after = _reconfigure(cc, sc)
        assert after >= before - 1e-9

    def test_each_move_clears_the_bar(self, rng):
        """Every applied move gained at least min_gain_mbps."""
        cc, sc = _loaded_controller(rng, min_gain_mbps=2.0)
        moved, before, after = _reconfigure(cc, sc)
        if moved:
            assert after - before >= 2.0 * len(moved) - 1e-6

    def test_high_threshold_freezes_network(self, rng):
        cc, sc = _loaded_controller(rng, min_gain_mbps=1e9)
        moved, before, after = _reconfigure(cc, sc)
        assert moved == []
        assert after == before
        assert cc.stats.reassignments == 0

    def test_threshold_monotone_in_moves(self):
        """Raising the hysteresis bar never increases the move count."""
        moves = []
        for threshold in (0.0, 1.0, 5.0, 50.0):
            cc, sc = _loaded_controller(np.random.default_rng(7),
                                        min_gain_mbps=threshold)
            moves.append(len(_reconfigure(cc, sc)[0]))
        assert moves == sorted(moves, reverse=True)

    def test_every_move_is_a_counted_handoff(self, rng):
        cc, sc = _loaded_controller(rng, min_gain_mbps=0.5)
        moved, _, _ = _reconfigure(cc, sc)
        assert cc.stats.reassignments == len(moved)

    def test_second_reconfigure_is_stable(self, rng):
        cc, sc = _loaded_controller(rng, min_gain_mbps=0.0)
        cc.reconfigure()
        _, before, after = _reconfigure(cc, sc)
        # No strictly-improving moves should remain at zero threshold
        # beyond numerical dust.
        assert after - before <= max(1e-6, 0.01 * before)

    def test_failed_rehome_is_scored_as_detached(self):
        """A client whose re-park handoff failed still sits on an
        extender its newest report cannot hear; the bar scores it as
        detached instead of raising."""

        class _RefuseHandoffs(Transport):
            def handoff_succeeds(self, directive):
                return False

        cc = CentralController([60.0, 20.0], transport=_RefuseHandoffs(),
                               min_gain_mbps=1.0)
        cc.receive_scan_report(ScanReport(1, np.array([15.0, 10.0])))
        cc.receive_scan_report(ScanReport(1, np.array([0.0, 10.0])))
        assert cc.associations == {1: 0}
        cc.reconfigure()
        assert cc.stats.failed_handoffs == 2
        assert cc.associations == {1: 0}


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
        parked = np.array([1, 0])  # admission parks on argmax WiFi
        assert not np.array_equal(target, parked), \
            "precondition: the tie point must separate target from parking"
        for reconfigure in (CentralController.reconfigure,
                            reconfigure_batch):
            cc = CentralController(scenario.plc_rates, min_gain_mbps=0.0)
            _admit(cc, scenario)
            assert [cc.associations[u] for u in (0, 1)] == [1, 0]
            moved, _, after = _reconfigure(cc, scenario, reconfigure)
            assert moved == [0, 1]
            assert [cc.associations[u] for u in (0, 1)] == \
                target.tolist()
            assert after == evaluate(scenario, target).aggregate

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_zero_threshold_is_vanilla_wolt(self, seed):
        """min_gain 0 adopts the complete fresh WOLT target, exactly."""
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, 14, 4)
        cc = CentralController(sc.plc_rates, min_gain_mbps=0.0)
        _admit(cc, sc)
        cc.reconfigure()
        target = solve_wolt(sc).assignment
        adopted = np.array([cc.associations[uid]
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
        1.4e-14 short and the loop stops after one move.  (Directives
        go out in user order, so the test checks that both replayed
        users moved.)
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
        cc = CentralController(scenario.plc_rates,
                               min_gain_mbps=exact_second_gain)
        _admit(cc, scenario)
        moved, _, _ = _reconfigure(cc, scenario)
        assert len(moved) >= 2
        assert {steps[0][0], steps[1][0]} <= set(moved)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            CentralController([100.0], min_gain_mbps=-1.0)
        with pytest.raises(ValueError):
            CentralController([], min_gain_mbps=1.0)

    @pytest.mark.parametrize("policy", ["rssi", "greedy", "wolt"])
    @pytest.mark.parametrize("plc", [[-1.0, 20.0], [np.nan, 20.0]])
    def test_bad_plc_rates_rejected_at_construction(self, policy, plc):
        """The offline PLC measurements meet the bar every solve
        scenario applies, for every policy, before any report."""
        with pytest.raises(ValueError, match="plc_rates"):
            CentralController(plc, policy=policy)

    def test_hysteresis_excludes_health(self):
        with pytest.raises(ValueError, match="min_gain_mbps"):
            CentralController([100.0], min_gain_mbps=1.0,
                              health=HealthMonitor(1))
        # At the zero threshold the monitor stays available.
        CentralController([100.0], health=HealthMonitor(1))

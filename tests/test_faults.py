"""Tests for the seeded fault-injection layer (repro.sim.faults).

Covers the FaultModel contract, the lossy transport's effect on the
Central Controller (drops, retries, failed handoffs, graceful
degradation), the shared control-plane episode runner, the epoch driver
under brown-outs, and the trial runner's retry-and-WorkFailure path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import (CentralController, ScanReport,
                                   Transport)
from repro.core.problem import UNASSIGNED, fail_extenders
from repro.core.wolt import solve_wolt
from repro.experiments.common import run_episode
from repro.net.engine import evaluate
from repro.sim.dispatch import WorkFailure
from repro.sim.failures import drive_control_plane, settle_clients
from repro.sim.faults import (CrashSchedule, FaultModel,
                              FaultyTransport, InjectedCrash)
from repro.sim.runner import TrialResult, run_trials

from .conftest import random_scenario


def _report(uid: int, rates) -> ScanReport:
    return ScanReport(user_id=uid, wifi_rates=np.asarray(rates, float))


def _transport(rng_seed: int = 0, **model_kwargs) -> FaultyTransport:
    return FaultyTransport(FaultModel(**model_kwargs),
                           np.random.default_rng(rng_seed))


class TestFaultModel:
    def test_defaults_are_faultless(self):
        model = FaultModel()
        assert model.report_drop_prob == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"report_drop_prob": -0.1},
        {"directive_drop_prob": 1.5},
        {"handoff_failure_prob": 2.0},
        {"rate_noise_fraction": -1.0},
        {"max_retries": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)


class TestFaultyTransport:
    def test_faultless_model_is_lossless(self):
        transport = _transport()
        report = _report(1, [10.0, 0.0, 20.0])
        observed = transport.observe_report(report)
        assert np.array_equal(observed.wifi_rates, report.wifi_rates)
        assert transport.deliver_directive(None) is True
        assert transport.handoff_succeeds(None) is True

    def test_deterministic_for_fixed_seed(self):
        kwargs = dict(report_drop_prob=0.5, directive_drop_prob=0.5)
        a = _transport(3, **kwargs)
        b = _transport(3, **kwargs)
        pattern_a = [a.deliver_directive(None) for _ in range(50)]
        pattern_b = [b.deliver_directive(None) for _ in range(50)]
        assert pattern_a == pattern_b
        assert not all(pattern_a) and any(pattern_a)

    def test_rate_noise_preserves_reachability(self):
        transport = _transport(1, rate_noise_fraction=0.4)
        observed = transport.observe_report(_report(1, [10.0, 0.0, 20.0]))
        assert observed.wifi_rates[1] == 0.0
        assert observed.wifi_rates[0] > 0 and observed.wifi_rates[2] > 0
        assert not np.array_equal(observed.wifi_rates, [10.0, 0.0, 20.0])


class _ScriptedTransport(Transport):
    """Delivery attempts succeed per a scripted list (True/False)."""

    def __init__(self, script, max_retries=2, handoffs_ok=True):
        self.script = list(script)
        self.max_retries = max_retries
        self.handoffs_ok = handoffs_ok

    def deliver_directive(self, directive):
        return self.script.pop(0) if self.script else True

    def handoff_succeeds(self, directive):
        return self.handoffs_ok


class TestControllerUnderFaults:
    def test_dropped_report_never_reaches_cc(self):
        cc = CentralController(
            [60.0, 20.0],
            transport=_transport(0, report_drop_prob=1.0))
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        assert cc.stats.dropped_reports == 1
        assert cc.associations == {}

    def test_dropped_directive_falls_back_to_strongest_rssi(self):
        cc = CentralController(
            [60.0, 20.0], policy="greedy",
            transport=_transport(0, directive_drop_prob=1.0,
                                 max_retries=1))
        cc.receive_scan_report(_report(1, [10.0, 25.0]))
        # Every attempt (1 send + 1 retry) was lost; the client camps on
        # its strongest-RSSI extender (index 1).
        assert cc.stats.dropped_directives == 1
        assert cc.stats.retries == 1
        assert cc.associations == {1: 1}

    def test_retry_recovers_from_transient_loss(self):
        transport = _ScriptedTransport([False, False, True])
        cc = CentralController([60.0, 20.0], transport=transport)
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        assert cc.stats.retries == 2
        assert cc.stats.dropped_directives == 0
        assert cc.associations == {1: 0}

    def test_failed_handoff_keeps_previous_extender(self):
        transport = _ScriptedTransport([], handoffs_ok=False)
        cc = CentralController([60.0, 20.0], policy="wolt",
                               transport=transport)
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        before = cc.associations
        cc.reconfigure()  # Fig. 3 optimum wants to move user 1
        assert cc.stats.failed_handoffs == 1
        assert cc.stats.reassignments == 0
        assert cc.associations == before

    def test_reliable_transport_unchanged_stats(self):
        cc = CentralController([60.0, 20.0], policy="wolt")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        cc.reconfigure()
        assert cc.stats.dropped_reports == 0
        assert cc.stats.dropped_directives == 0
        assert cc.stats.retries == 0
        assert cc.stats.failed_handoffs == 0


def _score(sc, assignment) -> float:
    return float(evaluate(sc, assignment, plc_mode="fixed").aggregate)


class TestRunEpisode:
    """One lossy admission + reconfiguration epoch through the shared
    episode runner, scored on the clean scenario."""

    def _scenario(self, seed=0, n_users=10, n_extenders=4):
        return random_scenario(np.random.default_rng(seed), n_users,
                               n_extenders)

    def _episode(self, sc, model, seed=0):
        cc = CentralController(sc.plc_rates, policy="wolt",
                               transport=FaultyTransport(
                                   model, np.random.default_rng(seed)))
        aggregate, crashes = run_episode(
            cc, [(sc, sc.wifi_rates, None)], "fixed")
        return cc, aggregate, crashes

    def test_faultless_wolt_matches_solver(self):
        sc = self._scenario()
        cc, aggregate, crashes = self._episode(sc, FaultModel())
        solved = solve_wolt(sc).assignment
        assert not np.any(solved == UNASSIGNED)
        assert cc.associations == dict(enumerate(solved.tolist()))
        assert aggregate == _score(sc, solved)
        assert crashes == 0

    def test_total_loss_degrades_to_rssi_parking(self):
        sc = self._scenario()
        model = FaultModel(directive_drop_prob=1.0,
                           handoff_failure_prob=1.0)
        cc, aggregate, _ = self._episode(sc, model)
        rssi = np.argmax(sc.wifi_rates, axis=1)
        assert np.array_equal(settle_clients(sc, cc.associations), rssi)
        assert aggregate == _score(sc, rssi)

    def test_deterministic_for_fixed_seed(self):
        sc = self._scenario()
        model = FaultModel(report_drop_prob=0.3,
                           directive_drop_prob=0.3,
                           handoff_failure_prob=0.3,
                           rate_noise_fraction=0.2)
        a = self._episode(sc, model, seed=7)
        b = self._episode(sc, model, seed=7)
        assert a[0].associations == b[0].associations
        assert a[0].stats == b[0].stats
        assert a[1:] == b[1:]

    def test_controller_value_error_counts_as_a_crash(self):
        sc = self._scenario()
        cc = CentralController(sc.plc_rates, policy="wolt")
        poisoned = sc.wifi_rates.copy()
        poisoned[3, 0] = np.nan
        clean = (sc, sc.wifi_rates, None)
        aggregate, crashes = run_episode(
            cc, [clean, (sc, poisoned, None)], "fixed")
        assert crashes == 1
        # Clients keep the associations held at the raise.
        solved = solve_wolt(sc).assignment
        assert cc.associations == dict(enumerate(solved.tolist()))
        assert aggregate == _score(sc, solved)

    def test_no_controller_is_rssi_camping(self):
        sc = self._scenario()
        aggregate, crashes = run_episode(
            None, [(sc, sc.wifi_rates, None)], "fixed")
        rssi = np.argmax(sc.wifi_rates, axis=1)
        assert (aggregate, crashes) == (_score(sc, rssi), 0)


class TestDriveControlPlane:
    """The epoch driver under explicit brown-out epochs."""

    def _drive(self, sc, brownouts, model=None):
        """Drive one epoch per entry of ``brownouts`` (dead extenders)
        and settle the clients on the last epoch's live network."""
        epochs = []
        for dead in brownouts:
            live = fail_extenders(sc, dead, allow_all_failed=True)
            epochs.append((live, live.wifi_rates, None))
        cc = CentralController(
            sc.plc_rates, policy="rssi",
            transport=FaultyTransport(model or FaultModel(),
                                      np.random.default_rng(0)))
        drive_control_plane(cc, epochs)
        live = epochs[-1][0]
        return live, settle_clients(live, cc.associations), cc

    def _scenario(self, seed=0, n_users=10, n_extenders=4):
        return random_scenario(np.random.default_rng(seed), n_users,
                               n_extenders)

    def test_brownout_moves_clients_off_dead_extender(self):
        sc = self._scenario()
        live, assignment, _ = self._drive(sc, [(), (0,)])
        assert not np.any(assignment == 0)
        assert np.all(live.wifi_rates[:, 0] == 0.0)
        assert live.plc_rates[0] == 0.0

    def test_brownout_with_dropped_rereports_still_reassociates(self):
        # Even when every epoch-1 re-report is lost, physics moves the
        # orphans to their strongest survivor (reassociate_orphans).
        sc = self._scenario()
        _, assignment, cc = self._drive(
            sc, [(), (0,)], FaultModel(report_drop_prob=1.0))
        assert cc.stats.dropped_reports == 2 * sc.n_users
        assert cc.associations == {}
        assert not np.any(assignment == 0)
        survivors = sc.wifi_rates[:, 1:]
        expected = 1 + np.argmax(survivors, axis=1)
        assert np.array_equal(assignment, expected)

    def test_total_blackout_goes_offline(self):
        sc = self._scenario(n_extenders=2)
        _, assignment, cc = self._drive(sc, [(0, 1)])
        # Nobody hears an extender, so nobody reports.
        assert cc.associations == {}
        assert np.all(assignment == UNASSIGNED)

    def test_deaf_users_leave_and_rejoin(self):
        """A client that hears no live extender has left the WLAN: the
        CC forgets it, and re-admits it once an extender is back."""
        sc = self._scenario(n_extenders=2)
        _, _, cc = self._drive(sc, [(), (0, 1)])
        assert cc.associations == {}
        _, assignment, cc = self._drive(sc, [(), (0, 1), (1,)])
        assert cc.associations == {u: 0 for u in range(sc.n_users)}
        assert np.all(assignment == 0)

    def test_plc_reading_is_fed_before_reports(self):
        sc = self._scenario()
        cc = CentralController(sc.plc_rates)
        bad = sc.plc_rates.copy()
        bad[0] = np.nan
        # The unguarded controller rejects the poisoned reading before
        # any report is sent.
        with pytest.raises(ValueError, match="PLC telemetry"):
            drive_control_plane(cc, [(sc, sc.wifi_rates, bad)])
        assert cc.associations == {}


class TestCrashSchedule:
    def test_raises_for_scheduled_attempts_only(self):
        schedule = CrashSchedule({2: 2})
        schedule(0, 0)  # unscheduled trial: no-op
        with pytest.raises(InjectedCrash):
            schedule(2, 0)
        with pytest.raises(InjectedCrash):
            schedule(2, 1)
        schedule(2, 2)  # budget spent: succeeds

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule({0: -1})

    def test_scheduled_hang_sleeps_for_budgeted_attempts(self,
                                                        monkeypatch):
        naps = []
        monkeypatch.setattr("repro.sim.faults.time.sleep", naps.append)
        schedule = CrashSchedule({}, hangs={1: 1}, hang_s=7.5)
        schedule(0, 0)  # unscheduled trial: no-op
        schedule(1, 0)  # first attempt hangs
        schedule(1, 1)  # budget spent: succeeds
        assert naps == [7.5]

    def test_negative_hang_counts_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule({}, hangs={0: -1})


SCALE = dict(n_extenders=4, n_users=8, seed=424242)


class TestRunTrialsFaultTolerance:
    def test_transient_crash_retried_to_identical_result(self):
        clean = run_trials(3, policies=("rssi",), **SCALE)
        faulty = run_trials(3, policies=("rssi",), max_retries=2,
                            fault_hook=CrashSchedule({1: 2}), **SCALE)
        assert all(isinstance(t, TrialResult) for t in faulty)
        for a, b in zip(clean, faulty):
            assert np.array_equal(a.scenario.wifi_rates,
                                  b.scenario.wifi_rates)
            assert np.array_equal(a.outcomes["rssi"].assignment,
                                  b.outcomes["rssi"].assignment)

    def test_exhausted_trial_becomes_trial_failure(self):
        results = run_trials(4, policies=("rssi",), max_retries=2,
                             fault_hook=CrashSchedule({2: 99}), **SCALE)
        assert isinstance(results[2], WorkFailure)
        assert results[2].index == 2
        assert results[2].attempts == 3
        assert results[2].error_type == "InjectedCrash"
        for index in (0, 1, 3):
            assert isinstance(results[index], TrialResult)

    def test_failure_bit_identical_across_worker_counts(self):
        kwargs = dict(policies=("wolt", "rssi"), max_retries=1,
                      fault_hook=CrashSchedule({0: 1, 2: 99}), **SCALE)
        serial = run_trials(4, **kwargs)
        parallel = run_trials(4, workers=3, **kwargs)
        assert [type(t) for t in serial] == [type(t) for t in parallel]
        assert isinstance(serial[2], WorkFailure)
        assert parallel[2] == serial[2]
        for a, b in zip(serial, parallel):
            if isinstance(a, WorkFailure):
                continue
            for policy in a.outcomes:
                assert np.array_equal(a.outcomes[policy].assignment,
                                      b.outcomes[policy].assignment)
                assert (a.outcomes[policy].aggregate_throughput
                        == b.outcomes[policy].aggregate_throughput)

    def test_max_retries_zero_still_captures_failures(self):
        results = run_trials(2, policies=("rssi",), max_retries=0,
                             fault_hook=CrashSchedule({0: 1}), **SCALE)
        assert isinstance(results[0], WorkFailure)
        assert results[0].attempts == 1
        assert isinstance(results[1], TrialResult)

    def test_legacy_mode_still_propagates(self):
        with pytest.raises(InjectedCrash):
            run_trials(2, policies=("rssi",),
                       fault_hook=CrashSchedule({0: 1}), **SCALE)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            run_trials(1, policies=("rssi",), max_retries=-1, **SCALE)


class TestRngIsolationRegression:
    """A policy's stream must not depend on its co-runners (bugfix)."""

    def test_random_identical_alone_and_with_others(self):
        alone = run_trials(3, policies=("random",), **SCALE)
        together = run_trials(3, policies=("wolt", "greedy", "rssi",
                                           "random"), **SCALE)
        for a, b in zip(alone, together):
            oa, ob = a.outcomes["random"], b.outcomes["random"]
            assert np.array_equal(oa.assignment, ob.assignment)
            assert oa.aggregate_throughput == ob.aggregate_throughput
            assert np.array_equal(oa.user_throughputs,
                                  ob.user_throughputs)

    def test_greedy_identical_alone_and_with_others(self):
        alone = run_trials(3, policies=("greedy",), **SCALE)
        together = run_trials(3, policies=("greedy", "random"), **SCALE)
        for a, b in zip(alone, together):
            assert np.array_equal(a.outcomes["greedy"].assignment,
                                  b.outcomes["greedy"].assignment)

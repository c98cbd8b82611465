"""Tests for the Central Controller protocol emulation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.controller import CentralController, ScanReport
from repro.core.health import HealthMonitor
from repro.core.problem import Scenario
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate

from .conftest import random_scenario


def _report(uid: int, rates) -> ScanReport:
    return ScanReport(user_id=uid, wifi_rates=np.asarray(rates, float))


def _fig3_aggregate(cc) -> float:
    """Aggregate of users 1 and 2's associations on the Fig. 3 network."""
    scenario = Scenario(wifi_rates=np.array([[15.0, 10.0], [40.0, 20.0]]),
                        plc_rates=np.array([60.0, 20.0]))
    return evaluate(scenario, [cc.associations[1],
                               cc.associations[2]]).aggregate


class TestAdmission:
    def test_rssi_and_wolt_park_on_strongest(self):
        for policy in ("rssi", "wolt"):
            cc = CentralController([60.0, 20.0], policy=policy)
            cc.receive_scan_report(_report(1, [15.0, 10.0]))
            assert cc.associations == {1: 0}

    def test_greedy_places_for_aggregate(self):
        cc = CentralController([60.0, 20.0], policy="greedy")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        # Fig. 3c: user 2 greedily prefers extender 2.
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        assert cc.associations[2] == 1

    def test_scan_must_cover_every_extender(self):
        cc = CentralController([60.0, 20.0])
        with pytest.raises(ValueError):
            cc.receive_scan_report(_report(1, [15.0]))

    def test_deaf_user_rejected(self):
        cc = CentralController([60.0])
        with pytest.raises(ValueError, match="hears no extender"):
            cc.receive_scan_report(_report(1, [0.0]))

    def test_rereport_keeps_existing_association(self):
        # A periodic re-scan from an already-placed client must not
        # trigger a spurious handoff while its extender is reachable.
        cc = CentralController([60.0, 20.0], policy="wolt")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        cc.reconfigure()  # user 1 moves to extender 1 (Fig. 3 optimum)
        stats = replace(cc.stats)
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        assert cc.associations[1] == 1
        assert cc.stats == stats
        # The refreshed estimates are still adopted for the next solve.
        cc.reconfigure()
        assert cc.stats == stats

    def test_rereport_reparks_when_extender_unreachable(self):
        cc = CentralController([60.0, 20.0], policy="rssi")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        assert cc.associations[1] == 0
        # Extender 0 went silent for this client: re-admit afresh.
        cc.receive_scan_report(_report(1, [0.0, 10.0]))
        assert cc.associations[1] == 1
        assert cc.stats.reassignments == 1

    def test_initial_placements_are_not_reassignments(self):
        cc = CentralController([60.0, 20.0])
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        assert cc.associations == {1: 0, 2: 0}
        assert cc.stats.reassignments == 0


class TestReconfigure:
    def test_wolt_reconfigure_reaches_fig3_optimum(self):
        cc = CentralController([60.0, 20.0], policy="wolt")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        cc.reconfigure()
        # Both users start on extender 1 (their strongest).  The optimum
        # keeps user 2 there and moves only user 1 to extender 2.
        assert cc.associations == {1: 1, 2: 0}
        assert _fig3_aggregate(cc) == pytest.approx(40.0)
        assert cc.stats.reassignments == 1

    def test_non_wolt_reconfigure_is_noop(self):
        for policy in ("greedy", "rssi"):
            cc = CentralController([60.0, 20.0], policy=policy)
            cc.receive_scan_report(_report(1, [15.0, 10.0]))
            cc.reconfigure()
            assert cc.associations == {1: 0}
            assert cc.stats.reassignments == 0

    def test_stable_reconfigure_sends_nothing(self):
        cc = CentralController([60.0, 20.0], policy="wolt")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        cc.reconfigure()
        stats = replace(cc.stats)
        # Second pass with no changes: no directives, no handoffs.
        cc.reconfigure()
        assert cc.associations == {1: 1, 2: 0}
        assert cc.stats == stats

    def test_empty_controller_reconfigure(self):
        cc = CentralController([60.0])
        cc.reconfigure()
        assert cc.associations == {}

    def test_guarded_cc_issues_the_unguarded_directives(self):
        """On clean reports telemetry sanitation changes nothing: a CC
        with a health monitor lands every user where one without does,
        which is where solve_wolt puts it."""
        sc = random_scenario(np.random.default_rng(3), 10, 4,
                             reachable_prob=0.6)
        plain = CentralController(sc.plc_rates)
        guarded = CentralController(sc.plc_rates,
                                    health=HealthMonitor(sc.n_extenders))
        for cc in (plain, guarded):
            for user in range(sc.n_users):
                cc.receive_scan_report(_report(user, sc.wifi_rates[user]))
            cc.reconfigure()
        assert guarded.associations == plain.associations
        assert [plain.associations[u] for u in range(sc.n_users)] == \
            solve_wolt(sc).assignment.tolist()
        assert guarded.stats == plain.stats


class TestDisconnect:
    def test_disconnect_removes_user(self):
        cc = CentralController([60.0, 20.0])
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.disconnect(1)
        assert cc.associations == {}
        cc.disconnect(99)  # unknown id is a no-op

    def test_disconnect_then_reconfigure_serves_remaining_users(self):
        cc = CentralController([60.0, 20.0], policy="wolt")
        cc.receive_scan_report(_report(1, [15.0, 10.0]))
        cc.receive_scan_report(_report(2, [40.0, 20.0]))
        cc.reconfigure()
        cc.disconnect(1)
        assert list(cc.associations) == [2]
        # The departed client leaves no stale report behind: the solve
        # covers only user 2, who stays on its best extender.
        moves = cc.stats.reassignments
        cc.reconfigure()
        assert cc.associations == {2: 0}
        assert cc.stats.reassignments == moves



class TestValidation:
    def test_bad_policy(self):
        with pytest.raises(ValueError):
            CentralController([60.0], policy="magic")

    def test_bad_plc_rates(self):
        with pytest.raises(ValueError):
            CentralController([])

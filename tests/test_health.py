"""Tests for the HealthMonitor quarantine state machine and its
integration with the CentralController (stale-report TTL, telemetry
sanitation, quarantine masking)."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import CentralController, ScanReport
from repro.core.health import HealthEvent, HealthMonitor
from repro.core.problem import Scenario, fail_extenders
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate
from repro.sim.failures import settle_clients

from .conftest import max_examples, random_scenario


class TestQuarantineTriggers:
    def test_nonfinite_capacity_quarantines(self):
        hm = HealthMonitor(3)
        events = hm.observe([100.0, np.nan, 100.0])
        assert hm.quarantined.tolist() == [False, True, False]
        assert events == (HealthEvent(epoch=0, extender=1,
                                      event="quarantine",
                                      reason="nonfinite-capacity"),)
        assert hm.quarantined_extenders() == (1,)

    def test_zero_capacity_only_suspect_under_traffic(self):
        hm = HealthMonitor(2)
        # Zero with no traffic: an idle link, not a sick one.
        assert hm.observe([0.0, 50.0],
                          carrying_traffic=[False, False]) == ()
        assert not hm.quarantined.any()
        events = hm.observe([0.0, 50.0], carrying_traffic=[True, False])
        assert hm.is_quarantined(0)
        assert events[-1].reason == "zero-capacity-under-traffic"

    def test_flapping_needs_consecutive_strikes(self):
        hm = HealthMonitor(2, flap_band=0.5, flap_strikes=2)
        hm.observe([100.0, 100.0])
        hm.observe([10.0, 100.0])   # strike 1 for extender 0
        assert not hm.is_quarantined(0)
        events = hm.observe([100.0, 100.0])  # strike 2 -> quarantine
        assert hm.is_quarantined(0)
        assert events[-1].reason == "capacity-flapping"
        assert not hm.is_quarantined(1)

    def test_single_swing_is_not_flapping(self):
        hm = HealthMonitor(1, flap_strikes=2)
        hm.observe([100.0])
        hm.observe([10.0])   # one legitimate capacity change
        hm.observe([10.0])   # settles -> counter resets
        hm.observe([10.0])
        assert not hm.is_quarantined(0)

    def test_last_healthy_extender_never_quarantined(self):
        hm = HealthMonitor(2)
        hm.observe([np.nan, 100.0])
        assert hm.quarantined_extenders() == (0,)
        events = hm.observe([np.nan, np.nan])
        assert hm.quarantined_extenders() == (0,)
        assert events == (HealthEvent(epoch=1, extender=1,
                                      event="quarantine-skipped",
                                      reason="nonfinite-capacity"),)


class TestProbation:
    def test_readmission_after_clean_streak(self):
        hm = HealthMonitor(2, probation_epochs=2)
        hm.observe([np.nan, 100.0])
        hm.observe([80.0, 100.0])
        assert hm.is_quarantined(0)  # one clean epoch is not enough
        events = hm.observe([80.0, 100.0])
        assert not hm.is_quarantined(0)
        assert events == (HealthEvent(epoch=2, extender=0,
                                      event="readmit",
                                      reason="probation-complete"),)

    def test_suspect_epoch_resets_probation(self):
        hm = HealthMonitor(2, probation_epochs=2)
        hm.observe([np.nan, 100.0])
        hm.observe([80.0, 100.0])
        hm.observe([np.nan, 100.0])  # relapse
        hm.observe([80.0, 100.0])
        assert hm.is_quarantined(0)  # streak restarted
        hm.observe([80.0, 100.0])
        assert not hm.is_quarantined(0)


class TestBoundedMemory:
    def test_flapping_for_1000_epochs_retains_nothing(self):
        """A long-lived service observes every epoch: the monitor keeps
        no per-transition log, so a link flapping in and out of
        quarantine for 1000 epochs leaves it no bigger than 10 did."""
        hm = HealthMonitor(2, probation_epochs=1)
        flapping = ([np.nan, 100.0], [100.0, 100.0])

        def drive(epochs: int) -> None:
            for epoch in range(epochs):
                hm.observe(flapping[epoch % 2])
                assert hm.is_quarantined(0) == (epoch % 2 == 0)

        drive(2)  # first-use allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            drive(10)
            after_10 = tracemalloc.get_traced_memory()[0] - base
            drive(990)
            after_1000 = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # The slack covers the epoch counter outgrowing Python's
        # small-int cache; a log of 990 transitions held ~140 KB.
        assert after_1000 <= max(after_10, 0) + 256, (after_10,
                                                        after_1000)


class TestEffectiveRates:
    def test_last_known_good_fallback(self):
        hm = HealthMonitor(3)
        hm.observe([100.0, 60.0, 40.0])
        rates = hm.effective_rates([np.nan, -5.0, 45.0])
        assert rates.tolist() == [100.0, 60.0, 45.0]

    def test_no_history_falls_to_zero(self):
        hm = HealthMonitor(1)
        assert hm.effective_rates([np.inf]).tolist() == [0.0]

    def test_zero_under_traffic_never_becomes_fallback(self):
        """Regression: a damning observation must not enter _last_good.

        Pre-fix, the zero-capacity-under-traffic reading that
        *quarantined* extender 0 also became its last-known-good value
        (``rates[j] >= 0`` includes 0), so ``effective_rates`` fell
        back to 0.0 and permanently starved the extender even after
        telemetry went garbage-only.
        """
        hm = HealthMonitor(3)
        hm.observe([80.0, 60.0, 40.0])
        # The damning epoch: extender 0 reads zero while carrying
        # traffic — quarantined, and the reading must be distrusted.
        hm.observe([0.0, 60.0, 40.0],
                   carrying_traffic=[True, False, False])
        assert hm.quarantined.tolist() == [True, False, False]
        rates = hm.effective_rates([np.nan, 60.0, 40.0])
        assert rates.tolist() == [80.0, 60.0, 40.0]

    def test_flapping_strike_never_becomes_fallback(self):
        """A capacity-flapping epoch is suspect, not last-known-good."""
        hm = HealthMonitor(2, flap_band=0.5, flap_strikes=2)
        hm.observe([100.0, 50.0])
        hm.observe([10.0, 50.0])   # strike 1: a single swing is clean
        events = hm.observe([100.0, 50.0])  # strike 2: flapping
        assert hm.is_quarantined(0)
        assert events[-1].reason == "capacity-flapping"
        # The strike-2 reading (judged flapping) must not displace the
        # last clean observation — the strike-1 epoch's 10.0, which the
        # state machine itself deemed a legitimate capacity change.
        assert hm.effective_rates([np.nan, 50.0]).tolist() == [10.0,
                                                               50.0]

    def test_clean_zero_without_traffic_is_good(self):
        """An idle link legitimately reading zero stays trustworthy."""
        hm = HealthMonitor(2)
        hm.observe([0.0, 60.0], carrying_traffic=[False, False])
        assert not hm.quarantined.any()
        assert hm.effective_rates([np.nan, 60.0]).tolist() == [0.0, 60.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(0)
        with pytest.raises(ValueError):
            HealthMonitor(2, flap_band=0.0)
        with pytest.raises(ValueError):
            HealthMonitor(2, probation_epochs=0)
        with pytest.raises(ValueError):
            HealthMonitor(2).observe([1.0])
        with pytest.raises(ValueError):
            HealthMonitor(2).effective_rates([1.0, 2.0, 3.0])


#: Capacity reports that exercise every branch of the state machine:
#: probe failures, zeros, and values far enough apart to flap.
_REPORTS = st.sampled_from([np.nan, np.inf, 0.0, -1.0, 5.0, 40.0, 41.0,
                            120.0])


class TestStateRoundTrip:
    def _assert_same(self, got: HealthMonitor, want: HealthMonitor) -> None:
        assert got.epoch == want.epoch
        for name in ("_quarantined", "_flap_count", "_clean_streak",
                     "_last_seen", "_last_good"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @given(n=st.integers(2, 4), data=st.data(),
           flap_strikes=st.integers(1, 3), probation=st.integers(1, 3))
    @settings(max_examples=max_examples(60), deadline=None)
    def test_restored_monitor_continues_bit_identically(
            self, n, data, flap_strikes, probation):
        epochs = data.draw(st.lists(
            st.tuples(st.lists(_REPORTS, min_size=n, max_size=n),
                      st.lists(st.booleans(), min_size=n, max_size=n)),
            min_size=1, max_size=10))
        split = data.draw(st.integers(0, len(epochs)))

        def fresh():
            return HealthMonitor(n, flap_strikes=flap_strikes,
                                 probation_epochs=probation)

        straight, first = fresh(), fresh()
        for rates, traffic in epochs[:split]:
            straight.observe(rates, traffic)
            first.observe(rates, traffic)
        # Strict JSON: NaN must travel as null.
        text = json.dumps(first.state(), allow_nan=False)
        restored = fresh()
        restored.restore(json.loads(text), first.quarantined_extenders())
        self._assert_same(restored, straight)
        for rates, traffic in epochs[split:]:
            assert (restored.observe(rates, traffic)
                    == straight.observe(rates, traffic))
            assert (restored.quarantined.tobytes()
                    == straight.quarantined.tobytes())
            assert (restored.effective_rates(rates).tobytes()
                    == straight.effective_rates(rates).tobytes())
        self._assert_same(restored, straight)

    def test_nan_is_null(self):
        hm = HealthMonitor(3)
        hm.observe([np.nan, 10.0, 0.0], carrying_traffic=[False, False,
                                                          True])
        state = hm.state()
        assert state == {"observations": 1, "flap_count": [0, 0, 0],
                         "clean_streak": [0, 0, 0],
                         "last_seen": [None, 10.0, 0.0],
                         "last_good": [None, 10.0, None]}
        restored = HealthMonitor(3)
        restored.restore(state, hm.quarantined_extenders())
        assert restored.quarantined_extenders() == (0, 2)
        assert np.isnan(restored._last_good[[0, 2]]).all()

    def test_restore_rejects_a_short_state(self):
        state = HealthMonitor(2).state()
        with pytest.raises(ValueError, match="every extender"):
            HealthMonitor(3).restore(state, ())

    @pytest.mark.parametrize("quarantined", [[-1], [3], [0, -3]])
    def test_restore_rejects_a_stranger_in_quarantine(self, quarantined):
        # A negative index would silently quarantine from the end.
        monitor = HealthMonitor(3)
        with pytest.raises(ValueError, match="out of range"):
            monitor.restore(HealthMonitor(3).state(), quarantined)
        assert monitor.quarantined_extenders() == ()


class TestControllerTelemetry:
    """update_plc_telemetry with and without a HealthMonitor."""

    def test_unguarded_rejects_nonfinite(self):
        cc = CentralController([50.0, 60.0])
        with pytest.raises(ValueError):
            cc.update_plc_telemetry([np.nan, 60.0])
        cc.update_plc_telemetry([40.0, 70.0])
        assert cc.plc_rates.tolist() == [40.0, 70.0]

    def test_health_monitor_absorbs_nonfinite(self):
        cc = CentralController([50.0, 60.0], health=HealthMonitor(2))
        cc.update_plc_telemetry([40.0, 70.0])
        cc.update_plc_telemetry([np.nan, 70.0])
        # NaN falls back to last known good; extender quarantined.
        assert cc.plc_rates.tolist() == [40.0, 70.0]
        assert cc.health.is_quarantined(0)

    def test_transitions_are_counted(self):
        health = HealthMonitor(2, probation_epochs=2)
        cc = CentralController([50.0, 60.0], health=health)
        cc.update_plc_telemetry([np.nan, 60.0])   # quarantine
        cc.update_plc_telemetry([np.nan, np.nan])  # skipped: last one
        assert (cc.stats.quarantines, cc.stats.readmits) == (1, 0)
        cc.update_plc_telemetry([50.0, 60.0])
        cc.update_plc_telemetry([50.0, 60.0])     # probation complete
        assert (cc.stats.quarantines, cc.stats.readmits) == (1, 1)

    def test_health_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CentralController([50.0, 60.0], health=HealthMonitor(3))


class TestControllerScanSanitation:
    def test_unguarded_rejects_nan_report(self):
        cc = CentralController([50.0, 60.0])
        with pytest.raises(ValueError):
            cc.receive_scan_report(
                ScanReport(0, np.array([np.nan, 30.0])))

    def test_guarded_sanitizes_with_last_known_good(self):
        cc = CentralController([50.0, 60.0], health=HealthMonitor(2))
        cc.receive_scan_report(ScanReport(0, np.array([20.0, 30.0])))
        cc.receive_scan_report(
            ScanReport(0, np.array([np.nan, 35.0])))
        assert cc.stats.sanitized_reports == 1
        # The cached report carries the fallback, not the NaN.
        cached = cc._reports[0].wifi_rates
        assert cached.tolist() == [20.0, 35.0]

    def test_guarded_ignores_fully_poisoned_first_report(self):
        cc = CentralController([50.0, 60.0], health=HealthMonitor(2))
        out = cc.receive_scan_report(
            ScanReport(0, np.array([np.nan, np.nan])))
        assert out is None
        assert 0 not in cc.associations


class TestReportTTL:
    def _drive(self, ttl):
        rng = np.random.default_rng(3)
        sc = random_scenario(rng, 6, 3)
        cc = CentralController(sc.plc_rates,
                               health=HealthMonitor(sc.n_extenders),
                               report_ttl_epochs=ttl)
        for user in range(sc.n_users):
            cc.receive_scan_report(
                ScanReport(user, sc.wifi_rates[user]))
        return sc, cc

    def test_fresh_reports_all_solved(self):
        _, cc = self._drive(ttl=2)
        cc.reconfigure()
        assert cc.stats.stale_reports == 0

    def test_stale_users_keep_last_association(self):
        sc, cc = self._drive(ttl=1)
        cc.reconfigure()
        placed = dict(cc.associations)
        # Nobody re-reports: after two more epochs every report has
        # expired — the users keep their associations and are counted.
        cc.reconfigure()
        cc.reconfigure()
        assert cc.stats.stale_reports > 0
        assert cc.associations == placed

    def test_rereport_refreshes_ttl(self):
        sc, cc = self._drive(ttl=1)
        cc.reconfigure()
        for user in range(sc.n_users):
            cc.receive_scan_report(
                ScanReport(user, sc.wifi_rates[user]))
        cc.reconfigure()
        assert cc.stats.stale_reports == 0

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            CentralController([50.0], report_ttl_epochs=0)

    def test_no_ttl_keeps_legacy_behaviour(self):
        sc, cc = self._drive(ttl=None)
        for _ in range(5):
            cc.reconfigure()
        assert cc.stats.stale_reports == 0


class TestQuarantineMasking:
    def test_no_user_commanded_onto_quarantined_extender(self):
        rng = np.random.default_rng(11)
        sc = random_scenario(rng, 8, 3)
        health = HealthMonitor(3, probation_epochs=2)
        cc = CentralController(sc.plc_rates, health=health)
        for user in range(sc.n_users):
            cc.receive_scan_report(
                ScanReport(user, sc.wifi_rates[user]))
        cc.reconfigure()
        # Extender 0 starts reporting garbage capacity.
        bad = sc.plc_rates.copy()
        bad[0] = np.nan
        cc.update_plc_telemetry(bad)
        assert health.is_quarantined(0)
        cc.reconfigure()
        assert all(j != 0 for j in cc.associations.values())

    def test_user_hearing_only_quarantined_extenders_stays_put(self):
        """The CC solves the hearing users alone: a user whose
        only extender is quarantined keeps its association, and every
        other user gets the subset solve's target."""
        rng = np.random.default_rng(11)
        sc = random_scenario(rng, 8, 3)
        wifi = sc.wifi_rates.copy()
        wifi[5] = [70.0, 0.0, 0.0]  # user 5 hears only extender 0
        health = HealthMonitor(3, probation_epochs=2)
        cc = CentralController(sc.plc_rates, health=health)
        for user in range(sc.n_users):
            cc.receive_scan_report(ScanReport(user, wifi[user]))
        cc.reconfigure()
        assert cc.associations[5] == 0
        bad = sc.plc_rates.copy()
        bad[0] = np.nan
        cc.update_plc_telemetry(bad)
        assert health.is_quarantined(0)
        cc.reconfigure()
        assert cc.associations[5] == 0
        hearing = [u for u in range(sc.n_users) if u != 5]
        masked = wifi[hearing]
        masked[:, 0] = 0.0
        plc = cc.plc_rates.copy()
        plc[0] = 0.0
        target = solve_wolt(Scenario(wifi_rates=masked,
                                     plc_rates=plc)).assignment
        assert [cc.associations[u] for u in hearing] == target.tolist()

    def test_solves_see_the_fail_extenders_scenario(self):
        """A quarantined extender is masked exactly as a dead one: the
        CC's solve scenario is :func:`fail_extenders` of the reports."""
        cc, _, sc = self._quarantine_extender_0()
        scenario, ids = cc._scenario()
        assert ids == list(range(sc.n_users))
        dead = fail_extenders(
            Scenario(wifi_rates=sc.wifi_rates, plc_rates=cc.plc_rates), [0])
        np.testing.assert_array_equal(scenario.wifi_rates, dead.wifi_rates)
        np.testing.assert_array_equal(scenario.plc_rates, dead.plc_rates)

    def _quarantine_extender_0(self):
        """A CC whose user 5 hears only extender 0, which then gets
        quarantined; returns the CC, its monitor and the scan rates."""
        rng = np.random.default_rng(11)
        sc = random_scenario(rng, 8, 3)
        wifi = sc.wifi_rates.copy()
        wifi[5] = [70.0, 0.0, 0.0]
        health = HealthMonitor(3, probation_epochs=2)
        cc = CentralController(sc.plc_rates, health=health)
        for user in range(sc.n_users):
            cc.receive_scan_report(ScanReport(user, wifi[user]))
        cc.reconfigure()
        bad = sc.plc_rates.copy()
        bad[0] = np.nan
        cc.update_plc_telemetry(bad)
        assert health.is_quarantined(0)
        return cc, health, Scenario(wifi_rates=wifi, plc_rates=sc.plc_rates)

    def test_user_rejoins_the_solve_after_readmission(self):
        cc, health, sc = self._quarantine_extender_0()
        cc.reconfigure()
        for _ in range(2):
            cc.update_plc_telemetry(sc.plc_rates)
        assert not health.is_quarantined(0)
        cc.reconfigure()
        assert [cc.associations[u] for u in range(sc.n_users)] == \
            solve_wolt(sc).assignment.tolist()

    def test_admission_avoids_quarantined_extender(self):
        health = HealthMonitor(2, probation_epochs=2)
        cc = CentralController([50.0, 60.0], health=health)
        cc.update_plc_telemetry([np.nan, 60.0])
        assert health.is_quarantined(0)
        # Extender 0 has the stronger link, but it is quarantined.
        cc.receive_scan_report(ScanReport(0, np.array([90.0, 30.0])))
        assert cc.associations[0] == 1

    def test_readmitted_extender_usable_again(self):
        health = HealthMonitor(2, probation_epochs=2)
        cc = CentralController([50.0, 60.0], health=health)
        cc.update_plc_telemetry([np.nan, 60.0])
        cc.update_plc_telemetry([50.0, 60.0])
        cc.update_plc_telemetry([50.0, 60.0])
        assert not health.is_quarantined(0)
        cc.receive_scan_report(ScanReport(0, np.array([90.0, 30.0])))
        assert cc.associations[0] == 0

    def test_measurement_ignores_quarantine(self):
        """Measurement is physics: a client still parked on a
        quarantined extender must be measurable."""
        health = HealthMonitor(2, probation_epochs=5)
        cc = CentralController([50.0, 60.0], health=health)
        cc.receive_scan_report(ScanReport(0, np.array([90.0, 30.0])))
        assert cc.associations[0] == 0
        cc.update_plc_telemetry([50.0, 60.0])  # seed last-known-good
        cc.update_plc_telemetry([np.nan, 60.0])
        assert health.is_quarantined(0)
        assert cc.associations == {0: 0}
        truth = Scenario(wifi_rates=np.array([[90.0, 30.0]]),
                         plc_rates=np.array([50.0, 60.0]))
        assignment = settle_clients(truth, cc.associations)
        assert assignment.tolist() == [0]
        assert evaluate(truth, assignment).aggregate > 0

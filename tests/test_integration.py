"""End-to-end integration tests across subsystem boundaries.

Each test exercises a realistic pipeline: building synthesis → rate
derivation → association → engine scoring → control-plane accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (CentralController, Scenario,
                   enterprise_floor, evaluate, greedy_assignment,
                   jain_fairness, rssi_assignment, solve_wolt)
from repro.core.controller import ScanReport
from repro.plc.channel import random_building
from repro.plc.mac import Ieee1901CsmaSimulator
from repro.sim.dynamics import OnlineSimulation
from repro.net.topology import sample_floor_plan
from repro.sim.traffic import evaluate_with_demands
from repro.wifi.mac import DcfSimulator
from repro.wifi.phy import WifiPhy

from .oracles import certify


class TestBuildingToAssociationPipeline:
    def test_full_pipeline(self):
        """Wiring graph -> capacities -> floor -> WOLT -> certificate."""
        rng = np.random.default_rng(42)
        building = random_building(20, rng)
        scenario = enterprise_floor(10, 25, rng, building=building)
        result = solve_wolt(scenario, plc_mode="fixed")
        cert = certify(scenario, result.assignment, plc_mode="fixed")
        assert cert.gap_fraction < 0.5
        assert result.report.plc_time_shares.sum() <= 1.0 + 1e-9

    def test_every_policy_agrees_on_problem_shape(self):
        rng = np.random.default_rng(7)
        scenario = enterprise_floor(6, 18, rng)
        wolt = solve_wolt(scenario).assignment
        greedy = greedy_assignment(scenario, rng.permutation(18))
        rssi = rssi_assignment(scenario)
        for assignment in (wolt, greedy, rssi):
            report = evaluate(scenario, assignment, require_complete=True)
            assert report.aggregate > 0
            assert 0 < jain_fairness(report.user_throughputs) <= 1


class TestMacToAnalyticConsistency:
    def test_engine_matches_mac_level_composition(self):
        """A one-extender, two-user network computed three ways: the
        analytic engine, the DCF simulator for the WiFi stage, and the
        1901 simulator for the PLC stage."""
        rng = np.random.default_rng(3)
        wifi_rates = [117.0, 39.0]
        plc_rate = 80.0
        scenario = Scenario(wifi_rates=np.array([wifi_rates]).reshape(2, 1),
                            plc_rates=np.array([plc_rate]))
        engine = evaluate(scenario, [0, 0])
        # WiFi stage, protocol level.
        dcf = DcfSimulator(wifi_rates, rng=rng).run(5e6)
        # PLC stage, protocol level (single extender, saturated).
        plc = Ieee1901CsmaSimulator([plc_rate], rng=rng).run(3e6)
        mac_end_to_end = min(dcf.aggregate_mbps, plc.throughputs_mbps[0])
        # Protocol overheads cost some throughput, but the bottleneck
        # structure (who limits whom) must agree within 25%.
        assert mac_end_to_end == pytest.approx(engine.aggregate, rel=0.25)

    def test_wifi_bottleneck_detected_consistently(self):
        scenario = Scenario(wifi_rates=np.array([[13.0]]),
                            plc_rates=np.array([150.0]))
        engine = evaluate(scenario, [0])
        assert not engine.bottleneck_is_plc[0]
        rng = np.random.default_rng(1)
        dcf = DcfSimulator([13.0], rng=rng).run(3e6)
        assert dcf.aggregate_mbps < 150.0


class TestControllerOverDynamics:
    def test_controller_replays_online_simulation(self):
        """Drive a CentralController with the same scan reports an
        OnlineSimulation generates and check consistent outcomes."""
        rng = np.random.default_rng(11)
        plan = sample_floor_plan(4, rng)
        sim = OnlineSimulation(plan, "wolt",
                               rng=np.random.default_rng(12))
        sim.seed_users(8)
        scenario = sim._scenario()
        cc = CentralController(scenario.plc_rates, policy="wolt")
        for idx, uid in enumerate(scenario.user_ids):
            cc.receive_scan_report(ScanReport(
                user_id=int(uid), wifi_rates=scenario.wifi_rates[idx]))
        cc.reconfigure()
        cc_assignment = [cc.associations[int(uid)]
                         for uid in scenario.user_ids]
        cc_report = evaluate(scenario, cc_assignment)
        wolt_report = solve_wolt(scenario).report
        assert cc_report.aggregate == pytest.approx(
            wolt_report.aggregate, rel=1e-6)

    def test_zero_hysteresis_tracks_full_wolt_over_churn(self):
        """A zero-hysteresis controller stays near full WOLT through an
        arrival/departure sequence."""
        rng = np.random.default_rng(13)
        scenario = enterprise_floor(5, 30, rng)
        cc = CentralController(scenario.plc_rates, min_gain_mbps=0.0)

        def arrive(uids):
            for uid in uids:
                cc.receive_scan_report(ScanReport(
                    user_id=uid, wifi_rates=scenario.wifi_rates[uid]))

        # Arrivals in two waves with a reconfigure between.
        arrive(range(15))
        cc.reconfigure()
        arrive(range(15, 30))
        # Some departures.
        for uid in (0, 5, 20):
            cc.disconnect(uid)
        cc.reconfigure()
        present = sorted(cc.associations)
        remaining = scenario.subset_users(present)
        after = evaluate(remaining, [cc.associations[uid]
                                     for uid in present]).aggregate
        assert after >= 0.95 * solve_wolt(remaining).aggregate_throughput


class TestDemandAwareOverTopology:
    def test_video_workload_end_to_end(self):
        rng = np.random.default_rng(21)
        scenario = enterprise_floor(6, 18, rng)
        demands = np.tile([25.0, 8.0, 2.0], 6)
        wolt = solve_wolt(scenario).assignment
        report = evaluate_with_demands(scenario, wolt, demands)
        # The audio class (2 Mbps) is essentially always satisfiable.
        audio = np.arange(18)[2::3]
        assert report.satisfied[audio].mean() >= 0.8
        assert report.aggregate <= demands.sum() + 1e-6


class TestPhyConsistency:
    def test_stronger_radio_never_hurts_throughput(self):
        rng = np.random.default_rng(31)
        plan = sample_floor_plan(5, rng)
        plan = plan.with_users(np.column_stack(
            [rng.uniform(0, 100, 12), rng.uniform(0, 100, 12)]))
        from repro.net.topology import build_scenario

        weak = build_scenario(plan, phy=WifiPhy(tx_power_dbm=10.0))
        strong = build_scenario(plan, phy=WifiPhy(tx_power_dbm=23.0))
        weak_agg = solve_wolt(weak).aggregate_throughput
        strong_agg = solve_wolt(strong).aggregate_throughput
        assert strong_agg >= weak_agg - 1e-6

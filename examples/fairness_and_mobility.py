#!/usr/bin/env python3
"""Extensions tour: α-fair association, hysteresis, mobility, PLC noise.

Four studies beyond the paper, on one enterprise floor:

1. the throughput/fairness trade-off of α-fair association,
2. handoff budgeting with the Central Controller's hysteresis bar,
3. WOLT vs RSSI under random-waypoint user mobility,
4. association staleness under time-varying power-line noise.

Run:  python examples/fairness_and_mobility.py
"""

import numpy as np

from repro import (CentralController, MobilitySimulation, enterprise_floor,
                   evaluate, solve_alpha_fair, solve_wolt)
from repro.core.controller import ScanReport
from repro.plc.noise import NoiseProcess, TimeVaryingPlc
from repro.core.problem import Scenario
from repro.net.topology import sample_floor_plan


def study_alpha_fairness(seed: int = 2) -> None:
    print("1) alpha-fair association (15 ext, 36 users):")
    print("   alpha   aggregate (Mbps)   Jain index")
    scenario = enterprise_floor(15, 36, np.random.default_rng(seed))
    for alpha in (0.0, 1.0, 2.0, 4.0):
        result = solve_alpha_fair(scenario, alpha=alpha, plc_mode="fixed")
        print(f"   {alpha:5.1f}   {result.aggregate_throughput:16.1f}"
              f"   {result.jain:10.3f}")
    print()


def study_hysteresis(seed: int = 3) -> None:
    print("2) handoff budgeting: hysteresis threshold vs moves/throughput")
    scenario = enterprise_floor(10, 30, np.random.default_rng(seed))
    print("   min gain (Mbps)   moves   aggregate after (Mbps)")
    for threshold in (0.0, 1.0, 5.0, 20.0):
        cc = CentralController(scenario.plc_rates,
                               min_gain_mbps=threshold)
        for uid in range(scenario.n_users):
            cc.receive_scan_report(ScanReport(uid, scenario.wifi_rates[uid]))
        cc.reconfigure()
        after = evaluate(scenario, [cc.associations[uid] for uid
                                    in range(scenario.n_users)]).aggregate
        print(f"   {threshold:15.1f}   {cc.stats.reassignments:5d}"
              f"   {after:19.1f}")
    print()


def study_mobility(seed: int = 4, n_epochs: int = 5) -> None:
    print("3) random-waypoint mobility (5 ext, 15 walking users):")
    print("   policy  mean Mbps  handoffs/epoch")
    for policy in ("wolt", "rssi"):
        rng = np.random.default_rng(seed)
        plan = sample_floor_plan(5, rng)
        sim = MobilitySimulation(plan, 15, policy,
                                 rng=np.random.default_rng(seed + 1),
                                 epoch_duration=20.0, plc_mode="fixed")
        history = sim.run(n_epochs)
        mean_mbps = np.mean([e.aggregate_throughput for e in history])
        handoffs = np.mean([e.handoffs for e in history[1:]])
        print(f"   {policy:6s}  {mean_mbps:9.1f}  {handoffs:14.1f}")
    print()


def study_plc_noise(seed: int = 5, n_epochs: int = 12) -> None:
    print("4) time-varying PLC noise: capacity drift vs the offline "
          "calibration")
    rng = np.random.default_rng(seed)
    scenario = enterprise_floor(8, 24, rng)
    # Bursty appliance noise: links occasionally collapse for an epoch.
    plc_model = TimeVaryingPlc(
        attenuations_db=rng.uniform(35.0, 55.0, 8), rng=rng,
        noise=[NoiseProcess(sigma_db=4.0, impulse_prob=0.25,
                            impulse_db=25.0) for _ in range(8)])
    calibrated = plc_model.best_case_capacities()
    previous = solve_wolt(Scenario(wifi_rates=scenario.wifi_rates,
                                   plc_rates=calibrated)).assignment
    drift, matching_churn = [], []
    for _ in range(n_epochs):
        capacities = plc_model.step()
        drift.append(np.mean(np.abs(capacities - calibrated)
                             / np.maximum(calibrated, 1.0)))
        live = Scenario(wifi_rates=scenario.wifi_rates,
                        plc_rates=capacities)
        fresh = solve_wolt(live).assignment
        matching_churn.append(int(np.sum(fresh != previous)))
        previous = fresh
    print(f"   mean |capacity - calibration|: {np.mean(drift):.0%}")
    print(f"   users WOLT re-matches per epoch as capacities drift: "
          f"{np.mean(matching_churn):.1f} of {scenario.n_users}")
    print("   -> offline PLC calibration goes stale within epochs; the "
          "CC should re-measure.")


def main() -> None:
    study_alpha_fairness()
    study_hysteresis()
    study_mobility()
    study_plc_noise()


if __name__ == "__main__":
    main()

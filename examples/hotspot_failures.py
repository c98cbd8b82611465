#!/usr/bin/env python3
"""Stress tour: hotspot crowds, extender failures, and a floor map.

Three stress studies on the same enterprise floor:

1. a meeting-room hotspot workload — the regime where RSSI association
   collapses onto one extender and WOLT's load spreading pays most;
2. extender failure injection — recovery throughput of a global
   re-solve vs strongest-survivor fallback;
3. an ASCII rendering of the floor and WOLT's association.

Run:  python examples/hotspot_failures.py
"""

import numpy as np

from repro import (FloorPlan, build_scenario, evaluate, rssi_assignment,
                   solve_wolt)
from repro.net.visualize import render_floor
from repro.sim.failures import FailureSimulation
from repro.net.topology import sample_floor_plan
from repro.sim.workload import hotspot_positions


def study_hotspots(seed: int = 8) -> FloorPlan:
    print("1) hotspot crowding (meeting rooms): WOLT vs RSSI")
    rng = np.random.default_rng(seed)
    plan = sample_floor_plan(10, rng)
    print("   hotspot%   WOLT (Mbps)   RSSI (Mbps)   gain")
    last_plan = plan
    for fraction in (0.0, 0.5, 0.9):
        user_xy = hotspot_positions(40, plan.width_m, plan.height_m,
                                    np.random.default_rng(seed + 1),
                                    n_hotspots=2,
                                    hotspot_fraction=fraction)
        last_plan = plan.with_users(user_xy)
        scenario = build_scenario(last_plan)
        wolt = solve_wolt(scenario, plc_mode="fixed").aggregate_throughput
        rssi = evaluate(scenario, rssi_assignment(scenario),
                        plc_mode="fixed").aggregate
        print(f"   {fraction:7.0%}   {wolt:11.1f}   {rssi:11.1f}"
              f"   {wolt / rssi:5.2f}x")
    print()
    return last_plan


def study_failures(seed: int = 9) -> None:
    print("2) extender failures (25% fail / 50% recover per epoch):")
    rng = np.random.default_rng(seed)
    plan = sample_floor_plan(8, rng)
    user_xy = hotspot_positions(30, plan.width_m, plan.height_m, rng)
    scenario = build_scenario(plan.with_users(user_xy))
    print("   policy  mean Mbps  mean offline users")
    for policy in ("wolt", "rssi"):
        sim = FailureSimulation(scenario, policy,
                                rng=np.random.default_rng(seed + 1),
                                fail_prob=0.25, recover_prob=0.5,
                                plc_mode="fixed")
        history = sim.run(10)
        mbps = np.mean([e.aggregate_throughput for e in history])
        offline = np.mean([e.offline_users for e in history])
        print(f"   {policy:6s}  {mbps:9.1f}  {offline:18.2f}")
    print()


def study_floor_map(plan: FloorPlan) -> None:
    print("3) the hotspot floor, as WOLT associates it:")
    scenario = build_scenario(plan)
    result = solve_wolt(scenario)
    print(render_floor(plan, assignment=result.assignment,
                       width_chars=64, height_chars=20))


def main() -> None:
    plan = study_hotspots()
    study_failures()
    study_floor_map(plan)


if __name__ == "__main__":
    main()

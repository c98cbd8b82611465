#!/usr/bin/env python3
"""Quickstart: solve the paper's Fig. 3 case study with WOLT.

Two PLC-WiFi extenders share a power-line backhaul (60 and 20 Mbps);
two users can reach both over WiFi.  Naive RSSI association wastes more
than 40% of the achievable throughput; WOLT finds the optimum.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (Scenario, branch_and_bound_optimal, evaluate,
                   greedy_assignment, rssi_assignment, solve_wolt)


def main() -> None:
    # Rates straight from Fig. 3a of the paper (Mbps).
    scenario = Scenario(
        wifi_rates=np.array([
            [15.0, 10.0],   # user 1 -> extender 1 / extender 2
            [40.0, 20.0],   # user 2
        ]),
        plc_rates=np.array([60.0, 20.0]),  # backhaul of each extender
    )

    print("Policy      assignment   aggregate (Mbps)")
    for name, assignment in [
            ("RSSI", rssi_assignment(scenario)),
            ("Greedy", greedy_assignment(scenario)),
            ("Optimal", branch_and_bound_optimal(scenario).assignment)]:
        report = evaluate(scenario, assignment)
        print(f"{name:10s}  {assignment.tolist()}        "
              f"{report.aggregate:6.2f}")

    result = solve_wolt(scenario)
    print(f"{'WOLT':10s}  {result.assignment.tolist()}        "
          f"{result.aggregate_throughput:6.2f}")
    print()
    print("Per-user throughputs under WOLT:",
          np.round(result.report.user_throughputs, 2), "Mbps")
    print("Phase-I anchors (set U1):", result.anchored_users.tolist())


if __name__ == "__main__":
    main()

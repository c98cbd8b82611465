#!/usr/bin/env python3
"""Online operation: users arrive and depart; WOLT re-optimizes.

Reproduces the paper's temporal setting (Poisson arrivals at rate 3,
departures at rate 1): users join the network mid-epoch on their
strongest extender, and at every epoch boundary the Central Controller
re-runs WOLT and re-associates users.  The Greedy baseline places each
arrival once and never re-assigns.

Run:  python examples/online_dynamics.py
"""

import numpy as np

from repro import OnlineSimulation
from repro.net.topology import sample_floor_plan


def main(seed: int = 11, n_epochs: int = 4) -> None:
    print("policy  epoch  users  arrivals  reassigned  Mbps(fixed)  Jain")
    for policy in ("wolt", "greedy", "rssi"):
        rng = np.random.default_rng(seed)
        plan = sample_floor_plan(n_extenders=15, rng=rng)
        sim = OnlineSimulation(plan, policy,
                               rng=np.random.default_rng(seed + 1),
                               plc_mode="fixed")
        sim.seed_users(3)
        for stats in sim.run(n_epochs):
            print(f"{policy:6s}  {stats.epoch:5d}  {stats.n_users:5d}  "
                  f"{stats.arrivals:8d}  {stats.reassignments:10d}  "
                  f"{stats.aggregate_throughput:11.1f}  "
                  f"{stats.jain_fairness:.3f}")
        print()

    print("WOLT's re-assignment load stays near one swap per arrival --")
    print("the 'relatively minor overhead' the paper reports (Fig. 6c).")


if __name__ == "__main__":
    main()

"""WOLT: auto-configuration of integrated enterprise PLC-WiFi networks.

A from-scratch Python reproduction of *WOLT: Auto-Configuration of
Integrated Enterprise PLC-WiFi Networks* (Alhulayyil et al., ICDCS
2020): the two-phase user-association algorithm, the RSSI / Greedy
baselines, the PLC (IEEE 1901 / HomePlug AV2) and WiFi (802.11)
substrates it runs on, an emulated hardware testbed, and the complete
evaluation harness for every figure in the paper.

Quickstart::

    import numpy as np
    from repro import Scenario, solve_wolt

    scenario = Scenario(
        wifi_rates=np.array([[15.0, 10.0], [40.0, 20.0]]),  # r_ij (Mbps)
        plc_rates=np.array([60.0, 20.0]),                   # c_j (Mbps)
    )
    result = solve_wolt(scenario)
    print(result.assignment, result.aggregate_throughput)

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-reproduced numbers.
"""

from .core.baselines import (greedy_assignment, random_assignment,
                             rssi_assignment, selfish_greedy_assignment)
from .core.bnb import branch_and_bound_optimal
from .core.controller import CentralController
from .core.fairness import solve_alpha_fair
from .core.phase1 import phase1_utilities, solve_phase1
from .core.phase2 import solve_phase2, solve_phase2_continuous
from .core.problem import (UNASSIGNED, Scenario, validate_assignment,
                           validate_assignment_batch)
from .core.wolt import WoltResult, solve_wolt
from .net.engine import (BatchThroughputReport, ThroughputReport,
                         count_engine_calls, evaluate, evaluate_batch)
from .net.metrics import compare_per_user, jain_fairness
from .net.topology import FloorPlan, build_scenario, enterprise_floor
from .plc.channel import PowerlineNetwork, random_building
from .plc.homeplug import Av2Phy
from .plc.sharing import PLC_MODES, allocate_backhaul
from .sim.dynamics import OnlineSimulation
from .sim.mobility import MobilitySimulation
from .sim.runner import run_online_comparison, run_policy, run_trials
from .testbed.devices import EmulatedTestbed, Laptop, PlcExtender
from .wifi.phy import WifiPhy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # problem & algorithms
    "Scenario", "UNASSIGNED", "validate_assignment",
    "validate_assignment_batch",
    "solve_wolt", "WoltResult", "solve_phase1", "solve_phase2",
    "solve_phase2_continuous", "phase1_utilities",
    "rssi_assignment", "greedy_assignment", "selfish_greedy_assignment",
    "random_assignment", "branch_and_bound_optimal", "CentralController",
    "solve_alpha_fair",
    # network model
    "evaluate", "evaluate_batch",
    "ThroughputReport", "BatchThroughputReport", "count_engine_calls",
    "jain_fairness", "compare_per_user", "PLC_MODES", "allocate_backhaul",
    "FloorPlan", "build_scenario", "enterprise_floor",
    # substrates
    "WifiPhy", "Av2Phy", "PowerlineNetwork", "random_building",
    # simulation & testbed
    "OnlineSimulation", "MobilitySimulation", "run_trials", "run_policy",
    "run_online_comparison", "EmulatedTestbed", "PlcExtender", "Laptop",
]

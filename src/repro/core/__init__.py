"""The paper's contribution: Problem 1, WOLT (Alg. 1), and baselines."""

from .baselines import (greedy_assignment, random_assignment,
                        rssi_assignment, selfish_greedy_assignment)
from .bnb import BnbResult, branch_and_bound_optimal
from .controller import CentralController, Transport
from .fairness import AlphaFairResult, alpha_fair_utility, solve_alpha_fair
from .guard import DecisionGuard
from .health import HealthEvent, HealthMonitor
from .hungarian import InfeasibleAssignmentError, solve_assignment
from .partition import (partition_to_scenario,
                        solve_partition_by_association)
from .phase1 import Phase1Result, phase1_utilities, solve_phase1
from .phase2 import Phase2Result, solve_phase2, solve_phase2_continuous
from .problem import UNASSIGNED, Scenario, validate_assignment
from .wolt import WoltResult, solve_wolt

__all__ = [
    "Scenario", "UNASSIGNED", "validate_assignment",
    "solve_assignment", "InfeasibleAssignmentError",
    "phase1_utilities", "solve_phase1", "Phase1Result",
    "solve_phase2", "solve_phase2_continuous", "Phase2Result",
    "solve_wolt", "WoltResult",
    "rssi_assignment", "greedy_assignment", "selfish_greedy_assignment",
    "random_assignment", "branch_and_bound_optimal", "BnbResult",
    "CentralController", "Transport",
    "solve_alpha_fair", "alpha_fair_utility", "AlphaFairResult",
    "partition_to_scenario", "solve_partition_by_association",
    "DecisionGuard",
    "HealthMonitor", "HealthEvent",
]

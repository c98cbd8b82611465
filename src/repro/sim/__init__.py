"""Simulation layer: user dynamics, runners, durable journals, traffic."""

from ..core.problem import fail_extenders
from .checkpoint import (CheckpointError, CheckpointExists,
                         CorruptCheckpoint, FingerprintMismatch,
                         TrialStore, atomic_write_text)
from .dispatch import WorkFailure
from .dynamics import EpochStats, OnlineSimulation
from .failures import (FailureEpoch, FailureSimulation,
                       reassociate_orphans)
from .faults import (CrashSchedule, FaultModel, FaultyTransport,
                     InjectedCrash)
from .mobility import MobilityEpoch, MobilitySimulation, RandomWaypoint
from .runner import (PolicyOutcome, TrialResult, TrialRunResult,
                     run_online_comparison, run_policy, run_trials)
from .workload import hotspot_positions
from .traffic import DemandReport, evaluate_with_demands

__all__ = [
    "OnlineSimulation", "EpochStats",
    "run_trials", "run_policy", "run_online_comparison",
    "PolicyOutcome", "TrialResult",
    "evaluate_with_demands", "DemandReport",
    "MobilitySimulation", "MobilityEpoch", "RandomWaypoint",
    "FailureSimulation", "FailureEpoch", "fail_extenders",
    "reassociate_orphans", "hotspot_positions",
    "FaultModel", "FaultyTransport", "InjectedCrash", "CrashSchedule",
    "WorkFailure", "TrialRunResult", "TrialStore", "CheckpointError",
    "CheckpointExists", "CorruptCheckpoint", "FingerprintMismatch",
    "atomic_write_text",
]

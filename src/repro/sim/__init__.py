"""Simulation layer: DES kernel, user dynamics, runners, traffic."""

from .checkpoint import (CheckpointError, CheckpointExists,
                         CorruptCheckpoint, FingerprintMismatch,
                         TrialStore, atomic_write_json,
                         atomic_write_text)
from .dynamics import EpochStats, OnlineSimulation
from .events import EventHandle, EventQueue
from .failures import (FailureEpoch, FailureSimulation, fail_extenders,
                       reassociate_orphans)
from .faults import (CrashSchedule, FaultModel, FaultyTransport,
                     InjectedCrash)
from .mobility import MobilityEpoch, MobilitySimulation, RandomWaypoint
from .runner import (PolicyOutcome, TrialFailure, TrialResult,
                     TrialRunResult, run_online_comparison, run_policy,
                     run_trials, sample_floor_plan)
from .workload import hotspot_positions
from .traffic import DemandReport, evaluate_with_demands

__all__ = [
    "EventQueue", "EventHandle", "OnlineSimulation", "EpochStats",
    "run_trials", "run_policy", "run_online_comparison",
    "sample_floor_plan", "PolicyOutcome", "TrialResult",
    "evaluate_with_demands", "DemandReport",
    "MobilitySimulation", "MobilityEpoch", "RandomWaypoint",
    "FailureSimulation", "FailureEpoch", "fail_extenders",
    "reassociate_orphans", "hotspot_positions",
    "FaultModel", "FaultyTransport", "InjectedCrash", "CrashSchedule",
    "TrialFailure", "TrialRunResult", "TrialStore", "CheckpointError",
    "CheckpointExists", "CorruptCheckpoint", "FingerprintMismatch",
    "atomic_write_text", "atomic_write_json",
]

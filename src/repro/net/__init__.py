"""Network model: topology, end-to-end throughput engine, metrics."""

from .engine import (BatchThroughputReport, ThroughputReport,
                     count_engine_calls, evaluate, evaluate_batch)
from .estimate import noisy_scenario
from .metrics import (PerUserComparison, bottom_k_users, compare_per_user,
                      jain_fairness, top_k_users)
from .topology import (FloorPlan, build_scenario, enterprise_floor,
                       sample_floor_plan, sample_user_positions)
from .visualize import render_floor

__all__ = [
    "evaluate", "evaluate_batch",
    "ThroughputReport", "BatchThroughputReport", "count_engine_calls",
    "jain_fairness", "compare_per_user", "PerUserComparison",
    "bottom_k_users", "top_k_users",
    "FloorPlan", "build_scenario", "enterprise_floor",
    "sample_floor_plan", "sample_user_positions",
    "noisy_scenario",
    "render_floor",
]

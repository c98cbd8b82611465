"""Figure 5 — WOLT's effect on individual users (fairness drill-down).

On one representative topology, compare the per-user throughputs of
WOLT and Greedy for the three users WOLT serves worst (Fig. 5a) and the
three it serves best (Fig. 5b).  The paper reports that the worst three
lose only ~6 Mbps in total while the best three gain ~38 Mbps — i.e.
WOLT's throughput win costs little fairness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..net.metrics import bottom_k_users, top_k_users
from ..sim.runner import run_policy
from .common import format_rows, lab_scenario

__all__ = ["Fig5Result", "run_fig5", "main"]


@dataclass(frozen=True)
class Fig5Result:
    """Fig. 5 reproduction on one topology.

    Attributes:
        worst_wolt_mbps / worst_greedy_mbps: the three lowest-throughput
            WOLT users, under WOLT and under Greedy (Fig. 5a).
        best_wolt_mbps / best_greedy_mbps: the three highest-throughput
            WOLT users (Fig. 5b).
        worst_total_delta_mbps: total WOLT-minus-Greedy change of the
            worst three (paper: about -6 Mbps).
        best_total_delta_mbps: total change of the best three (paper:
            about +38 Mbps).
    """

    worst_wolt_mbps: Tuple[float, float, float]
    worst_greedy_mbps: Tuple[float, float, float]
    best_wolt_mbps: Tuple[float, float, float]
    best_greedy_mbps: Tuple[float, float, float]
    worst_total_delta_mbps: float
    best_total_delta_mbps: float


def run_fig5(seed: int = 3, k: int = 3,
             plc_mode: str = "fixed") -> Fig5Result:
    """Reproduce Fig. 5a/5b on one random testbed topology."""
    scenario = lab_scenario(seed)
    rng = np.random.default_rng(seed)
    wolt_tput, greedy_tput = (
        run_policy(scenario, policy, rng, plc_mode).user_throughputs
        for policy in ("wolt", "greedy"))
    worst = bottom_k_users(wolt_tput, k)
    best = top_k_users(wolt_tput, k)
    return Fig5Result(
        worst_wolt_mbps=tuple(float(wolt_tput[i]) for i in worst),
        worst_greedy_mbps=tuple(float(greedy_tput[i]) for i in worst),
        best_wolt_mbps=tuple(float(wolt_tput[i]) for i in best),
        best_greedy_mbps=tuple(float(greedy_tput[i]) for i in best),
        worst_total_delta_mbps=float(
            (wolt_tput[worst] - greedy_tput[worst]).sum()),
        best_total_delta_mbps=float(
            (wolt_tput[best] - greedy_tput[best]).sum()))


def main(seed: int = 3) -> str:
    """Format the Fig. 5 drill-down."""
    r = run_fig5(seed)
    out = ["Fig 5a - WOLT's worst three users (Mbps)"]
    out.append(format_rows(
        ["user", "WOLT", "Greedy"],
        [(i + 1, w, g) for i, (w, g) in
         enumerate(zip(r.worst_wolt_mbps, r.worst_greedy_mbps))]))
    out.append(f"worst-3 total delta: {r.worst_total_delta_mbps:+.1f} Mbps "
               "(paper: about -6)")
    out.append("\nFig 5b - WOLT's best three users (Mbps)")
    out.append(format_rows(
        ["user", "WOLT", "Greedy"],
        [(i + 1, w, g) for i, (w, g) in
         enumerate(zip(r.best_wolt_mbps, r.best_greedy_mbps))]))
    out.append(f"best-3 total delta: {r.best_total_delta_mbps:+.1f} Mbps "
               "(paper: about +38)")
    return "\n".join(out)

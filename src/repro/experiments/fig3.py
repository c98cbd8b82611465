"""Figure 3 — the user-association case study.

Two extenders (PLC rates 60 / 20 Mbps), two users (WiFi rates 15 / 40
Mbps to extender 1 and 10 / 20 Mbps to extender 2).  The paper reports:

* RSSI-based association: 22 Mbps aggregate (11 + 11),
* Greedy association: 30 Mbps (15 + 15, thanks to PLC leftover-time
  redistribution),
* Optimal association: 40 Mbps (10 + 30).

Because the engine is calibrated to the testbed's sharing behaviour,
this reproduction matches the paper's numbers *exactly*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.baselines import rssi_assignment, selfish_greedy_assignment
from ..core.bnb import branch_and_bound_optimal
from ..core.problem import Scenario
from ..core.wolt import solve_wolt
from ..net.engine import evaluate
from .common import format_rows

__all__ = ["fig3_scenario", "Fig3Result", "run_fig3", "main",
           "PAPER_FIG3_MBPS"]

#: The aggregate throughputs the paper reports for Fig. 3 (Mbps).
PAPER_FIG3_MBPS = {"rssi": 22.0, "greedy": 30.0, "optimal": 40.0}


def fig3_scenario() -> Scenario:
    """The exact Fig. 3a link rates."""
    return Scenario(wifi_rates=np.array([[15.0, 10.0], [40.0, 20.0]]),
                    plc_rates=np.array([60.0, 20.0]))


@dataclass(frozen=True)
class Fig3Result:
    """Reproduced Fig. 3 aggregates and per-user throughputs (Mbps)."""

    rssi_aggregate: float
    rssi_per_user: Tuple[float, float]
    greedy_aggregate: float
    greedy_per_user: Tuple[float, float]
    optimal_aggregate: float
    optimal_per_user: Tuple[float, float]
    wolt_aggregate: float
    wolt_matches_optimal: bool


def run_fig3() -> Fig3Result:
    """Reproduce the full Fig. 3 case study."""
    scenario = fig3_scenario()
    rssi = evaluate(scenario, rssi_assignment(scenario))
    # Fig. 3c is the *self-interested* greedy: user 1 then user 2, each
    # maximizing its own end-to-end throughput.
    greedy = evaluate(scenario, selfish_greedy_assignment(scenario))
    optimal = branch_and_bound_optimal(scenario)
    optimal_report = evaluate(scenario, optimal.assignment)
    wolt = solve_wolt(scenario)
    return Fig3Result(
        rssi_aggregate=rssi.aggregate,
        rssi_per_user=tuple(rssi.user_throughputs),
        greedy_aggregate=greedy.aggregate,
        greedy_per_user=tuple(greedy.user_throughputs),
        optimal_aggregate=optimal.aggregate_throughput,
        optimal_per_user=tuple(optimal_report.user_throughputs),
        wolt_aggregate=wolt.aggregate_throughput,
        wolt_matches_optimal=bool(
            np.isclose(wolt.aggregate_throughput,
                       optimal.aggregate_throughput)))


def main() -> str:
    """Format the Fig. 3 comparison against the paper's numbers."""
    r = run_fig3()
    rows = [
        ("RSSI (Fig 3b)", r.rssi_aggregate, PAPER_FIG3_MBPS["rssi"]),
        ("Greedy (Fig 3c)", r.greedy_aggregate, PAPER_FIG3_MBPS["greedy"]),
        ("Optimal (Fig 3d)", r.optimal_aggregate,
         PAPER_FIG3_MBPS["optimal"]),
        ("WOLT", r.wolt_aggregate, PAPER_FIG3_MBPS["optimal"]),
    ]
    out = ["Fig 3 - case study aggregate throughput (Mbps)"]
    out.append(format_rows(["policy", "reproduced", "paper"], rows))
    out.append(f"WOLT matches optimal: {r.wolt_matches_optimal}")
    return "\n".join(out)

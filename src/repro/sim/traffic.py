"""Fluid traffic model for finite-demand users.

The paper's model assumes saturated downlink TCP traffic and argues
(§IV-A) that long-term TCP fairness makes per-flow throughputs equal, so
only long-term shares need modelling.

As an extension beyond the paper, :func:`evaluate_with_demands` handles
users with *finite* demands (e.g. a 5 Mbps video stream): WiFi cell time
is allocated max-min fairly against per-user demand caps, the resulting
per-cell offered load drives the PLC allocation, and surplus capacity is
recycled — letting experiments study WOLT under non-saturated load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.problem import Scenario, UNASSIGNED, validate_assignment
from ..plc.sharing import allocate_backhaul, max_min_time_shares

__all__ = ["DemandReport", "evaluate_with_demands"]


@dataclass(frozen=True)
class DemandReport:
    """Throughput breakdown for demand-limited users.

    Attributes:
        user_throughputs: achieved per-user throughput (Mbps).
        satisfied: per-user flag — demand fully met.
        extender_throughputs: per-extender carried end-to-end load.
        plc_time_shares: granted PLC medium time fractions.
    """

    user_throughputs: np.ndarray
    satisfied: np.ndarray
    extender_throughputs: np.ndarray
    plc_time_shares: np.ndarray

    @property
    def aggregate(self) -> float:
        return float(self.user_throughputs.sum())


def _wifi_cell_allocation(rates: np.ndarray,
                          demands: np.ndarray) -> np.ndarray:
    """Max-min fair airtime allocation inside one WiFi cell.

    Each user ``i`` needs airtime ``demand_i / rate_i`` to meet its
    demand; the cell has unit airtime shared max-min fairly.  Returns
    achieved per-user throughputs.
    """
    needed = np.where(rates > 0, demands / np.maximum(rates, 1e-12), np.inf)
    shares = max_min_time_shares(needed)
    return np.minimum(shares * rates, demands)


def _max_min_capped(total: float, caps: np.ndarray) -> np.ndarray:
    """Max-min fair division of ``total`` among users with caps.

    TCP's long-term fairness (§IV-A of the paper) gives every flow
    through a shared bottleneck an equal share, except that a flow never
    receives more than it can use (its cap).
    """
    if total <= 0 or caps.size == 0:
        return np.zeros_like(caps)
    fractions = max_min_time_shares(caps / total)
    return fractions * total


def evaluate_with_demands(scenario: Scenario,
                          assignment: Sequence[int],
                          demands_mbps: Sequence[float],
                          max_iterations: int = 20) -> DemandReport:
    """End-to-end throughput with per-user demand caps.

    The WiFi and PLC stages are coupled (a PLC bottleneck reduces the
    useful WiFi load and vice versa), so the solution is computed by
    fixed-point iteration: WiFi-feasible offered loads drive the PLC
    max-min allocation, whose grants cap the next round's effective
    demands.  Converges in a few iterations (allocations are monotone
    non-increasing).

    Args:
        scenario: the network snapshot.
        assignment: per-user extender indices (``-1`` = offline user).
        demands_mbps: per-user demand caps; ``np.inf`` for saturated.
        max_iterations: fixed-point iteration cap.
    """
    assign = validate_assignment(scenario, assignment,
                                 require_complete=False)
    demands = np.asarray(demands_mbps, dtype=float)
    if demands.shape[0] != scenario.n_users:
        raise ValueError("one demand per user is required")
    if np.any(demands < 0):
        raise ValueError("demands must be non-negative")

    n_ext = scenario.n_extenders
    user_tput = np.zeros(scenario.n_users)
    effective = demands.copy()
    plc_shares = np.zeros(n_ext)
    ext_tput = np.zeros(n_ext)
    for _ in range(max_iterations):
        # WiFi stage: per-cell max-min airtime against effective demands.
        wifi_load = np.zeros(n_ext)
        per_user = np.zeros(scenario.n_users)
        for j in range(n_ext):
            members = np.flatnonzero(assign == j)
            if members.size == 0:
                continue
            rates = scenario.wifi_rates[members, j]
            achieved = _wifi_cell_allocation(rates, effective[members])
            per_user[members] = achieved
            wifi_load[j] = achieved.sum()
        # PLC stage: the cells' carried load contends for medium time.
        alloc = allocate_backhaul(scenario.plc_rates, wifi_load)
        plc_shares = alloc.time_shares
        ext_tput = np.minimum(wifi_load, alloc.throughputs)
        # Re-divide each PLC-bottlenecked cell's grant max-min fairly
        # (TCP fairness: small flows keep their full demand, big flows
        # shrink equally) and iterate: a user's reduced effective demand
        # frees WiFi airtime and PLC time for others.
        new_effective = effective.copy()
        for j in range(n_ext):
            members = np.flatnonzero(assign == j)
            if members.size == 0 or wifi_load[j] <= 0:
                continue
            if ext_tput[j] + 1e-12 < wifi_load[j]:
                per_user[members] = _max_min_capped(
                    float(ext_tput[j]), per_user[members])
            new_effective[members] = np.minimum(effective[members],
                                                per_user[members])
        if np.allclose(new_effective, effective, rtol=1e-9, atol=1e-9):
            user_tput = per_user
            break
        effective = new_effective
        user_tput = per_user
    satisfied = user_tput >= demands - 1e-6
    satisfied[assign == UNASSIGNED] = False
    return DemandReport(user_throughputs=user_tput,
                        satisfied=satisfied,
                        extender_throughputs=ext_tput,
                        plc_time_shares=plc_shares)

"""Exact Problem-1 optimum for small instances, by branch and bound.

Problem 1 is NP-hard (Theorem 1), so the paper reports optimal
assignments only on toy scenarios (Fig. 3).  This is the repository's
one exact solver: it reproduces the Fig. 3 case study and certifies
WOLT on small instances.  The exponential search is pruned with an
admissible completion bound: for any partial assignment, extender
``j``'s final end-to-end throughput is at most

    bound_j = min(cap_j, max r_ij over current members and all
                  still-unassigned users)

because (a) the WiFi throughput (Eq. 1, a harmonic mean) never exceeds
its best member's rate, and (b) the PLC grant never exceeds ``cap_j``
(``c_j/|A|`` under the fixed law, ``c_j`` otherwise).  Summing
``bound_j`` bounds every completion of the node, so nodes whose bound
cannot beat the incumbent are cut.

On fixed-law instances the pruning is dramatic (the bound is tight
there); on redistribute-law instances it degrades gracefully toward
exhaustive search.  The test-suite pins the optimum's aggregate to an
exhaustive enumeration (``tests/oracles.exhaustive_optimum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..net.engine import evaluate, evaluate_batch
from .baselines import greedy_assignment
from .problem import Scenario, UNASSIGNED

__all__ = ["BnbResult", "branch_and_bound_optimal"]


@dataclass(frozen=True)
class BnbResult:
    """A certified optimum with search statistics.

    Attributes:
        assignment: an optimal complete assignment.
        aggregate_throughput: its aggregate end-to-end throughput.
        nodes_expanded: search-tree nodes visited.
        nodes_pruned: subtrees cut by the bound.
    """

    assignment: np.ndarray
    aggregate_throughput: float  # woltlint: disable=W005 — established result API; value is Mbps
    nodes_expanded: int
    nodes_pruned: int


def branch_and_bound_optimal(scenario: Scenario,
                             plc_mode: str = "redistribute",
                             node_limit: int = 5_000_000) -> BnbResult:
    """Exact Problem-1 optimum by depth-first branch and bound.

    Args:
        scenario: the network snapshot (capacities honoured).
        plc_mode: PLC sharing law for evaluation and bounding.
        node_limit: safety cap on expanded nodes.

    Returns:
        A :class:`BnbResult` certificate.

    Raises:
        ValueError: if some user is unattachable, no complete assignment
            respects the capacities, or the node limit is exceeded.
    """
    n_users, n_ext = scenario.n_users, scenario.n_extenders
    for user in range(n_users):
        if scenario.reachable(user).size == 0:
            raise ValueError(f"user {user} has no reachable extender")
    if plc_mode == "fixed":
        caps = scenario.plc_rates / max(n_ext, 1)
    else:
        caps = scenario.plc_rates.copy()

    # Warm start: the greedy baseline's value seeds the incumbent so
    # pruning bites from the first branch.  Capacities can dead-end the
    # greedy order; the search then starts with no incumbent.
    best_value = -np.inf
    best_assignment: Optional[np.ndarray] = None
    try:
        best_assignment = greedy_assignment(scenario, plc_mode=plc_mode)
    except ValueError:
        pass
    else:
        best_value = evaluate(scenario, best_assignment, plc_mode=plc_mode,
                              require_complete=True).aggregate

    # Branch on users in order of decreasing best rate: the impactful
    # decisions happen high in the tree, where pruning saves the most.
    order = np.argsort(-scenario.wifi_rates.max(axis=1), kind="stable")
    # suffix_best[k, j]: best r_ij among users order[k:].
    suffix_best = np.zeros((n_users + 1, n_ext))
    for k in range(n_users - 1, -1, -1):
        suffix_best[k] = np.maximum(suffix_best[k + 1],
                                    scenario.wifi_rates[order[k]])

    assignment = np.full(n_users, UNASSIGNED, dtype=int)
    member_best = np.zeros(n_ext)  # best member rate per extender
    counts = np.zeros(n_ext, dtype=int)
    stats = {"expanded": 0, "pruned": 0}

    def bound(depth: int) -> float:
        reachable = np.maximum(member_best, suffix_best[depth])
        return float(np.minimum(caps, reachable).sum())

    def dfs(depth: int) -> None:
        nonlocal best_value, best_assignment
        stats["expanded"] += 1
        if stats["expanded"] > node_limit:
            raise ValueError(f"node limit {node_limit} exceeded")
        if depth == n_users:
            value = evaluate(scenario, assignment, plc_mode=plc_mode,
                             require_complete=True).aggregate
            if value > best_value + 1e-12:
                best_value = value
                best_assignment = assignment.copy()
            return
        if bound(depth) <= best_value + 1e-12:
            stats["pruned"] += 1
            return
        user = int(order[depth])
        options = scenario.reachable(user)
        # Try stronger links first: good incumbents appear early.
        options = options[np.argsort(-scenario.wifi_rates[user, options],
                                     kind="stable")]
        if depth == n_users - 1:
            # Last level: every feasible placement of the final user is a
            # complete assignment — score them all in one batched engine
            # call instead of one scalar evaluation per leaf.
            feasible = [int(j) for j in options
                        if counts[j] < scenario.capacity_of(int(j))]
            if not feasible:
                return
            stats["expanded"] += len(feasible)
            if stats["expanded"] > node_limit:
                raise ValueError(f"node limit {node_limit} exceeded")
            batch = np.tile(assignment, (len(feasible), 1))
            batch[np.arange(len(feasible)), user] = feasible
            values = evaluate_batch(scenario, batch, plc_mode=plc_mode,
                                    require_complete=True).aggregates
            for k, value in enumerate(values):
                if value > best_value + 1e-12:
                    best_value = float(value)
                    best_assignment = batch[k].copy()
            return
        for j in options:
            j = int(j)
            if counts[j] >= scenario.capacity_of(j):
                continue
            previous_best = member_best[j]
            assignment[user] = j
            counts[j] += 1
            member_best[j] = max(previous_best,
                                 scenario.wifi_rates[user, j])
            dfs(depth + 1)
            member_best[j] = previous_best
            counts[j] -= 1
            assignment[user] = UNASSIGNED

    dfs(0)
    if best_assignment is None:
        raise ValueError("no capacity-feasible complete assignment exists")
    return BnbResult(assignment=best_assignment,
                     aggregate_throughput=float(best_value),
                     nodes_expanded=stats["expanded"],
                     nodes_pruned=stats["pruned"])

"""Baseline association policies the paper compares WOLT against.

* :func:`rssi_assignment` — every user attaches to the extender with the
  strongest received signal (equivalently, the best WiFi PHY rate), the
  default behaviour of commodity PLC-WiFi extenders (§V-C).
* :func:`greedy_assignment` — the centralized online baseline (§V-B):
  users arrive one by one; the Central Controller attaches each new user
  to the extender that maximizes the aggregate end-to-end throughput given
  the already-attached users (never re-assigning them).  When every choice
  degrades the aggregate, the least-damaging extender is picked — which is
  the same argmax.
* :func:`random_assignment` — a sanity-check policy attaching each user to
  a uniformly random reachable extender.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..net.engine import evaluate_batch
from .problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

__all__ = ["rssi_assignment", "greedy_assignment", "greedy_attach_user",
           "selfish_greedy_assignment", "random_assignment"]


def _candidate_batch(scenario: Scenario, assign: np.ndarray, user: int,
                     counts: np.ndarray
                     ) -> "Tuple[List[int], Optional[np.ndarray]]":
    """Feasible extenders for ``user`` and the candidate assignment batch."""
    candidates = [int(j) for j in scenario.reachable(user)
                  if counts[j] < scenario.capacity_of(int(j))]
    if not candidates:
        return [], None
    batch = np.tile(assign, (len(candidates), 1))
    batch[np.arange(len(candidates)), user] = candidates
    return candidates, batch


def rssi_assignment(scenario: Scenario) -> np.ndarray:
    """Strongest-signal association (the commodity default).

    RSSI is monotone in the WiFi PHY rate under the paper's distance-based
    channel model, so picking the best-rate extender is the best-RSSI
    choice.  Capacity limits, when present, are honoured by falling back
    to the next-strongest extender with room.
    """
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    counts = np.zeros(scenario.n_extenders, dtype=int)
    for user in range(scenario.n_users):
        order = np.argsort(-scenario.wifi_rates[user], kind="stable")
        for j in order:
            j = int(j)
            if scenario.wifi_rates[user, j] <= MIN_USABLE_RATE:
                break
            if counts[j] < scenario.capacity_of(j):
                assignment[user] = j
                counts[j] += 1
                break
        if assignment[user] == UNASSIGNED:
            raise ValueError(f"user {user} cannot be attached anywhere")
    return assignment


def greedy_attach_user(scenario: Scenario,
                       assignment: Sequence[int],
                       user: int,
                       plc_mode: str = "redistribute") -> int:
    """Best extender for one arriving user under the greedy policy.

    Evaluates the aggregate end-to-end throughput (under ``plc_mode``)
    for each reachable extender with free capacity (existing users
    fixed) and returns the argmax; ties break toward the stronger WiFi
    link.  All candidates are scored in a single
    :func:`repro.net.engine.evaluate_batch` call.

    Raises:
        ValueError: if the user cannot be attached anywhere.
    """
    assign = np.array(assignment, dtype=int)
    counts = np.bincount(assign[assign != UNASSIGNED],
                         minlength=scenario.n_extenders)
    candidates, batch = _candidate_batch(scenario, assign, user, counts)
    if not candidates:
        raise ValueError(f"user {user} cannot be attached anywhere")
    aggregates = evaluate_batch(scenario, batch,
                                plc_mode=plc_mode).aggregates
    best_k = 0
    for k in range(1, len(candidates)):
        if ((aggregates[k], scenario.wifi_rates[user, candidates[k]])
                > (aggregates[best_k],
                   scenario.wifi_rates[user, candidates[best_k]])):
            best_k = k
    return candidates[best_k]


def greedy_assignment(scenario: Scenario,
                      arrival_order: Optional[Sequence[int]] = None,
                      plc_mode: str = "redistribute") -> np.ndarray:
    """Centralized online greedy association (§V-B baseline).

    Args:
        scenario: the network snapshot.
        arrival_order: order in which users arrive (defaults to index
            order).  The greedy baseline is order-dependent by design.
        plc_mode: PLC sharing law the controller's measurements reflect
            (the default "redistribute" is what a real deployment would
            observe).

    Returns:
        A complete assignment array.

    Raises:
        ValueError: if an arriving user cannot be attached anywhere.
    """
    if arrival_order is None:
        arrival_order = range(scenario.n_users)
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    for user in arrival_order:
        assignment[user] = greedy_attach_user(scenario, assignment,
                                              int(user), plc_mode=plc_mode)
    return assignment


def random_assignment(scenario: Scenario,
                      rng: Optional[np.random.Generator] = None
                      ) -> np.ndarray:
    """Uniformly random reachable extender per user (sanity baseline).

    ``rng`` defaults to ``np.random.default_rng(0)`` — the baseline is
    random *across seeds*, never across repeated identical calls.
    """
    # woltlint: disable=W010 — documented API default for ad-hoc direct
    # calls; run_policy always passes a SeedSequence-derived generator.
    rng = rng if rng is not None else np.random.default_rng(0)
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    counts = np.zeros(scenario.n_extenders, dtype=int)
    for user in range(scenario.n_users):
        options = [int(j) for j in scenario.reachable(user)
                   if counts[j] < scenario.capacity_of(int(j))]
        if not options:
            raise ValueError(f"user {user} cannot be attached anywhere")
        j = int(rng.choice(options))
        assignment[user] = j
        counts[j] += 1
    return assignment


def selfish_greedy_assignment(scenario: Scenario,
                              arrival_order: Optional[Sequence[int]] = None,
                              plc_mode: str = "redistribute"
                              ) -> np.ndarray:
    """Self-interested greedy association (the §III-B case study policy).

    Each arriving user picks the extender that maximizes its *own*
    end-to-end throughput given the users already attached (Fig. 3c),
    rather than the network aggregate.  Kept as an extra baseline: it is
    what uncoordinated rate-aware clients would do.  Each arrival's
    candidates are scored with one batched engine call.
    """
    if arrival_order is None:
        arrival_order = range(scenario.n_users)
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    counts = np.zeros(scenario.n_extenders, dtype=int)
    for user in arrival_order:
        user = int(user)
        candidates, batch = _candidate_batch(scenario, assignment,
                                             user, counts)
        if not candidates:
            raise ValueError(f"user {user} cannot be attached anywhere")
        report = evaluate_batch(scenario, batch, plc_mode=plc_mode)
        own = report.user_throughputs[:, user]
        best_k = 0
        for k in range(1, len(candidates)):
            if ((own[k], scenario.wifi_rates[user, candidates[k]])
                    > (own[best_k],
                       scenario.wifi_rates[user, candidates[best_k]])):
                best_k = k
        best_j = candidates[best_k]
        assignment[user] = best_j
        counts[best_j] += 1
    return assignment

"""Phase I of WOLT: the relaxed assignment problem (Theorem 2).

Phase I solves Problem 1 with constraint (7) relaxed (not every user needs
to be connected) and constraint (8) tightened to "at least one user per
extender".  Lemma 2 shows an optimum of this relaxation attaches *exactly
one* user to each extender, and Theorem 2 shows the relaxation is then an
ordinary linear assignment problem with task utilities

    u_ij = min(c_j / |A|, r_ij)

— the end-to-end rate user ``i`` would see alone on extender ``j`` when
all ``|A|`` extenders time-share the PLC backhaul equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hungarian import InfeasibleAssignmentError, solve_assignment
from .problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

__all__ = ["phase1_utilities", "Phase1Result", "solve_phase1"]


def phase1_utilities(scenario: Scenario) -> np.ndarray:
    """Task-utility matrix ``u_ij = min(c_j/|A|, r_ij)`` (Alg. 1, l. 1-3).

    Unreachable (user, extender) pairs get ``-inf`` so the assignment
    solver never selects them.
    """
    n_ext = scenario.n_extenders
    fair_plc = scenario.plc_rates / max(n_ext, 1)
    utilities = np.minimum(fair_plc[np.newaxis, :], scenario.wifi_rates)
    return np.where(scenario.wifi_rates > MIN_USABLE_RATE, utilities, -np.inf)


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of Phase I.

    Attributes:
        assignment: length-``n_users`` array; the Phase-I users carry their
            extender index, everyone else is :data:`UNASSIGNED`.
        anchored_users: the set ``U1`` — indices of users placed in Phase I.
        utilities: the task-utility matrix used.
        objective: sum of utilities of the selected pairs (the relaxed
            Problem-1 optimum under Lemma 2).
        unmatched_extenders: extenders left without a Phase-I user, which
            only happens when there are fewer users than extenders or when
            reachability makes a perfect extender matching impossible.
    """

    assignment: np.ndarray
    anchored_users: np.ndarray
    utilities: np.ndarray
    objective: float
    unmatched_extenders: np.ndarray


def solve_phase1(scenario: Scenario,
                 utilities: Optional[np.ndarray] = None) -> Phase1Result:
    """Solve the Phase-I assignment problem.

    One distinct user is matched to every extender (when user supply and
    reachability allow) so as to maximize total utility, using the
    from-scratch Hungarian solver.

    Args:
        scenario: the network snapshot.
        utilities: optional pre-computed utility matrix (defaults to
            :func:`phase1_utilities`).

    Returns:
        A :class:`Phase1Result`.
    """
    if utilities is None:
        utilities = phase1_utilities(scenario)
    utilities = np.asarray(utilities, dtype=float)
    if utilities.shape != (scenario.n_users, scenario.n_extenders):
        raise ValueError("utilities must be a (n_users, n_extenders) matrix")

    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    candidate_ext = np.flatnonzero(np.any(np.isfinite(utilities), axis=0))
    if candidate_ext.size == 0 or scenario.n_users == 0:
        return Phase1Result(assignment=assignment,
                            anchored_users=np.empty(0, dtype=int),
                            utilities=utilities, objective=0.0,
                            unmatched_extenders=np.arange(
                                scenario.n_extenders))

    sub = utilities[:, candidate_ext]
    try:
        rows, cols = solve_assignment(sub)
    except InfeasibleAssignmentError:
        # Reachability prevents a perfect matching on all candidate
        # extenders (a Hall-condition violation).  Restrict to a maximum
        # matchable subset of extenders and retry.
        matchable = _max_matchable_extenders(sub)
        candidate_ext = candidate_ext[matchable]
        sub = utilities[:, candidate_ext]
        rows, cols = solve_assignment(sub)

    users = rows
    extenders = candidate_ext[cols]
    assignment[users] = extenders
    objective = float(utilities[users, extenders].sum())
    matched_mask = np.zeros(scenario.n_extenders, dtype=bool)
    matched_mask[extenders] = True
    return Phase1Result(assignment=assignment,
                        anchored_users=np.sort(users),
                        utilities=utilities,
                        objective=objective,
                        unmatched_extenders=np.flatnonzero(~matched_mask))


def _max_matchable_extenders(utilities: np.ndarray) -> np.ndarray:
    """Columns that admit a simultaneous matching to distinct rows:
    those of a maximum matching of the finite-utility pairs, found by
    augmenting paths from each row in turn (any maximum matching will
    do)."""
    feasible = np.isfinite(utilities)
    owner = np.full(utilities.shape[1], -1)

    def augment(row: int, seen: np.ndarray) -> bool:
        for col in np.flatnonzero(feasible[row]):
            if not seen[col]:
                seen[col] = True
                if owner[col] < 0 or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    for row in range(utilities.shape[0]):
        augment(row, np.zeros(utilities.shape[1], dtype=bool))
    return np.flatnonzero(owner >= 0)

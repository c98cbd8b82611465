"""Decision guard: deterministic repair at the decision boundary.

The solvers trust a validated :class:`~repro.core.problem.Scenario`
(their invariants, Lemma 2 and Theorem 3, are checked by tests).  An
online loop's decision is checked against the paper's own invariants
instead: every directive names an existing extender its user can hear,
and per-extender capacities (constraint (8)) hold.

:meth:`DecisionGuard.repair_assignment` repairs violations
deterministically instead of crashing.  No production loop calls it:
the fleet applies validated solves and carry-forwards it has already
detached from unusable extenders (:func:`~repro.core.problem.servable`,
the reachability step below), so a repair there could change nothing.
A dropped or evicted user is left
:data:`~repro.core.problem.UNASSIGNED`: the guard never picks a new
extender for anyone.  Malformed input with no deterministic repair
raises :class:`ValueError`.  Scan-report sanitation is
:func:`repro.core.health.sanitize_rates`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .problem import UNASSIGNED, Scenario, servable

__all__ = ["DecisionGuard"]


class DecisionGuard:
    """Repairs association decisions.

    The guard holds no state: each call decides from its arguments
    alone.
    """

    def repair_assignment(self, scenario: Scenario,
                          assignment: Sequence[int]) -> np.ndarray:
        """Repair every invariant violation deterministically.

        In order: drop out-of-range directives, drop directives onto
        unreachable extenders (:func:`~repro.core.problem.servable`),
        then evict the weakest members of over-capacity extenders
        (lowest WiFi rate first, ties toward the higher user index).
        Dropped and evicted users are left UNASSIGNED; an UNASSIGNED
        input entry is not a violation.

        Returns:
            A new array (the input is not mutated): an equal copy of a
            violation-free assignment, so repair is idempotent.

        Raises:
            ValueError: the assignment does not have one entry per
                user.
        """
        assign = np.array(assignment, dtype=int).ravel()
        if assign.shape[0] != scenario.n_users:
            raise ValueError(
                f"assignment has {assign.shape[0]} entries for "
                f"{scenario.n_users} users — no deterministic repair "
                "exists for a malformed vector")
        attached = assign != UNASSIGNED
        assign[attached & ((assign < 0)
                           | (assign >= scenario.n_extenders))] = UNASSIGNED
        assign = servable(scenario, assign)

        if scenario.capacities is not None:
            for j in range(scenario.n_extenders):
                members = np.flatnonzero(assign == j)
                cap = int(scenario.capacities[j])
                if members.size <= cap:
                    continue
                strongest_first = sorted(
                    members.tolist(),
                    key=lambda u: (-scenario.wifi_rates[u, j], u))
                assign[strongest_first[cap:]] = UNASSIGNED
        return assign

"""Decision guard: deterministic repair at the decision boundary.

The solvers trust a validated :class:`~repro.core.problem.Scenario`
(their invariants, Lemma 2 and Theorem 3, are checked by tests).  What
no solver can trust is what reaches an online loop from outside: scan
reports from real NIC drivers go NaN, and an association decided on a
stale report can command a user onto a dead BSS.

:class:`DecisionGuard` checks against the paper's own invariants —
every directive names an existing extender its user can hear,
per-extender capacities (constraint (8)) hold, and telemetry-derived
rates are finite and non-negative — and repairs violations
deterministically instead of crashing.  Only
:class:`repro.core.controller.CentralController` holds one, to sanitize
scan reports at receipt.  No production loop calls
:meth:`~DecisionGuard.repair_assignment`: the fleet applies validated
solves and carry-forwards it has already detached from unusable
extenders, so a repair there could change nothing.  A dropped or
evicted user is left :data:`~repro.core.problem.UNASSIGNED`: the guard
never picks a new extender for anyone.  Malformed input with no
deterministic repair raises :class:`ValueError`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

__all__ = ["DecisionGuard"]


class DecisionGuard:
    """Repairs association decisions and sanitizes telemetry.

    The guard holds no state: each call decides from its arguments
    alone.
    """

    def repair_assignment(self, scenario: Scenario,
                          assignment: Sequence[int]) -> np.ndarray:
        """Repair every invariant violation deterministically.

        In order: drop out-of-range directives, drop directives onto
        unreachable extenders, then evict the weakest members of
        over-capacity extenders (lowest WiFi rate first, ties toward
        the higher user index).  Dropped and evicted users are left
        UNASSIGNED; an UNASSIGNED input entry is not a violation.

        Returns:
            A new array (the input is not mutated): an equal copy of a
            violation-free assignment, so repair is idempotent.

        Raises:
            ValueError: the assignment does not have one entry per
                user.
        """
        assign = np.asarray(assignment, dtype=int).ravel()
        if assign.shape[0] != scenario.n_users:
            raise ValueError(
                f"assignment has {assign.shape[0]} entries for "
                f"{scenario.n_users} users — no deterministic repair "
                "exists for a malformed vector")
        assign = assign.copy()

        attached = assign != UNASSIGNED
        assign[attached & ((assign < 0)
                           | (assign >= scenario.n_extenders))] = UNASSIGNED

        idx = np.flatnonzero(assign != UNASSIGNED)
        if idx.size:
            rates = scenario.wifi_rates[idx, assign[idx]]
            assign[idx[rates <= MIN_USABLE_RATE]] = UNASSIGNED

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

    def sanitize_rates(self, rates: Sequence[float],
                       fallback: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, int]:
        """Replace non-finite / negative telemetry entries.

        Non-finite entries take the corresponding ``fallback``
        (last-known-good) value when one is provided and finite, else
        ``0.0`` (unreachable); negative entries are clamped to ``0.0``.

        Returns:
            ``(clean_rates, n_replaced)`` — a new array (the input is
            not mutated) and the number of entries replaced.

        Raises:
            ValueError: ``fallback`` does not match the shape of
                ``rates``.
        """
        arr = np.array(rates, dtype=float)
        nonfinite = ~np.isfinite(arr)
        negative = np.isfinite(arr) & (arr < 0)
        n_replaced = int(nonfinite.sum() + negative.sum())
        if n_replaced == 0:
            return arr, 0
        if fallback is not None:
            fb = np.asarray(fallback, dtype=float)
            if fb.shape != arr.shape:
                raise ValueError("fallback shape must match rates")
            safe_fb = np.where(np.isfinite(fb) & (fb >= 0), fb, 0.0)
            arr[nonfinite] = safe_fb[nonfinite]
        else:
            arr[nonfinite] = 0.0
        arr[negative] = 0.0
        return arr, n_replaced

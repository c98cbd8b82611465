"""Decision guard: invariant validation and deterministic repair at
the decision boundary.

The solvers in this package trust a validated
:class:`~repro.core.problem.Scenario`: WOLT's Phase I is an exact
assignment (Lemma 2) and Phase II lands on an integral point (Theorem
3), properties the test-suite checks directly.  What no solver can
trust is what reaches an online loop from outside: scan reports from
real NIC drivers go NaN, an extender drops out under a client, and an
association decided on a stale report can command a user onto a dead
BSS.

:class:`DecisionGuard` checks a decision once, where an online loop
applies it (:class:`repro.core.controller.CentralController` and
:class:`repro.fleet.service.FleetService`), against the paper's own
invariants

* every directive names an existing extender that its user can hear
  (a nonzero WiFi rate);
* per-extender user capacities (constraint (8)) hold;
* telemetry-derived rates are finite and non-negative

and *repairs* violations deterministically instead of crashing:
out-of-range and unreachable directives are dropped and over-capacity
extenders evict their weakest members.  A dropped or evicted user is
left :data:`~repro.core.problem.UNASSIGNED`: the guard never picks a
new extender for anyone.  Every check returns a structured
:class:`GuardReport`; repair is a no-op on a violation-free
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

__all__ = ["GuardError", "GuardViolation", "GuardReport", "DecisionGuard"]


class GuardError(ValueError):
    """A violation the guard cannot repair.

    Raised for malformed inputs with no deterministic repair: an
    assignment vector of the wrong length, or a telemetry fallback of
    the wrong shape.
    """


@dataclass(frozen=True)
class GuardViolation:
    """One invariant violation found by the guard.

    Attributes:
        code: stable machine-readable identifier (see the invariants
            table in ``docs/ROBUSTNESS.md``).
        message: human-readable description.
        users: user indices involved (if any).
        extenders: extender indices involved (if any).
    """

    code: str
    message: str
    users: Tuple[int, ...] = ()
    extenders: Tuple[int, ...] = ()


@dataclass(frozen=True)
class GuardReport:
    """Structured diagnostics from one guard check or repair.

    Attributes:
        source: the stage that produced the checked artifact
            (``"fleet"``, ``"scan-report"``, ...).
        violations: every invariant violation found (empty when clean).
        repaired_users: users whose assignment the repair changed.
        sanitized_entries: telemetry entries replaced by
            :meth:`DecisionGuard.sanitize_rates`.
    """

    source: str
    violations: Tuple[GuardViolation, ...] = ()
    repaired_users: Tuple[int, ...] = ()
    sanitized_entries: int = 0

    @property
    def clean(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def codes(self) -> Tuple[str, ...]:
        """The violation codes, in detection order."""
        return tuple(v.code for v in self.violations)


class DecisionGuard:
    """Validates and repairs association decisions.

    Attributes:
        checks: total check/repair calls.
        violation_count: total violations detected.
        repairs: total users whose assignment a repair changed.
        sanitized_entries: total telemetry entries replaced by
            :meth:`sanitize_rates`.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.violation_count = 0
        self.repairs = 0
        self.sanitized_entries = 0

    def _file(self, report: GuardReport) -> GuardReport:
        """Record a report in the counters."""
        self.checks += 1
        self.violation_count += len(report.violations)
        self.repairs += len(report.repaired_users)
        self.sanitized_entries += report.sanitized_entries
        return report

    # ------------------------------------------------------------------
    # assignment invariants

    def repair_assignment(self, scenario: Scenario,
                          assignment: Sequence[int],
                          source: str = "decision"
                          ) -> Tuple[np.ndarray, GuardReport]:
        """Detect violations and repair them deterministically.

        The repair sequence is: drop out-of-range directives, drop
        directives onto unreachable extenders, then evict the weakest
        members of over-capacity extenders (lowest WiFi rate first,
        ties broken toward the higher user index).  Every dropped or
        evicted user is left UNASSIGNED; an UNASSIGNED input entry is
        not a violation.

        Repair is idempotent and is a no-op (bit-identical output) on
        a violation-free assignment.

        Returns:
            ``(repaired_assignment, report)``.
        """
        original = self._as_vector(scenario, assignment)
        assign = original.copy()
        violations: List[GuardViolation] = []

        attached = assign != UNASSIGNED
        bad = attached & ((assign < 0) | (assign >= scenario.n_extenders))
        if np.any(bad):
            users = tuple(int(u) for u in np.flatnonzero(bad))
            violations.append(GuardViolation(
                code="out-of-range-extender",
                message=f"users {list(users)} assigned to a nonexistent "
                        "extender index",
                users=users))
            assign[bad] = UNASSIGNED

        idx = np.flatnonzero(assign != UNASSIGNED)
        if idx.size:
            rates = scenario.wifi_rates[idx, assign[idx]]
            unreach = idx[rates <= MIN_USABLE_RATE]
            if unreach.size:
                users = tuple(int(u) for u in unreach)
                violations.append(GuardViolation(
                    code="unreachable-extender",
                    message=f"users {list(users)} assigned to an "
                            "extender they cannot hear",
                    users=users))
                assign[unreach] = UNASSIGNED

        if scenario.capacities is not None:
            for j in range(scenario.n_extenders):
                members = np.flatnonzero(assign == j)
                cap = int(scenario.capacities[j])
                if members.size <= cap:
                    continue
                order = sorted(
                    (int(u) for u in members),
                    key=lambda u: (-scenario.wifi_rates[u, j], u))
                evicted = tuple(sorted(order[cap:]))
                violations.append(GuardViolation(
                    code="over-capacity",
                    message=f"extender {j} holds {members.size} users "
                            f"against capacity {cap}; evicting "
                            f"{list(evicted)}",
                    users=evicted, extenders=(j,)))
                assign[list(evicted)] = UNASSIGNED

        repaired = tuple(int(u)
                         for u in np.flatnonzero(assign != original))
        report = self._file(GuardReport(
            source=source, violations=tuple(violations),
            repaired_users=repaired))
        return assign, report

    @staticmethod
    def _as_vector(scenario: Scenario,
                   assignment: Sequence[int]) -> np.ndarray:
        assign = np.asarray(assignment, dtype=int).ravel()
        if assign.shape[0] != scenario.n_users:
            raise GuardError(
                f"assignment has {assign.shape[0]} entries for "
                f"{scenario.n_users} users — no deterministic repair "
                "exists for a malformed vector")
        return assign

    # ------------------------------------------------------------------
    # telemetry sanitation

    def sanitize_rates(self, rates: Sequence[float],
                       fallback: Optional[np.ndarray] = None,
                       source: str = "telemetry"
                       ) -> Tuple[np.ndarray, GuardReport]:
        """Replace non-finite / negative telemetry entries.

        Non-finite entries take the corresponding ``fallback``
        (last-known-good) value when one is provided and finite, else
        ``0.0`` (unreachable); negative entries are clamped to ``0.0``.
        The number of replaced entries is recorded on the report and
        the guard's :attr:`sanitized_entries` counter.

        Returns:
            ``(clean_rates, report)`` — a new array; the input is not
            mutated.
        """
        arr = np.array(rates, dtype=float)
        nonfinite = ~np.isfinite(arr)
        negative = np.isfinite(arr) & (arr < 0)
        n_fixed = int(nonfinite.sum() + negative.sum())
        if n_fixed == 0:
            report = self._file(GuardReport(source=source))
            return arr, report
        if fallback is not None:
            fb = np.asarray(fallback, dtype=float)
            if fb.shape != arr.shape:
                raise GuardError("fallback shape must match rates")
            safe_fb = np.where(np.isfinite(fb) & (fb >= 0), fb, 0.0)
            arr[nonfinite] = safe_fb[nonfinite]
        else:
            arr[nonfinite] = 0.0
        arr[negative] = 0.0
        violation = GuardViolation(
            code="nonfinite-telemetry",
            message=f"{n_fixed} non-finite or negative telemetry "
                    "entries replaced")
        report = self._file(GuardReport(source=source,
                                        violations=(violation,),
                                        sanitized_entries=n_fixed))
        return arr, report

"""Data model for the PLC-WiFi user-assignment problem (Problem 1).

A :class:`Scenario` captures everything the association algorithms need:
the WiFi PHY rate matrix ``r_ij`` between every user and extender, the PLC
PHY rate ``c_j`` of every extender's backhaul link, and (optionally) the
per-extender user capacity ``B_j`` of constraint (8).

An *assignment* is represented as an integer array of length ``n_users``
whose entry is the extender index a user attaches to, or
:data:`UNASSIGNED` (-1) for a user not (yet) attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["UNASSIGNED", "Scenario", "fail_extenders", "same_bits",
           "servable", "validate_assignment", "validate_assignment_batch"]

#: Sentinel extender index for an unattached user.
UNASSIGNED = -1

#: Rate below which a WiFi link is considered unusable (no association).
MIN_USABLE_RATE = 1e-9


@dataclass(frozen=True)
class Scenario:
    """A static snapshot of the PLC-WiFi network.

    Attributes:
        wifi_rates: ``(n_users, n_extenders)`` matrix of WiFi PHY rates
            ``r_ij`` in Mbps.  A non-positive entry marks an unreachable
            extender for that user (association forbidden).
        plc_rates: length-``n_extenders`` vector of PLC PHY rates ``c_j``
            in Mbps (the isolation throughput of each backhaul link).
        capacities: optional length-``n_extenders`` vector of the maximum
            number of users per extender (constraint (8), ``B_j``).  When
            omitted, extenders are uncapacitated.
        user_ids: optional stable identifiers for the users (defaults to
            ``0..n_users-1``); carried through dynamic simulations so that
            re-assignment accounting can track individuals.
    """

    wifi_rates: np.ndarray
    plc_rates: np.ndarray
    capacities: Optional[np.ndarray] = None
    user_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        wifi = np.atleast_2d(np.asarray(self.wifi_rates, dtype=float))
        plc = np.asarray(self.plc_rates, dtype=float).ravel()
        object.__setattr__(self, "wifi_rates", wifi)
        object.__setattr__(self, "plc_rates", plc)
        if wifi.ndim != 2:
            raise ValueError("wifi_rates must be a 2-D matrix")
        if wifi.shape[1] != plc.shape[0]:
            raise ValueError(
                f"wifi_rates has {wifi.shape[1]} extender columns but "
                f"plc_rates has {plc.shape[0]} entries")
        if not np.all(np.isfinite(wifi)) or not np.all(np.isfinite(plc)):
            raise ValueError("rates must be finite (no NaN or inf)")
        if np.any(plc < 0):
            raise ValueError("PLC rates must be non-negative")
        if self.capacities is not None:
            caps = np.asarray(self.capacities, dtype=int).ravel()
            if caps.shape[0] != plc.shape[0]:
                raise ValueError("capacities must have one entry per extender")
            if np.any(caps < 0):
                raise ValueError("capacities must be non-negative")
            object.__setattr__(self, "capacities", caps)
        if self.user_ids is not None:
            ids = np.asarray(self.user_ids).ravel()
            if ids.shape[0] != wifi.shape[0]:
                raise ValueError("user_ids must have one entry per user")
            object.__setattr__(self, "user_ids", ids)

    @property
    def n_users(self) -> int:
        """Number of users ``|U|``."""
        return self.wifi_rates.shape[0]

    @property
    def n_extenders(self) -> int:
        """Number of extenders ``|A|``."""
        return self.plc_rates.shape[0]

    def reachable(self, user: int) -> np.ndarray:
        """Indices of the extenders user ``user`` can associate with."""
        return np.flatnonzero(self.wifi_rates[user] > MIN_USABLE_RATE)

    def capacity_of(self, extender: int) -> float:
        """User capacity ``B_j`` of an extender (``inf`` if uncapacitated)."""
        if self.capacities is None:
            return float("inf")
        return float(self.capacities[extender])

    def subset_users(self, users: Sequence[int]) -> "Scenario":
        """A scenario restricted to the given user indices (order kept)."""
        idx = np.asarray(users, dtype=int)
        ids = None if self.user_ids is None else self.user_ids[idx]
        return Scenario(wifi_rates=self.wifi_rates[idx],
                        plc_rates=self.plc_rates,
                        capacities=self.capacities,
                        user_ids=ids)

    def with_users(self, wifi_rows: np.ndarray,
                   user_ids: Optional[np.ndarray] = None) -> "Scenario":
        """A scenario with additional users appended."""
        rows = np.atleast_2d(np.asarray(wifi_rows, dtype=float))
        new_wifi = np.vstack([self.wifi_rates, rows])
        ids = None
        if self.user_ids is not None and user_ids is not None:
            ids = np.concatenate([self.user_ids, np.asarray(user_ids).ravel()])
        return Scenario(wifi_rates=new_wifi, plc_rates=self.plc_rates,
                        capacities=self.capacities, user_ids=ids)


def same_bits(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Whether two optional arrays hold the same dtype, shape and bytes.

    A lossless key, unlike :func:`numpy.array_equal`, which calls
    ``-0.0`` and ``0.0`` equal.
    """
    if a is None or b is None:
        return a is b
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def fail_extenders(scenario: Scenario,
                   failed: Sequence[int],
                   allow_all_failed: bool = False) -> Scenario:
    """A scenario with the given extenders dead.

    Dead extenders keep their column (indices stay stable) but offer
    zero WiFi rate (nobody can associate) and zero PLC rate.

    Killing *every* extender produces a scenario no solver can place a
    single user in — almost always a caller bug (a mis-built failure
    schedule), so it raises unless ``allow_all_failed`` explicitly
    opts into modelling a total blackout.
    """
    failed_idx = np.asarray(list(failed), dtype=int)
    if failed_idx.size and (failed_idx.min() < 0
                            or failed_idx.max() >= scenario.n_extenders):
        raise ValueError("failed extender index out of range")
    # A mask counts distinct extenders without np.unique, whose first
    # call imports numpy.ma.
    dead = np.zeros(scenario.n_extenders, dtype=bool)
    dead[failed_idx] = True
    if not allow_all_failed and failed_idx.size and dead.all():
        raise ValueError(
            f"all {scenario.n_extenders} extenders would be dead — no "
            "user can associate anywhere; pass allow_all_failed=True "
            "to model a total blackout deliberately")
    wifi = scenario.wifi_rates.copy()
    plc = scenario.plc_rates.copy()
    wifi[:, failed_idx] = 0.0
    plc[failed_idx] = 0.0
    return Scenario(wifi_rates=wifi, plc_rates=plc,
                    capacities=scenario.capacities,
                    user_ids=scenario.user_ids)


def servable(scenario: Scenario, assignment: Sequence[int]) -> np.ndarray:
    """A copy of ``assignment`` with users on unusable links detached.

    The one keep-or-detach rule of both online loops: a user stays on
    its extender only while ``scenario`` rates the link above
    :data:`MIN_USABLE_RATE`, the bar :func:`validate_assignment`
    applies.  Entries must be :data:`UNASSIGNED` or in range.
    """
    kept = np.array(assignment, dtype=int)
    attached = np.flatnonzero(kept != UNASSIGNED)
    if attached.size:
        rates = scenario.wifi_rates[attached, kept[attached]]
        kept[attached[rates <= MIN_USABLE_RATE]] = UNASSIGNED
    return kept


def validate_assignment(scenario: Scenario,
                        assignment: Sequence[int],
                        require_complete: bool = True) -> np.ndarray:
    """Check an assignment against the constraints of Problem 1.

    Constraint (8) — at most ``B_j`` users per extender — is enforced
    whenever the scenario defines capacities.

    Args:
        scenario: the network snapshot.
        assignment: per-user extender index (or :data:`UNASSIGNED`).
        require_complete: enforce constraint (7) — every user attached.

    Returns:
        The assignment as a validated integer numpy array.

    Raises:
        ValueError: on any constraint violation.
    """
    assign = np.asarray(assignment, dtype=int).ravel()
    if assign.shape[0] != scenario.n_users:
        raise ValueError(
            f"assignment has {assign.shape[0]} entries for "
            f"{scenario.n_users} users")
    attached = assign != UNASSIGNED
    bad = attached & ((assign < 0) | (assign >= scenario.n_extenders))
    if bad.any():
        raise ValueError(f"extender index out of range for users "
                         f"{bad.nonzero()[0].tolist()}")
    if require_complete and not attached.all():
        raise ValueError(
            f"constraint (7) violated: users "
            f"{(~attached).nonzero()[0].tolist()} unassigned")
    users = attached.nonzero()[0]
    if users.size:
        low = scenario.wifi_rates[users, assign[users]] <= MIN_USABLE_RATE
        if low.any():
            raise ValueError(f"users {users[low].tolist()} assigned to an "
                             "unreachable extender")
    if scenario.capacities is not None:
        counts = np.bincount(assign[users], minlength=scenario.n_extenders)
        over = (counts > scenario.capacities).nonzero()[0]
        if over.size:
            raise ValueError(
                f"constraint (8) violated at extenders {over.tolist()}")
    return assign


def validate_assignment_batch(scenario: Scenario,
                              assignments: Sequence[Sequence[int]],
                              require_complete: bool = True) -> np.ndarray:
    """Vectorized :func:`validate_assignment` for a batch of candidates.

    Args:
        scenario: the network snapshot.
        assignments: ``(B, n_users)`` matrix of per-user extender indices
            (or :data:`UNASSIGNED`); a 1-D assignment is promoted to a
            batch of one.
        require_complete: enforce constraint (7) on every row;
            constraint (8) is enforced on every row whenever the
            scenario defines capacities.

    Returns:
        The assignments as a validated ``(B, n_users)`` integer array.

    Raises:
        ValueError: on any constraint violation in any row (the message
            names the offending batch rows).
    """
    assign = np.atleast_2d(np.asarray(assignments, dtype=int))
    if assign.ndim != 2 or assign.shape[1] != scenario.n_users:
        raise ValueError(
            f"assignments must be (B, {scenario.n_users}); got shape "
            f"{assign.shape}")
    attached = assign != UNASSIGNED
    bad = attached & ((assign < 0) | (assign >= scenario.n_extenders))
    if np.any(bad):
        raise ValueError(
            f"extender index out of range in batch rows "
            f"{sorted(set(np.nonzero(bad)[0].tolist()))}")
    if require_complete and not np.all(attached):
        raise ValueError(
            f"constraint (7) violated in batch rows "
            f"{sorted(set(np.nonzero(~attached)[0].tolist()))}")
    if np.any(attached):
        safe = np.where(attached, assign, 0)
        rates = scenario.wifi_rates[
            np.arange(scenario.n_users)[np.newaxis, :], safe]
        unreachable = attached & (rates <= MIN_USABLE_RATE)
        if np.any(unreachable):
            raise ValueError(
                f"users assigned to an unreachable extender in batch rows "
                f"{sorted(set(np.nonzero(unreachable)[0].tolist()))}")
    if scenario.capacities is not None:
        n_batch = assign.shape[0]
        n_ext = scenario.n_extenders
        flat = (np.arange(n_batch)[:, np.newaxis] * n_ext
                + np.where(attached, assign, 0))[attached]
        counts = np.bincount(flat, minlength=n_batch * n_ext)
        counts = counts.reshape(n_batch, n_ext)
        over = counts > scenario.capacities[np.newaxis, :]
        if np.any(over):
            raise ValueError(
                f"constraint (8) violated in batch rows "
                f"{sorted(set(np.nonzero(over)[0].tolist()))}")
    return assign

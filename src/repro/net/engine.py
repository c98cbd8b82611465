"""End-to-end throughput engine for concatenated PLC-WiFi links.

This is the measurement-calibrated network model every association policy
is evaluated against.  Given a :class:`~repro.core.problem.Scenario` and a
user→extender assignment, the engine computes, per extender:

1. the WiFi-side aggregate throughput ``T_WiFi_j`` (Eq. (1), throughput-fair
   sharing with the 802.11 performance anomaly), which is the *offered
   load* the extender presents to the PLC backhaul;
2. the PLC-side grant, by allocating the shared backhaul medium time either
   max-min fairly with leftover redistribution (the behaviour measured on
   the testbed, Fig. 3c) or with the plain time-fair law of Eq. (2);
3. the end-to-end extender throughput
   ``T_j = min(T_WiFi_j, time_share_j * c_j)``,
   split equally among the extender's users (TCP long-term fairness plus
   the throughput-fair WiFi MAC make per-user shares equal).

The engine is deliberately analytic — Section V-A of the paper validates an
equivalent fluid model against the hardware testbed (Fig. 4c); the
slot-level MAC simulators in :mod:`repro.wifi.mac` and :mod:`repro.plc.mac`
independently validate the two sharing laws.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from ..core.problem import (UNASSIGNED, Scenario, validate_assignment,
                            validate_assignment_batch)
from ..plc.sharing import (BatchPlcAllocation, PLC_MODES, PlcAllocation,
                           allocate_backhaul, allocate_backhaul_batch,
                           backhaul_throughputs)
from ..wifi.sharing import _EPS as _RATE_EPS
from ..wifi.sharing import cell_throughputs, cell_throughputs_batch

__all__ = ["ThroughputReport", "BatchThroughputReport", "DeltaEvaluator",
           "evaluate", "evaluate_batch",
           "EngineCallStats", "count_engine_calls"]


@dataclass
class EngineCallStats:
    """Live counters of engine invocations (see :func:`count_engine_calls`).

    Attributes:
        scalar_calls: scalar evaluations — :func:`evaluate` invocations
            plus per-candidate scalar scoring inside the Phase-II
            reference loops of ``tests/oracles.py``.
        batch_calls: vectorized evaluations — :func:`evaluate_batch`
            invocations plus Phase-II batched gain sweeps.
        batch_rows: total candidates scored across all batched
            evaluations.
        delta_moves: single-user moves scored or committed
            incrementally by a :class:`DeltaEvaluator` (only the
            touched cells were recomputed).
    """

    scalar_calls: int = 0
    batch_calls: int = 0
    batch_rows: int = 0
    delta_moves: int = 0


#: Stack of active counter frames (the engine increments every frame, so
#: nested ``count_engine_calls`` blocks each see their own totals).
_COUNTER_STACK: "List[EngineCallStats]" = []


@contextmanager
def count_engine_calls() -> Iterator[EngineCallStats]:
    """Count engine invocations within a ``with`` block.

    The counting happens inside :func:`evaluate` / :func:`evaluate_batch`
    themselves, so call sites that bound the functions at import time
    (``from ..net.engine import evaluate``) are counted too.  Used by the
    test-suite to assert that the batched search paths issue fewer scalar
    engine calls than the candidates they score.
    """
    stats = EngineCallStats()
    _COUNTER_STACK.append(stats)
    try:
        yield stats
    finally:
        _COUNTER_STACK.remove(stats)


def _record(scalar: int = 0, batch: int = 0, rows: int = 0,
            delta: int = 0) -> None:
    for stats in _COUNTER_STACK:
        stats.scalar_calls += scalar
        stats.batch_calls += batch
        stats.batch_rows += rows
        stats.delta_moves += delta


@dataclass(frozen=True)
class ThroughputReport:
    """Full throughput breakdown of one network configuration.

    Attributes:
        assignment: the validated per-user extender indices.
        wifi_throughputs: per-extender WiFi aggregate ``T_WiFi_j`` (Mbps).
        plc_throughputs: per-extender granted backhaul throughput (Mbps).
        plc_time_shares: per-extender granted fraction of PLC medium time.
        extender_throughputs: per-extender end-to-end throughput
            ``min(T_WiFi_j, PLC grant)`` (Mbps).
        user_throughputs: per-user end-to-end throughput (Mbps); zero for
            unassigned users.
        bottleneck_is_plc: per-extender flag — True when the backhaul is
            the binding constraint of the concatenated link.
    """

    assignment: np.ndarray
    wifi_throughputs: np.ndarray
    plc_throughputs: np.ndarray
    plc_time_shares: np.ndarray
    extender_throughputs: np.ndarray
    user_throughputs: np.ndarray
    bottleneck_is_plc: np.ndarray

    @property
    def aggregate(self) -> float:
        """Total end-to-end network throughput (the paper's objective)."""
        return float(self.extender_throughputs.sum())


def evaluate(scenario: Scenario,
             assignment: Sequence[int],
             plc_mode: str = "redistribute",
             require_complete: bool = False) -> ThroughputReport:
    """Evaluate the end-to-end throughput of an assignment.

    Args:
        scenario: the network snapshot (rates and capacities).
        assignment: per-user extender index, ``-1`` for unassigned.
        plc_mode: PLC medium-sharing law — ``"redistribute"`` (testbed
            behaviour, default), ``"active"`` (Eq. (2) over active
            extenders) or ``"fixed"`` (Problem 1's ``c_j/|A|``, the
            paper's simulator model).  See
            :func:`repro.plc.sharing.allocate_backhaul`.
        require_complete: insist that every user is attached (constraint
            (7)); policies evaluate partial assignments during search, so
            this defaults to False.

    Returns:
        A :class:`ThroughputReport`.
    """
    _record(scalar=1)
    assign = validate_assignment(scenario, assignment,
                                 require_complete=require_complete)
    wifi = cell_throughputs(scenario.wifi_rates, assign,
                            scenario.n_extenders)
    alloc: PlcAllocation = allocate_backhaul(scenario.plc_rates, wifi,
                                             mode=plc_mode)
    extender_tput = np.minimum(wifi, alloc.throughputs)
    counts = np.bincount(assign[assign != UNASSIGNED],
                         minlength=scenario.n_extenders)
    user_tput = np.zeros(scenario.n_users, dtype=float)
    attached = np.flatnonzero(assign != UNASSIGNED)
    if attached.size:
        per_user = np.zeros(scenario.n_extenders, dtype=float)
        busy = counts > 0
        per_user[busy] = extender_tput[busy] / counts[busy]
        user_tput[attached] = per_user[assign[attached]]
    bottleneck = (counts > 0) & (alloc.throughputs + 1e-12 < wifi)
    return ThroughputReport(
        assignment=assign,
        wifi_throughputs=wifi,
        plc_throughputs=alloc.throughputs,
        plc_time_shares=alloc.time_shares,
        extender_throughputs=extender_tput,
        user_throughputs=user_tput,
        bottleneck_is_plc=bottleneck,
    )


@dataclass(frozen=True)
class BatchThroughputReport:
    """Throughput breakdowns for a batch of candidate assignments.

    Every array carries a leading batch axis of size ``B`` (the number of
    candidates); the remaining axes match :class:`ThroughputReport`.

    Attributes:
        assignments: ``(B, n_users)`` validated extender indices.
        wifi_throughputs: ``(B, n_extenders)`` WiFi aggregates (Mbps).
        plc_throughputs: ``(B, n_extenders)`` granted backhaul (Mbps).
        plc_time_shares: ``(B, n_extenders)`` granted medium-time shares.
        extender_throughputs: ``(B, n_extenders)`` end-to-end throughputs.
        user_throughputs: ``(B, n_users)`` per-user throughputs (Mbps).
        bottleneck_is_plc: ``(B, n_extenders)`` backhaul-bound flags.
    """

    assignments: np.ndarray
    wifi_throughputs: np.ndarray
    plc_throughputs: np.ndarray
    plc_time_shares: np.ndarray
    extender_throughputs: np.ndarray
    user_throughputs: np.ndarray
    bottleneck_is_plc: np.ndarray

    def __len__(self) -> int:
        return self.assignments.shape[0]

    @property
    def aggregates(self) -> np.ndarray:
        """Per-candidate total end-to-end throughput, shape ``(B,)``."""
        return self.extender_throughputs.sum(axis=1)

    def best(self) -> int:
        """Index of the candidate with the highest aggregate throughput.

        Ties break toward the lowest index (numpy's first-occurrence
        argmax), matching the strict-improvement scans of the scalar
        search loops.
        """
        if len(self) == 0:
            raise ValueError("empty batch has no best candidate")
        return int(np.argmax(self.aggregates))


def evaluate_batch(scenario: Scenario,
                   assignments: Sequence[Sequence[int]],
                   plc_mode: str = "redistribute",
                   require_complete: bool = False) -> BatchThroughputReport:
    """Evaluate a whole batch of candidate assignments in one pass.

    Semantically equivalent to calling :func:`evaluate` on every row of
    ``assignments``, but the WiFi sharing law, the PLC allocation, and the
    per-user split are all vectorized across the batch, so scoring ``B``
    candidates costs a handful of numpy sweeps instead of ``B`` Python
    round-trips.  This is the hot path of every association-search
    algorithm (greedy insertion, local search, branch-and-bound leaves,
    the online baselines).

    Args:
        scenario: the network snapshot (rates and capacities).
        assignments: ``(B, n_users)`` matrix of per-user extender indices,
            ``-1`` for unassigned; a single 1-D assignment is promoted to
            a batch of one.
        plc_mode: PLC medium-sharing law (see :func:`evaluate`).
        require_complete: insist that every user is attached in every row.

    Returns:
        A :class:`BatchThroughputReport`; row ``b`` of each array holds
        candidate ``b``'s scalar report.
    """
    assign = validate_assignment_batch(scenario, assignments,
                                       require_complete=require_complete)
    n_batch = assign.shape[0]
    _record(batch=1, rows=n_batch)
    n_ext = scenario.n_extenders
    n_users = scenario.n_users
    wifi = cell_throughputs_batch(scenario.wifi_rates, assign, n_ext)
    alloc: BatchPlcAllocation = allocate_backhaul_batch(
        scenario.plc_rates, wifi, mode=plc_mode)
    extender_tput = np.minimum(wifi, alloc.throughputs)

    attached = assign != UNASSIGNED
    safe = np.where(attached, assign, 0)
    flat = (np.arange(n_batch)[:, np.newaxis] * n_ext + safe)[attached]
    counts = np.bincount(flat, minlength=n_batch * n_ext)
    counts = counts.reshape(n_batch, n_ext)

    per_user = np.zeros((n_batch, n_ext), dtype=float)
    busy = counts > 0
    per_user[busy] = extender_tput[busy] / counts[busy]
    user_tput = np.zeros((n_batch, n_users), dtype=float)
    if np.any(attached):
        user_tput[attached] = np.take_along_axis(per_user, safe,
                                                 axis=1)[attached]
    bottleneck = busy & (alloc.throughputs + 1e-12 < wifi)
    return BatchThroughputReport(
        assignments=assign,
        wifi_throughputs=wifi,
        plc_throughputs=alloc.throughputs,
        plc_time_shares=alloc.time_shares,
        extender_throughputs=extender_tput,
        user_throughputs=user_tput,
        bottleneck_is_plc=bottleneck,
    )


class DeltaEvaluator:
    """Incremental scorer for single-user reassociation moves.

    A move ``user: i -> j`` only changes the membership of cells ``i``
    and ``j``; every other cell's WiFi aggregate is untouched.  This
    evaluator caches the per-extender WiFi vector and, per candidate
    move, recomputes just the touched cells with the *exact* scalar
    expression :func:`repro.wifi.sharing.cell_throughputs` uses — so
    the resulting aggregate is **bit-identical** to a full
    :func:`evaluate` of the moved assignment (the PLC allocation is
    O(n_extenders) and always recomputed in full; cheap next to the
    O(n_users · n_extenders) WiFi pass it replaces).

    The cache is seeded by one pass over the cells at construction,
    with the same per-cell expression a move uses.  Like
    :func:`evaluate`, the seed may be partial (``UNASSIGNED`` users);
    moves then attach, detach or relocate single users.  The
    differential test wall checks the cache against a full
    :func:`evaluate` after random move sequences.

    Not thread-safe; one evaluator per search loop.
    """

    def __init__(self, scenario: Scenario, assignment: Sequence[int],
                 plc_mode: str = "redistribute") -> None:
        self._assignment = validate_assignment(
            scenario, assignment, require_complete=False).copy()
        if plc_mode not in PLC_MODES:
            raise ValueError(
                f"plc_mode must be one of {PLC_MODES}, got {plc_mode!r}")
        self._scenario = scenario
        self._rates = np.asarray(scenario.wifi_rates, dtype=float)
        # One contiguous row of inverse rates per extender, read member
        # by member on every move (members' rates are positive; a zero
        # rate is never read and stays inf).
        cols = np.ascontiguousarray(self._rates.T)
        self._inv_cols = np.divide(1.0, cols, out=np.full_like(cols, np.inf),
                                   where=cols > 0)
        self._plc_rates = np.asarray(scenario.plc_rates,
                                     dtype=float).tolist()
        self._plc_mode = plc_mode
        # cell_throughputs would also reject a member rate <= 1e-12;
        # validate_assignment has already rejected every attached rate
        # <= MIN_USABLE_RATE (1e-9), so no member can fail that check
        # and each cell is _cell_wifi's value, bit for bit.
        self._wifi = np.array([self._cell_wifi(j)
                               for j in range(scenario.n_extenders)],
                              dtype=float)
        self._aggregate = self._full_aggregate(self._wifi)

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the current per-user extender indices."""
        return self._assignment.copy()

    @property
    def wifi_throughputs(self) -> np.ndarray:
        """Copy of the cached per-extender WiFi aggregates (Mbps)."""
        return self._wifi.copy()

    @property
    def aggregate(self) -> float:
        """Aggregate end-to-end throughput of the current assignment."""
        return self._aggregate

    def _cell_wifi(self, j: int) -> float:
        """Recompute cell ``j`` exactly as :func:`cell_throughputs` does.

        Members are guaranteed to have positive rates: the seed pass
        validated the whole assignment and :meth:`_check_move` vets
        every move before it lands, so no per-member check is needed on
        this per-move hot path.
        """
        members = (self._assignment == j).nonzero()[0]
        if members.size == 0:
            return 0.0
        return members.size / float(
            np.add.reduce(self._inv_cols[j].take(members)))

    def _check_move(self, user: int, dest: int) -> int:
        """Vet a move of ``user`` to ``dest``; return the user's extender.

        Out-of-range indices raise like :func:`validate_assignment`
        instead of wrapping around through numpy's negative indexing.
        """
        n_users, n_extenders = self._rates.shape
        if not 0 <= user < n_users:
            raise ValueError(
                f"user index {user} out of range for {n_users} users")
        if dest != UNASSIGNED:
            if not 0 <= dest < n_extenders:
                raise ValueError(
                    f"extender index out of range for users [{user}]")
            if self._rates[user, dest] <= _RATE_EPS:
                raise ValueError(
                    f"user {user} assigned to extender {dest} "
                    f"with non-positive WiFi rate")
        return int(self._assignment[user])

    def _full_aggregate(self, wifi: np.ndarray) -> float:
        # backhaul_throughputs is the pre-validated fast path of
        # allocate_backhaul (bit-identical throughputs).  Each is already
        # capped at its cell's WiFi demand, so it is the extender's
        # end-to-end throughput, summed as evaluate sums the array.
        return float(np.add.reduce(backhaul_throughputs(
            self._plc_rates, wifi.tolist(), mode=self._plc_mode)))

    def score_move(self, user: int, dest: int) -> float:
        """Aggregate throughput if ``user`` moved to ``dest`` (no commit).

        ``dest`` may be :data:`~repro.core.problem.UNASSIGNED` to score
        a detach.  Bit-identical to ``evaluate(scenario, moved).aggregate``.
        """
        src = self._check_move(user, dest)
        if dest == src:
            return self._aggregate
        _record(delta=1)
        touched = [j for j in (src, dest) if j != UNASSIGNED]
        trial_wifi = self._wifi.copy()
        self._assignment[user] = dest
        try:
            for j in touched:
                trial_wifi[j] = self._cell_wifi(j)
        finally:
            self._assignment[user] = src
        return self._full_aggregate(trial_wifi)

    def commit(self, user: int, dest: int) -> float:
        """Apply the move, update the touched cells, return the aggregate."""
        src = self._check_move(user, dest)
        if dest == src:
            return self._aggregate
        _record(delta=1)
        self._assignment[user] = dest
        for j in (src, dest):
            if j != UNASSIGNED:
                self._wifi[j] = self._cell_wifi(j)
        self._aggregate = self._full_aggregate(self._wifi)
        return self._aggregate

    def report(self) -> ThroughputReport:
        """Full :class:`ThroughputReport` of the current assignment.

        Delegates to :func:`evaluate` (one full scalar pass), so the
        result is exactly what any non-incremental caller would see.
        """
        return evaluate(self._scenario, self._assignment,
                        plc_mode=self._plc_mode)

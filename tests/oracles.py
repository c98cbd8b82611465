"""Reference oracles for the differential test walls.

Each production search in :mod:`repro.core` has one code path.  The
loops it replaced live here, so the walls in ``test_delta_eval.py`` and
``test_batching_acceptance.py`` can check that the production path makes
bit-identical decisions:

* :func:`solve_phase2_scalar` scores one (user, extender) candidate at a
  time; :func:`solve_phase2_batch` rebuilds the whole insertion-gains
  matrix per placement instead of refreshing one column.
* :func:`solve_wolt_scalar` is Alg. 1 with the scalar Phase II.
* :func:`greedy_assignment_scalar` and
  :func:`selfish_greedy_assignment_scalar` issue one scalar
  ``evaluate`` per candidate extender.
* :func:`reconfigure_batch` is ``IncrementalWolt.reconfigure`` with the
  pending moves scored by one ``evaluate_batch`` call per step.

The Phase-II references share :func:`_local_search`, whose swap pass
:func:`_try_swaps_scalar` tries one pair at a time on the cell state, so
all three check production's matrix-scored swap pass rather than reuse
it.  Otherwise they reuse :mod:`repro.core.phase2`'s cell state and
batch gains, and differ from production only in the loop they stand
in for.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dynamic import IncrementalWolt, ReconfigureOutcome
from repro.core.phase1 import solve_phase1
from repro.core.phase2 import (Phase2Result, _BatchGains, _CellState,
                               _relocate)
from repro.core.problem import MIN_USABLE_RATE, UNASSIGNED, Scenario
from repro.core.wolt import WoltResult, solve_wolt
from repro.net.engine import _record, evaluate, evaluate_batch


class _ScalarCellState(_CellState):
    """Cell state that scores one candidate per call."""

    def gain_of_adding(self, user: int, j: int) -> float:
        """Change in ``sum_j T_WiFi_j`` if ``user`` joins extender ``j``."""
        _record(scalar=1)  # one candidate scored the scalar way
        r = self.scenario.wifi_rates[user, j]
        if r <= MIN_USABLE_RATE:
            return -np.inf
        new = (self.counts[j] + 1) / (self.inv_rate_sums[j] + 1.0 / r)
        return new - self.throughput(j)

    def room(self, j: int) -> bool:
        return self.counts[j] < self.scenario.capacity_of(j)


def _insert_scalar(scenario: Scenario, state: _ScalarCellState,
                   assignment: np.ndarray, remaining: List[int]) -> None:
    """Greedy insertion, first strictly greater gain over a scalar scan."""
    while remaining:
        best = None  # (gain, user, extender)
        for user in remaining:
            for j in scenario.reachable(user):
                if not state.room(j):
                    continue
                gain = state.gain_of_adding(user, int(j))
                if best is None or gain > best[0]:
                    best = (gain, user, int(j))
        if best is None:
            raise ValueError(
                f"users {remaining} cannot be attached to any extender")
        _, user, j = best
        state.add(user, j)
        assignment[user] = j
        remaining.remove(user)


def _relocate_scalar(state: _ScalarCellState, assignment: np.ndarray,
                     user: int) -> int:
    """Best relocation target for one user, one candidate at a time."""
    cur = int(assignment[user])
    state.remove(user, cur)
    best_j, best_gain = cur, state.gain_of_adding(user, cur)
    for j in state.scenario.reachable(user):
        j = int(j)
        if j == cur or not state.room(j):
            continue
        gain = state.gain_of_adding(user, j)
        if gain > best_gain + 1e-12:
            best_j, best_gain = j, gain
    state.add(user, best_j)
    return best_j


def _insert_batch(scenario: Scenario, state: _CellState,
                  gains: _BatchGains, assignment: np.ndarray,
                  remaining: List[int]) -> None:
    """Greedy insertion, rebuilding the full gains matrix per placement."""
    while remaining:
        rem = np.asarray(remaining, dtype=int)
        batch = gains.gains(state, rem)
        batch = np.where(gains.room(state)[np.newaxis, :], batch, -np.inf)
        flat = int(np.argmax(batch))
        if np.isneginf(batch.flat[flat]):
            raise ValueError(
                f"users {remaining} cannot be attached to any extender")
        user = int(rem[flat // scenario.n_extenders])
        j = flat % scenario.n_extenders
        state.add(user, j)
        assignment[user] = j
        remaining.remove(user)


def _try_swaps_scalar(scenario: Scenario, state: _CellState,
                      assignment: np.ndarray, movable: np.ndarray) -> bool:
    """One first-improvement pass of pairwise swaps, one trial at a time.

    Each eligible pair is tried by applying the swap to ``state``.  A
    rejected trial restores the two touched ``inv_rate_sums`` entries
    from saved copies, so rejections leave no float drift behind.
    """
    improved = False
    for a_pos in range(movable.size):
        a = int(movable[a_pos])
        for b_pos in range(a_pos + 1, movable.size):
            b = int(movable[b_pos])
            ja, jb = int(assignment[a]), int(assignment[b])
            if ja == jb:
                continue
            ra_jb = scenario.wifi_rates[a, jb]
            rb_ja = scenario.wifi_rates[b, ja]
            if ra_jb <= MIN_USABLE_RATE or rb_ja <= MIN_USABLE_RATE:
                continue
            saved = state.inv_rate_sums[ja], state.inv_rate_sums[jb]
            before = state.throughput(ja) + state.throughput(jb)
            state.remove(a, ja)
            state.remove(b, jb)
            state.add(a, jb)
            state.add(b, ja)
            after = state.throughput(ja) + state.throughput(jb)
            if after > before + 1e-12:
                assignment[a], assignment[b] = jb, ja
                improved = True
            else:
                state.inv_rate_sums[ja], state.inv_rate_sums[jb] = saved
    return improved


def _local_search(scenario: Scenario, phase1_assignment: Sequence[int],
                  state: _CellState, assignment: np.ndarray,
                  relocate: Callable[[int], int],
                  max_rounds: int) -> Phase2Result:
    """Relocation + swap rounds over the non-anchor users."""
    movable = np.flatnonzero(np.asarray(phase1_assignment) == UNASSIGNED)
    rounds = 0
    improved = True
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for user in movable:
            cur = assignment[user]
            assignment[user] = relocate(int(user))
            if assignment[user] != cur:
                improved = True
        if _try_swaps_scalar(scenario, state, assignment, movable):
            improved = True
    return Phase2Result(assignment=assignment, objective=state.total(),
                        iterations=rounds, was_integral=True)


def solve_phase2_scalar(scenario: Scenario,
                        phase1_assignment: Sequence[int],
                        max_rounds: int = 100) -> Phase2Result:
    """Phase II with every candidate scored one scalar call at a time."""
    assignment = np.array(phase1_assignment, dtype=int)
    state = _ScalarCellState(scenario, assignment)
    _insert_scalar(scenario, state, assignment,
                   list(np.flatnonzero(assignment == UNASSIGNED)))
    return _local_search(
        scenario, phase1_assignment, state, assignment,
        lambda user: _relocate_scalar(state, assignment, user), max_rounds)


def solve_phase2_batch(scenario: Scenario,
                       phase1_assignment: Sequence[int],
                       max_rounds: int = 100) -> Phase2Result:
    """Phase II with the gains matrix rebuilt for every placement."""
    assignment = np.array(phase1_assignment, dtype=int)
    state = _CellState(scenario, assignment)
    gains = _BatchGains(scenario)
    _insert_batch(scenario, state, gains, assignment,
                  list(np.flatnonzero(assignment == UNASSIGNED)))
    return _local_search(
        scenario, phase1_assignment, state, assignment,
        lambda user: _relocate(state, gains, assignment, user), max_rounds)


def solve_wolt_scalar(scenario: Scenario,
                      plc_mode: str = "redistribute") -> WoltResult:
    """Alg. 1 with the scalar Phase-II reference."""
    phase1 = solve_phase1(scenario)
    phase2 = solve_phase2_scalar(scenario, phase1.assignment)
    report = evaluate(scenario, phase2.assignment, plc_mode=plc_mode)
    return WoltResult(assignment=phase2.assignment, phase1=phase1,
                      phase2=phase2, report=report)


def _greedy_scalar(scenario: Scenario,
                   arrival_order: Optional[Sequence[int]],
                   score: Callable[[np.ndarray, int], float]
                   ) -> np.ndarray:
    """Online greedy: each arrival takes the extender maximizing ``score``.

    Ties break toward the stronger WiFi link, and every candidate
    extender costs one scalar ``evaluate``.
    """
    if arrival_order is None:
        arrival_order = range(scenario.n_users)
    assignment = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    for user in arrival_order:
        user = int(user)
        counts = np.bincount(assignment[assignment != UNASSIGNED],
                             minlength=scenario.n_extenders)
        best_j, best_key = UNASSIGNED, None
        for j in scenario.reachable(user):
            j = int(j)
            if counts[j] >= scenario.capacity_of(j):
                continue
            assignment[user] = j
            key = (score(assignment, user), scenario.wifi_rates[user, j])
            if best_key is None or key > best_key:
                best_key, best_j = key, j
        if best_j == UNASSIGNED:
            raise ValueError(f"user {user} cannot be attached anywhere")
        assignment[user] = best_j
    return assignment


def greedy_assignment_scalar(scenario: Scenario,
                             arrival_order: Optional[Sequence[int]] = None,
                             plc_mode: str = "redistribute") -> np.ndarray:
    """The §V-B greedy baseline, maximizing the network aggregate."""
    return _greedy_scalar(
        scenario, arrival_order,
        lambda a, _: evaluate(scenario, a, plc_mode=plc_mode).aggregate)


def selfish_greedy_assignment_scalar(
        scenario: Scenario, arrival_order: Optional[Sequence[int]] = None,
        plc_mode: str = "redistribute") -> np.ndarray:
    """The §III-B selfish baseline, maximizing the arrival's own rate."""
    return _greedy_scalar(
        scenario, arrival_order,
        lambda a, user: evaluate(
            scenario, a, plc_mode=plc_mode).user_throughputs[user])


def reconfigure_batch(ctl: IncrementalWolt) -> ReconfigureOutcome:
    """``ctl.reconfigure()`` with each step's moves scored in one batch."""
    scenario, ids = ctl._scenario()
    if not ids:
        return ReconfigureOutcome(moves=(), aggregate_before=0.0,
                                  aggregate_after=0.0, wolt_aggregate=0.0)
    current = np.array([ctl.assignment[uid] for uid in ids])
    before = evaluate(scenario, current, plc_mode=ctl.plc_mode,
                      require_complete=True).aggregate
    solved = solve_wolt(scenario, plc_mode=ctl.plc_mode, guard=ctl.guard)
    target = solved.assignment
    pending = {idx for idx in range(len(ids))
               if target[idx] != current[idx] and target[idx] != UNASSIGNED}
    applied: List[Tuple[int, int, int]] = []
    working = current.copy()
    best = before
    while pending:
        if ctl.max_moves is not None and len(applied) >= ctl.max_moves:
            break
        idxs = sorted(pending)
        batch = np.tile(working, (len(idxs), 1))
        batch[np.arange(len(idxs)), idxs] = target[idxs]
        aggregates = evaluate_batch(scenario, batch, plc_mode=ctl.plc_mode,
                                    require_complete=True).aggregates
        gain, idx = max((float(agg) - best, idx)
                        for agg, idx in zip(aggregates, idxs))
        if ctl.min_gain_mbps > 0 and gain < ctl.min_gain_mbps:
            break
        applied.append((ids[idx], int(working[idx]), int(target[idx])))
        working[idx] = target[idx]
        best = float(aggregates[idxs.index(idx)])
        pending.discard(idx)
    for user_id, _, new_j in applied:
        ctl.assignment[user_id] = new_j
    ctl.total_moves += len(applied)
    after = evaluate(scenario, working, plc_mode=ctl.plc_mode,
                     require_complete=True).aggregate
    return ReconfigureOutcome(moves=tuple(applied), aggregate_before=before,
                              aggregate_after=after,
                              wolt_aggregate=solved.aggregate_throughput)

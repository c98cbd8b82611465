"""Reference oracles for the differential test walls.

Each production search in :mod:`repro.core` has one code path.  The
loops it replaced live here, so the walls in ``test_phase2.py``,
``test_delta_eval.py`` and ``test_batching_acceptance.py`` can check
that the production path makes bit-identical decisions:

* :func:`solve_phase2_scalar` scores one (user, extender) candidate at a
  time through the cell state; :func:`solve_phase2_batch` rebuilds the
  whole insertion-gains matrix per placement instead of refreshing one
  column, and scores each relocation as a one-row numpy gains sweep
  instead of production's scalar pass over Python floats.
* :func:`solve_wolt_scalar` is Alg. 1 with the scalar Phase II.
* :func:`shortest_path_assignment_numpy` is Phase I's assignment solver
  with each row relaxed by numpy array operations, on the cost matrix
  :func:`assignment_cost` prepares.
* :func:`greedy_assignment_scalar` and
  :func:`selfish_greedy_assignment_scalar` issue one scalar
  ``evaluate`` per candidate extender.
* :func:`reconfigure_batch` is ``CentralController.reconfigure`` with
  the hysteresis bar's pending moves scored by one ``evaluate_batch``
  call per step.
* :class:`OnlineSimulationReference` is the Fig. 6b/6c simulation with
  its own admission (greedy attach or strongest extender over a rebuilt
  rate matrix) and epoch re-solve, in place of the Central Controller.
* :class:`FailureSimulationReference` is the extender-failure
  simulation with its own WOLT subset re-solve and RSSI orphan
  fallback, in place of the Central Controller.
* :class:`IncrementalWoltReference` is the stand-alone hysteresis
  controller the Central Controller's ``min_gain_mbps`` replaced.

The Phase-II references share :func:`_local_search`, whose swap pass
:func:`_try_swaps_scalar` tries one pair at a time on the cell state,
and each brings its own relocation (:func:`_relocate_scalar` or
:func:`_relocate_batch`), so all three check production's matrix-scored
swap pass and Python-float relocation pass rather than reuse them.
Otherwise they reuse :mod:`repro.core.phase2`'s cell state and
batch gains, and differ from production only in the loop they stand
in for.

Further references the tests compare production against:

* :func:`certify` bounds any assignment's distance from the (unknown)
  Problem-1 optimum with polynomial upper bounds.
* :func:`optimal_tdma_weights` derives the TDMA reservation a PLC
  schedule needs to reproduce the engine's max-min backhaul grants.
* :func:`solve_segments_reference` is the serial whole-building solve
  that sharded fleet dispatch must match bit for bit.
* :func:`split_segments_per_user` and :func:`coupling_components_per_user`
  split a building one ``scenario.reachable(user)`` call at a time.
* :func:`reassociate_orphans_per_user` re-parks failure orphans one
  user at a time, where production detaches them with ``servable`` and
  parks them in one array pass.
* :func:`score_directives_scalar` scores each fleet directive with one
  full scalar ``evaluate`` of the building per moved user.
* :func:`validate_assignment_reference` checks Problem 1's constraints
  through the ``np.any``/``np.flatnonzero`` wrappers, where production
  calls the ndarray methods.
* :func:`time_shares_numpy` is the PLC step (the per-extender medium
  time grants under each sharing law, with the max-min water-filling
  of :func:`progressive_fill_numpy`) in numpy array operations, where
  production runs it on Python floats.
* :func:`replay_fleet_journal` rebuilds a resumed fleet service by
  re-observing every building at every journaled epoch, in place of
  restoring the state the last record holds.
* :func:`rate_matrix_scalar`, :func:`tone_map_rate_scalar`,
  :class:`PowerlineNetworkScalar` and :func:`build_scenario_scalar`
  build an as-built floor one link at a time (a scalar path-loss and
  MCS-ladder walk per user-extender pair, one tone map and one
  networkx path search per outlet of the wiring graph), where
  production scores each floor in array passes;
  :func:`build_building_scenario_scalar` builds a fleet building's
  floor through them.
* :func:`assign_channels_networkx` colors the interference graph with
  networkx's largest-first greedy coloring, and
  :func:`max_matchable_extenders_networkx` runs Phase I's Hall
  fallback as networkx's Hopcroft-Karp, where production does both in
  a few lines of its own.
* :class:`SleepSchedule` skews trial durations so dispatch tests can
  force chunks to finish out of submission order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import networkx as nx
import numpy as np

from repro.core.baselines import greedy_attach_user, rssi_assignment
from repro.core.controller import CentralController
from repro.core.hungarian import InfeasibleAssignmentError
from repro.core.phase1 import solve_phase1
from repro.core.phase2 import Phase2Result, _BatchGains, _CellState
from repro.core.problem import (MIN_USABLE_RATE, UNASSIGNED, Scenario,
                                fail_extenders, servable)
from repro.core.wolt import WoltResult, solve_wolt
from repro.fleet.service import Directive, FleetService
from repro.fleet.sharding import Segment, split_segments
from repro.fleet.spec import FleetSpec
from repro.net.engine import (DeltaEvaluator, _record, evaluate,
                              evaluate_batch)
from repro.net.metrics import jain_fairness
from repro.net.topology import (FloorPlan, sample_floor_plan,
                                sample_user_positions)
from repro.plc.channel import PowerlineNetwork, random_building
from repro.plc.homeplug import Av2Phy
from repro.plc.sharing import _EPS, allocate_backhaul
from repro.sim.dynamics import EpochStats, OnlineSimulation
from repro.sim.failures import (FailureEpoch, FailureSimulation,
                                flip_extenders)
from repro.wifi.channels import ChannelPlan
from repro.wifi.phy import WifiPhy
from repro.wifi.sharing import cell_throughputs


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


def _relocate_batch(state: _CellState, gains: _BatchGains,
                    assignment: np.ndarray, user: int) -> int:
    """Best relocation target for one user over a one-row gains sweep.

    Scores the ``(1, n_extenders)`` gains row with numpy, then scans it
    in ascending order with the same ``> best + 1e-12`` hysteresis.
    """
    cur = int(assignment[user])
    state.remove(user, cur)
    g = gains.gains(state, np.asarray([user]))[0]
    room = gains.room(state)
    best_j, best_gain = cur, g[cur]
    for j in np.flatnonzero(gains.reach[user]):
        j = int(j)
        if j == cur or not room[j]:
            continue
        if g[j] > best_gain + 1e-12:
            best_j, best_gain = j, g[j]
    state.add(user, best_j)
    return best_j


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
                   np.flatnonzero(assignment == UNASSIGNED).tolist())
    return _local_search(
        scenario, phase1_assignment, state, assignment,
        lambda user: _relocate_scalar(state, assignment, user), max_rounds)


def solve_phase2_batch(scenario: Scenario,
                       phase1_assignment: Sequence[int],
                       max_rounds: int = 100) -> Phase2Result:
    """Phase II over numpy gains sweeps: the whole insertion matrix
    rebuilt per placement, and one gains row per relocation."""
    assignment = np.array(phase1_assignment, dtype=int)
    state = _CellState(scenario, assignment)
    gains = _BatchGains(scenario)
    _insert_batch(scenario, state, gains, assignment,
                  np.flatnonzero(assignment == UNASSIGNED).tolist())
    return _local_search(
        scenario, phase1_assignment, state, assignment,
        lambda user: _relocate_batch(state, gains, assignment, user),
        max_rounds)


def solve_wolt_scalar(scenario: Scenario,
                      plc_mode: str = "redistribute") -> WoltResult:
    """Alg. 1 with the scalar Phase-II reference."""
    phase1 = solve_phase1(scenario)
    phase2 = solve_phase2_scalar(scenario, phase1.assignment)
    return WoltResult(assignment=phase2.assignment, phase1=phase1,
                      phase2=phase2, scenario=scenario, plc_mode=plc_mode)


def assignment_cost(utilities: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, bool]:
    """The cost matrix :func:`repro.core.hungarian.solve_assignment`
    hands its solver for ``utilities``, computed with numpy masks.

    Forbidden pairs (``-inf`` utility) become a finite ``big`` cost, and
    a tall matrix is transposed.  Returns ``(cost, forbidden,
    transposed)``; needs at least one allowed pair.
    """
    cost = -np.asarray(utilities, dtype=float)
    forbidden = np.isinf(cost) & (cost > 0)
    finite = cost[~forbidden]
    span = float(finite.max() - finite.min()) + 1.0
    big = float(finite.max()) + span * (max(cost.shape) + 1)
    cost = np.where(forbidden, big, cost)
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        return cost.T, forbidden.T, True
    return cost, forbidden, False


def shortest_path_assignment_numpy(cost: np.ndarray
                                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Phase I's Jonker-Volgenant assignment with numpy row relaxations.

    Expects ``n_rows <= n_cols`` and finite costs; returns
    ``(row4col, col4row)`` like
    :func:`repro.core.hungarian._shortest_path_assignment`, which must
    match it element for element.
    """
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)  # row duals
    v = np.zeros(n_cols)  # column duals
    col4row = np.full(n_rows, -1, dtype=int)
    row4col = np.full(n_cols, -1, dtype=int)

    for cur_row in range(n_rows):
        shortest = np.full(n_cols, np.inf)
        pred_row = np.full(n_cols, -1, dtype=int)
        scanned_rows = np.zeros(n_rows, dtype=bool)
        scanned_cols = np.zeros(n_cols, dtype=bool)
        lowest = 0.0
        sink = -1
        i = cur_row
        while sink == -1:
            scanned_rows[i] = True
            slack = lowest + cost[i] - u[i] - v
            improve = ~scanned_cols & (slack < shortest)
            shortest[improve] = slack[improve]
            pred_row[improve] = i
            open_cols = np.flatnonzero(~scanned_cols)
            j = open_cols[np.argmin(shortest[open_cols])]
            lowest = shortest[j]
            if np.isinf(lowest):
                raise InfeasibleAssignmentError("matching cannot be extended")
            scanned_cols[j] = True
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
        # Dual updates keep reduced costs non-negative.
        u[cur_row] += lowest
        others = scanned_rows.copy()
        others[cur_row] = False
        for i2 in np.flatnonzero(others):
            u[i2] += lowest - shortest[col4row[i2]]
        v[scanned_cols] -= lowest - shortest[scanned_cols]
        # Augment along the alternating path back to cur_row.
        j = sink
        while True:
            i2 = pred_row[j]
            row4col[j] = i2
            col4row[i2], j = j, col4row[i2]
            if i2 == cur_row:
                break
    return row4col, col4row


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


def _hysteresis_batch(cc: CentralController, scenario: Scenario,
                      ids: List[int], target: np.ndarray) -> np.ndarray:
    """``cc._hysteresis`` with each step's moves scored in one batch."""
    current = cc._assignment_vector(ids)
    current[scenario.wifi_rates[np.arange(len(ids)), current]
            <= 0] = UNASSIGNED
    best = evaluate(scenario, current).aggregate
    pending = {idx for idx in range(len(ids))
               if target[idx] != current[idx] and target[idx] != UNASSIGNED}
    while pending:
        idxs = sorted(pending)
        batch = np.tile(current, (len(idxs), 1))
        batch[np.arange(len(idxs)), idxs] = target[idxs]
        aggregates = evaluate_batch(scenario, batch).aggregates
        gain, idx = max((float(agg) - best, idx)
                        for agg, idx in zip(aggregates, idxs))
        if gain < cc.min_gain_mbps:
            break
        current[idx] = target[idx]
        best = float(aggregates[idxs.index(idx)])
        pending.discard(idx)
    return current


def reconfigure_batch(cc: CentralController) -> None:
    """``cc.reconfigure()`` with the hysteresis moves batch-scored."""
    cc._hysteresis = functools.partial(_hysteresis_batch, cc)
    try:
        cc.reconfigure()
    finally:
        del cc._hysteresis


@dataclass(frozen=True)
class ReconfigureOutcome:
    """One :meth:`IncrementalWoltReference.reconfigure`.

    Attributes:
        moves: ``(user_id, old_extender, new_extender)`` in the order
            the greedy loop applied them.
        gains: the aggregate gain each applied move scored.
        aggregate_after: aggregate throughput after the moves.
    """

    moves: Tuple[Tuple[int, int, int], ...]
    gains: Tuple[float, ...]
    aggregate_after: float


class IncrementalWoltReference:
    """The stand-alone hysteresis WOLT controller.

    Users are admitted on their strongest extender; ``reconfigure``
    re-solves WOLT and applies target moves greedily, highest gain
    first, while the best remaining move gains at least
    ``min_gain_mbps`` (all of them at 0), scoring under the
    ``redistribute`` law with a ``DeltaEvaluator``.
    """

    def __init__(self, plc_rates: Sequence[float],
                 min_gain_mbps: float = 0.0) -> None:
        self.plc_rates = np.asarray(plc_rates, dtype=float)
        self.min_gain_mbps = min_gain_mbps
        self._rates: Dict[int, np.ndarray] = {}
        self.assignment: Dict[int, int] = {}

    def add_user(self, user_id: int, wifi_rates: Sequence[float]) -> None:
        self._rates[user_id] = np.asarray(wifi_rates, dtype=float)
        self.assignment[user_id] = int(np.argmax(self._rates[user_id]))

    def remove_user(self, user_id: int) -> None:
        self._rates.pop(user_id, None)
        self.assignment.pop(user_id, None)

    def reconfigure(self) -> ReconfigureOutcome:
        ids = sorted(self._rates)
        if not ids:
            return ReconfigureOutcome(moves=(), gains=(),
                                      aggregate_after=0.0)
        scenario = Scenario(
            wifi_rates=np.vstack([self._rates[uid] for uid in ids]),
            plc_rates=self.plc_rates)
        current = np.array([self.assignment[uid] for uid in ids])
        target = solve_wolt(scenario).assignment
        pending = {idx for idx in range(len(ids))
                   if target[idx] != current[idx]
                   and target[idx] != UNASSIGNED}
        applied: List[Tuple[int, int, int]] = []
        gains: List[float] = []
        working = current.copy()
        evaluator = DeltaEvaluator(scenario, current)
        best = evaluator.aggregate
        while pending:
            gain, idx = max((evaluator.score_move(idx, int(target[idx]))
                             - best, idx) for idx in sorted(pending))
            if self.min_gain_mbps > 0 and gain < self.min_gain_mbps:
                break
            applied.append((ids[idx], int(working[idx]), int(target[idx])))
            gains.append(gain)
            working[idx] = target[idx]
            evaluator.commit(idx, int(target[idx]))
            best = evaluator.aggregate
            pending.discard(idx)
        for user_id, _, new_j in applied:
            self.assignment[user_id] = new_j
        after = evaluate(scenario, working, require_complete=True).aggregate
        return ReconfigureOutcome(moves=tuple(applied), gains=tuple(gains),
                                  aggregate_after=after)


def reassociate_orphans_per_user(scenario: Scenario,
                                 assignment: Sequence[int]) -> np.ndarray:
    """``repro.sim.failures.reassociate_orphans`` one user at a time.

    A user stays while its link rates above 0; any other user moves to
    the first strongest of ``scenario.reachable(user)``, or goes
    offline.  Production keeps a user only above ``MIN_USABLE_RATE``;
    the two agree wherever no link is rated in ``(0, MIN_USABLE_RATE]``.
    """
    assign = np.array(assignment, dtype=int)
    for user in range(scenario.n_users):
        j = assign[user]
        if j != UNASSIGNED and scenario.wifi_rates[user, j] > 0:
            continue
        reachable = scenario.reachable(user)
        if reachable.size == 0:
            assign[user] = UNASSIGNED
        else:
            assign[user] = int(reachable[np.argmax(
                scenario.wifi_rates[user, reachable])])
    return assign


class FailureSimulationReference(FailureSimulation):
    """:class:`FailureSimulation` deciding associations itself.

    Clients start on ``rssi_assignment`` of the healthy floor.  Each
    WOLT epoch re-solves the users who hear a live extender with
    ``solve_wolt`` over a subset scenario (the rest go offline); each
    RSSI epoch moves only orphans, to their strongest survivor.  The
    failure draws and the scoring are the production ones.
    """

    def __init__(self, scenario: Scenario, policy: str,
                 *args, **kwargs) -> None:
        super().__init__(scenario, policy, *args, **kwargs)
        self.policy = policy
        self.assignment = rssi_assignment(scenario)

    def run_epoch(self) -> FailureEpoch:
        self.down = flip_extenders(self.down, self.rng, self.fail_prob,
                                   self.recover_prob)
        live = fail_extenders(self.healthy, np.flatnonzero(self.down))
        orphaned = int(np.sum([
            self.assignment[u] != UNASSIGNED
            and live.wifi_rates[u, self.assignment[u]] <= 0
            for u in range(live.n_users)]))
        if self.policy == "wolt":
            reachable = np.array([live.reachable(u).size > 0
                                  for u in range(live.n_users)])
            assignment = np.full(live.n_users, UNASSIGNED, dtype=int)
            if reachable.any():
                sub = live.subset_users(np.flatnonzero(reachable))
                solved = solve_wolt(sub, plc_mode=self.plc_mode)
                assignment[np.flatnonzero(reachable)] = solved.assignment
            self.assignment = assignment
        else:
            self.assignment = reassociate_orphans_per_user(
                live, self.assignment)
        report = evaluate(live, self.assignment, plc_mode=self.plc_mode)
        stats = FailureEpoch(
            epoch=len(self.history) + 1,
            failed_extenders=tuple(np.flatnonzero(self.down).tolist()),
            orphaned_users=orphaned,
            offline_users=int(np.sum(self.assignment == UNASSIGNED)),
            aggregate_throughput=report.aggregate)
        self.history.append(stats)
        return stats


class OnlineSimulationReference(OnlineSimulation):
    """:class:`OnlineSimulation` deciding associations itself.

    Each arrival rebuilds the whole rate matrix and is placed by
    ``greedy_attach_user`` (Greedy) or on its strongest extender (WOLT,
    RSSI); each WOLT epoch boundary re-solves everyone with
    ``solve_wolt`` and counts the users whose extender changed.  The
    population, event processes and scoring are the production ones.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reference_assignment: Dict[int, int] = {}

    @property
    def assignment(self) -> Dict[int, int]:
        return self._reference_assignment

    def _arrive(self, count: bool = True) -> None:
        uid = self._next_user_id
        self._next_user_id += 1
        self.positions[uid] = sample_user_positions(
            1, self.plan.width_m, self.plan.height_m, self.rng)[0]
        scenario = self._scenario()
        idx = int(np.flatnonzero(scenario.user_ids == uid)[0])
        if self.policy == "greedy":
            vec = self._assignment_vector(scenario)
            self.assignment[uid] = greedy_attach_user(scenario, vec, idx)
        else:
            self.assignment[uid] = int(
                np.argmax(scenario.wifi_rates[idx]))
        if count:
            self._epoch_arrivals += 1
            self._schedule_next_arrival()

    def _depart(self) -> None:
        if self.positions:
            ids = sorted(self.positions)
            uid = int(self.rng.choice(ids))
            del self.positions[uid]
            del self.assignment[uid]
            self._epoch_departures += 1
        self._schedule_next_departure()

    def run_epoch(self) -> EpochStats:
        self._run_until(self.now + self.epoch_duration)
        reassignments = 0
        scenario = self._scenario()
        if self.policy == "wolt" and scenario.n_users > 0:
            previous = self._assignment_vector(scenario)
            result = solve_wolt(scenario)
            for pos, uid in enumerate(scenario.user_ids):
                new_j = int(result.assignment[pos])
                if previous[pos] != UNASSIGNED and previous[pos] != new_j:
                    reassignments += 1
                self.assignment[int(uid)] = new_j
        if scenario.n_users > 0:
            report = evaluate(scenario, self._assignment_vector(scenario),
                              require_complete=True,
                              plc_mode=self.plc_mode)
            aggregate = report.aggregate
            fairness = jain_fairness(report.user_throughputs)
        else:
            aggregate, fairness = 0.0, 0.0
        stats = EpochStats(epoch=len(self.history) + 1,
                           n_users=self.n_users,
                           arrivals=self._epoch_arrivals,
                           departures=self._epoch_departures,
                           reassignments=reassignments,
                           aggregate_throughput=aggregate,
                           jain_fairness=fairness)
        self.history.append(stats)
        self._epoch_arrivals = 0
        self._epoch_departures = 0
        return stats


# ---------------------------------------------------------------------------
# Optimality-gap certificates for Problem 1.


def plc_capacity_bound(scenario: Scenario,
                       plc_mode: str = "redistribute") -> float:
    """Backhaul-side upper bound on any assignment's aggregate (Mbps).

    No assignment can push more than the whole backhaul carries: under
    the ``fixed`` law that is ``sum_j c_j / |A|``; under ``active`` and
    ``redistribute`` it is ``max_j c_j`` (all medium time on the best
    link).
    """
    c = scenario.plc_rates
    if c.size == 0:
        return 0.0
    if plc_mode == "fixed":
        return float(c.sum() / c.size)
    if plc_mode in ("active", "redistribute"):
        return float(c.max())
    raise ValueError(f"unknown plc_mode {plc_mode!r}")


def wifi_ceiling_bound(scenario: Scenario) -> float:
    """WiFi-side upper bound: every extender serving its best user.

    ``T_WiFi_j <= max_i r_ij`` for any user set (Eq. (1) is a weighted
    harmonic mean, never above the best member's rate), so the total
    WiFi-side throughput is at most ``sum_j max_i r_ij``.
    """
    if scenario.n_users == 0 or scenario.n_extenders == 0:
        return 0.0
    best = np.max(np.where(scenario.wifi_rates > MIN_USABLE_RATE,
                           scenario.wifi_rates, 0.0), axis=0)
    return float(best.sum())


def relaxation_bound(scenario: Scenario) -> float:
    """Per-extender relaxation bound under the fixed law.

    ``sum_j min(c_j/|A|, max_i r_ij)`` dominates any fixed-law
    assignment's aggregate, because each extender's end-to-end
    throughput is ``min(T_WiFi_j, c_j/|A|)`` and ``T_WiFi_j`` (a
    harmonic mean of member rates) never exceeds the extender's single
    best reachable user's rate.
    """
    if scenario.n_users == 0 or scenario.n_extenders == 0:
        return 0.0
    fair = scenario.plc_rates / scenario.n_extenders
    best_rate = np.max(np.where(scenario.wifi_rates > MIN_USABLE_RATE,
                                scenario.wifi_rates, 0.0), axis=0)
    return float(np.minimum(fair, best_rate).sum())


@dataclass(frozen=True)
class GapCertificate:
    """An optimality-gap certificate for one assignment.

    Attributes:
        achieved: the assignment's aggregate throughput (Mbps).
        upper_bound: a certified bound no assignment can exceed.
        gap_fraction: ``1 - achieved/upper_bound`` — the assignment is
            within this fraction of *any* optimum (often much closer,
            since the bound itself is loose).
    """

    achieved: float
    upper_bound: float

    @property
    def gap_fraction(self) -> float:
        if self.upper_bound <= 0:
            return 0.0
        return max(0.0, 1.0 - self.achieved / self.upper_bound)


def certify(scenario: Scenario, assignment: Sequence[int],
            plc_mode: str = "redistribute") -> GapCertificate:
    """Certify a complete assignment against the tightest bound."""
    achieved = evaluate(scenario, assignment, plc_mode=plc_mode,
                        require_complete=True).aggregate
    bounds = [plc_capacity_bound(scenario, plc_mode),
              wifi_ceiling_bound(scenario)]
    if plc_mode == "fixed":
        bounds.append(relaxation_bound(scenario))
    return GapCertificate(achieved=achieved,
                          upper_bound=float(min(bounds)))


# ---------------------------------------------------------------------------
# PLC TDMA reservation.


def optimal_tdma_weights(scenario: Scenario,
                         assignment: Sequence[int]) -> np.ndarray:
    """TDMA reservation weights replicating the max-min allocation.

    Computes each extender's WiFi-side offered load under the given
    association and returns the max-min fair (leftover-redistributing)
    time shares as weights for :class:`repro.plc.mac.TdmaScheduler`.
    Extenders with no attached users receive zero weight.
    """
    assign = np.asarray(assignment, dtype=int)
    wifi = cell_throughputs(scenario.wifi_rates, assign,
                            scenario.n_extenders)
    allocation = allocate_backhaul(scenario.plc_rates, wifi,
                                   mode="redistribute")
    return allocation.time_shares.copy()


# ---------------------------------------------------------------------------
# Whole-building reference for sharded fleet dispatch.


def scatter_assignment(n_users: int, segments: Sequence[Segment],
                       assignments: Sequence[Sequence[int]]
                       ) -> np.ndarray:
    """Scatter per-segment assignments back into parent indices.

    Users outside every segment stay ``UNASSIGNED``.
    """
    if len(segments) != len(assignments):
        raise ValueError(
            f"{len(assignments)} assignment vectors for "
            f"{len(segments)} segments")
    full = np.full(n_users, UNASSIGNED, dtype=int)
    for segment, local in zip(segments, assignments):
        vec = np.asarray(local, dtype=int).ravel()
        if vec.shape[0] != len(segment.users):
            raise ValueError(
                f"segment {segment.index} assignment covers "
                f"{vec.shape[0]} users, expected {len(segment.users)}")
        ext_map = np.asarray(segment.extenders, dtype=int)
        attached = vec != UNASSIGNED
        parent = np.full(vec.shape[0], UNASSIGNED, dtype=int)
        parent[attached] = ext_map[vec[attached]]
        full[np.asarray(segment.users, dtype=int)] = parent
    return full


class _UnionFind:
    """Union-find over extender indices (path halving, union by size)."""

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, j: int) -> int:
        parent = self._parent
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]


def coupling_components_per_user(scenario: Scenario,
                                 circuits: Optional[Sequence[object]] = None
                                 ) -> List[Tuple[int, ...]]:
    """``coupling_components`` with one ``scenario.reachable`` call and
    one union per reachable extender of each user."""
    n_ext = scenario.n_extenders
    uf = _UnionFind(n_ext)
    if circuits is None:
        for j in range(1, n_ext):
            uf.union(0, j)
    else:
        first_of: Dict[object, int] = {}
        for j, label in enumerate(circuits):
            if label in first_of:
                uf.union(first_of[label], j)
            else:
                first_of[label] = j
    for user in range(scenario.n_users):
        reach = scenario.reachable(user)
        for j in reach[1:]:
            uf.union(int(reach[0]), int(j))
    groups: Dict[int, List[int]] = {}
    for j in range(n_ext):
        groups.setdefault(uf.find(j), []).append(j)
    return sorted((tuple(sorted(g)) for g in groups.values()),
                  key=lambda g: g[0])


def split_segments_per_user(scenario: Scenario,
                            circuits: Optional[Sequence[object]] = None
                            ) -> List[Segment]:
    """``split_segments`` placing each user by its first
    ``scenario.reachable`` extender, one user at a time."""
    components = coupling_components_per_user(scenario, circuits)
    ext_to_comp = {j: c for c, comp in enumerate(components)
                   for j in comp}
    comp_users: List[List[int]] = [[] for _ in components]
    for user in range(scenario.n_users):
        reach = scenario.reachable(user)
        if reach.size:
            comp_users[ext_to_comp[int(reach[0])]].append(user)
    segments: List[Segment] = []
    for c, extenders in enumerate(components):
        users = comp_users[c]
        ext_idx = np.asarray(extenders, dtype=int)
        user_idx = np.asarray(users, dtype=int)
        wifi = scenario.wifi_rates[np.ix_(user_idx, ext_idx)]
        caps = (None if scenario.capacities is None
                else scenario.capacities[ext_idx])
        ids = (None if scenario.user_ids is None
               else scenario.user_ids[user_idx])
        sub = Scenario(wifi_rates=wifi,
                       plc_rates=scenario.plc_rates[ext_idx],
                       capacities=caps, user_ids=ids)
        segments.append(Segment(index=c, extenders=tuple(extenders),
                                users=tuple(users), scenario=sub))
    return segments


def solve_segments_reference(scenario: Scenario,
                             circuits: Optional[Sequence[object]] = None,
                             plc_mode: str = "redistribute"
                             ) -> np.ndarray:
    """The unsharded whole-building solve: segments solved serially.

    Each segment keeps its own PLC medium (see
    :mod:`repro.fleet.sharding`).  On a single-segment building this is
    plain ``solve_wolt(scenario)``.
    """
    segments = split_segments(scenario, circuits)
    assignments = [solve_wolt(seg.scenario,
                              plc_mode=plc_mode).assignment
                   for seg in segments]
    return scatter_assignment(scenario.n_users, segments, assignments)


# ---------------------------------------------------------------------------
# Directive scoring reference for the fleet service.


def score_directives_scalar(scenario: Scenario, old: np.ndarray,
                            new: np.ndarray, plc_mode: str,
                            building: str
                            ) -> Tuple[float, float, Tuple[Directive, ...]]:
    """``repro.fleet.service.score_directives`` with one full
    ``evaluate`` of the building per moved user, in ascending user
    order, against ``old`` as servable under ``scenario``."""
    working = servable(scenario, old)
    running = evaluate(scenario, working, plc_mode=plc_mode).aggregate
    baseline = running
    directives: List[Directive] = []
    for user in range(old.shape[0]):
        if int(new[user]) == int(old[user]):
            continue
        working[user] = new[user]
        moved = evaluate(scenario, working, plc_mode=plc_mode).aggregate
        directives.append(Directive(
            building=building, user=user, old_extender=int(old[user]),
            new_extender=int(new[user]),
            delta_mbps=float(moved - running)))
        running = moved
    return baseline, running, tuple(directives)


def validate_assignment_reference(scenario: Scenario,
                                  assignment: Sequence[int],
                                  require_complete: bool = True,
                                  enforce_capacity: bool = True
                                  ) -> np.ndarray:
    """``repro.core.problem.validate_assignment`` on numpy's wrapper
    functions: the same checks, in the same order, with the same
    messages."""
    assign = np.asarray(assignment, dtype=int).ravel()
    if assign.shape[0] != scenario.n_users:
        raise ValueError(
            f"assignment has {assign.shape[0]} entries for "
            f"{scenario.n_users} users")
    bad = (assign != UNASSIGNED) & ((assign < 0) |
                                    (assign >= scenario.n_extenders))
    if np.any(bad):
        raise ValueError(f"extender index out of range for users "
                         f"{np.flatnonzero(bad).tolist()}")
    if require_complete and np.any(assign == UNASSIGNED):
        raise ValueError(
            f"constraint (7) violated: users "
            f"{np.flatnonzero(assign == UNASSIGNED).tolist()} unassigned")
    attached = assign != UNASSIGNED
    if np.any(attached):
        rates = scenario.wifi_rates[np.flatnonzero(attached),
                                    assign[attached]]
        if np.any(rates <= MIN_USABLE_RATE):
            bad_users = np.flatnonzero(attached)[rates <= MIN_USABLE_RATE]
            raise ValueError(f"users {bad_users.tolist()} assigned to an "
                             "unreachable extender")
    if enforce_capacity and scenario.capacities is not None:
        counts = np.bincount(assign[attached],
                             minlength=scenario.n_extenders)
        over = np.flatnonzero(counts > scenario.capacities)
        if over.size:
            raise ValueError(
                f"constraint (8) violated at extenders {over.tolist()}")
    return assign


def replay_fleet_journal(service: FleetService,
                         records: Mapping[int, Any]) -> None:
    """Bring a fresh ``service`` to the state a journal's epochs left.

    Telemetry is a pure function of ``(seed, building, epoch)``, so
    replaying the journaled epochs through each health monitor (with
    the journaled associations supplying the traffic masks) rebuilds
    the pre-crash state; breaker and staleness state come from the
    last record, which holds it after its epoch.  Reads only the
    ``assignment`` and breaker fields, so it replays journals of any
    format.
    """
    epochs = sorted(records)
    assert epochs == list(range(len(epochs))), epochs
    for epoch in epochs:
        entries = records[epoch]["buildings"]
        assert len(entries) == len(service._buildings)
        for bstate, entry in zip(service._buildings, entries):
            service._observe(bstate, epoch)
            bstate.assignment = np.asarray(entry["assignment"], dtype=int)
    for bstate, entry in zip(service._buildings,
                             records[epochs[-1]]["buildings"]):
        bstate.staleness = int(entry["staleness"])
        bstate.fail_streak = int(entry["fail_streak"])
        bstate.breaker_open = bool(entry["breaker_open"])
        bstate.breaker_open_epochs = int(entry["breaker_open_epochs"])
    service.epoch = len(epochs)


# ---------------------------------------------------------------------------
# Dispatch-ordering hook.


@dataclass(frozen=True)
class SleepSchedule:
    """Picklable per-trial latency hook for ``run_trials`` (no faults).

    ``delays`` maps a trial index to a sleep (seconds) injected at the
    start of every attempt of that trial.  Nothing fails: the hook only
    skews trial durations, so chunks complete out of submission order
    and the tests can assert that results still come back in trial
    order.
    """

    delays: Mapping[int, float]

    def __post_init__(self) -> None:
        normalized = {int(t): float(s) for t, s in
                      dict(self.delays).items()}
        if any(s < 0 for s in normalized.values()):
            raise ValueError("delays must be non-negative")
        object.__setattr__(self, "delays", normalized)

    def __call__(self, trial_index: int, attempt: int) -> None:
        delay = self.delays.get(trial_index, 0.0)
        if delay > 0:
            time.sleep(delay)


def progressive_fill_numpy(demands: np.ndarray) -> np.ndarray:
    """Max-min water-filling of the unit medium time over numpy arrays."""
    granted = np.zeros_like(demands)
    unsatisfied = np.flatnonzero(demands > _EPS)
    remaining = 1.0
    while unsatisfied.size > 0 and remaining > _EPS:
        level = remaining / unsatisfied.size
        below = unsatisfied[demands[unsatisfied] <= level + _EPS]
        if below.size == 0:
            granted[unsatisfied] = level
            break
        granted[below] = demands[below]
        remaining -= float(demands[below].sum())
        unsatisfied = unsatisfied[demands[unsatisfied] > level + _EPS]
    return granted


def time_shares_numpy(rates: np.ndarray, load: np.ndarray,
                      mode: str) -> np.ndarray:
    """Per-extender PLC time shares under ``mode``, over numpy arrays."""
    active = load > _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        needed = np.where(active & (rates > 0),
                          load / np.maximum(rates, _EPS), 0.0)
    needed = np.where(active & (rates <= _EPS), np.inf, needed)
    if mode == "redistribute":
        return progressive_fill_numpy(needed)
    shares = np.zeros_like(rates)
    n_active = int(active.sum()) if mode == "active" else rates.size
    if n_active > 0:
        shares[active] = 1.0 / n_active
    return shares


# ---------------------------------------------------------------------------
# As-built floors, one link at a time.


def rate_at_distance_scalar(phy: WifiPhy, distance_m: float,
                            rng: Optional[np.random.Generator] = None
                            ) -> float:
    """``WifiPhy.rate_at_distance`` of one link on Python floats: the
    log-distance loss, one shadowing draw, and a walk up the MCS ladder
    that stops at the first threshold the SNR misses."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    loss = (phy.reference_loss_db
            + 10.0 * phy.path_loss_exponent * np.log10(max(distance_m, 1.0)))
    if rng is not None and phy.shadowing_sigma_db > 0:
        loss += rng.normal(0.0, phy.shadowing_sigma_db)
    snr = (phy.tx_power_dbm - float(loss)) - phy.noise_floor_dbm
    rate = 0.0
    for threshold, mcs_rate in phy.mcs_table:
        if snr >= threshold:
            rate = mcs_rate
        else:
            break
    return rate * phy.spatial_streams


def rate_matrix_scalar(phy: WifiPhy, user_xy: np.ndarray,
                       extender_xy: np.ndarray,
                       rng: Optional[np.random.Generator] = None
                       ) -> np.ndarray:
    """``WifiPhy.rate_matrix`` with one :func:`rate_at_distance_scalar`
    per link.

    Links are scored row-major, so with shadowing on each link takes
    the next draw of ``rng``.
    """
    users = np.atleast_2d(np.asarray(user_xy, dtype=float))
    exts = np.atleast_2d(np.asarray(extender_xy, dtype=float))
    diff = users[:, np.newaxis, :] - exts[np.newaxis, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    rates = np.zeros(dist.shape)
    for i in range(dist.shape[0]):
        for j in range(dist.shape[1]):
            rates[i, j] = rate_at_distance_scalar(phy, dist[i, j], rng)
    return rates


def snr_profile_scalar(phy: Av2Phy, attenuation_db: float,
                       tx_psd_dbm_per_carrier: float = -22.0,
                       noise_dbm_per_carrier: float = -105.0,
                       selectivity_db: float = 12.0) -> np.ndarray:
    """One link's SNR profile, its carrier tilt rebuilt on each call."""
    tilt = np.linspace(0.0, selectivity_db, phy.n_carriers)
    rx = tx_psd_dbm_per_carrier - attenuation_db - tilt
    return rx - noise_dbm_per_carrier


def tone_map_rate_scalar(phy: Av2Phy, attenuation_db: float) -> float:
    """``Av2Phy.rate_for_attenuation`` on one link's own tone map."""
    snr = snr_profile_scalar(phy, attenuation_db)
    effective = 10.0 ** ((snr - phy.snr_gap_db) / 10.0)
    bits = np.clip(np.floor(np.log2(1.0 + effective)), 0,
                   phy.max_bits_per_carrier).astype(int)
    rate = float(bits.sum() * phy.symbol_rate_khz * 1e3
                 * phy.fec_efficiency / 1e6)
    return rate * phy.mac_efficiency


#: Node name of the distribution panel in a wiring graph.
PANEL = "panel"


class PowerlineNetworkScalar(PowerlineNetwork):
    """A wiring plant searched as a general graph, one outlet at a time.

    ``graph`` is the plant's ``nx.Graph``: the panel, a ``junction-<c>``
    box per circuit and an ``outlet-<k>`` per outlet, every edge
    carrying its ``length_m``.  Each outlet gets one
    ``nx.shortest_path`` (a bidirectional search), whose edge lengths
    are summed along the path, and one tone map.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.graph = nx.Graph()
        self.graph.add_node(PANEL, kind="panel")
        for c, trunk in enumerate(self.trunk_m.tolist()):
            self.graph.add_node(f"junction-{c}", kind="junction")
            self.graph.add_edge(PANEL, f"junction-{c}", length_m=trunk)
        for k, (c, drop) in enumerate(zip(self.junction.tolist(),
                                          self.drop_m.tolist())):
            self.graph.add_node(f"outlet-{k}", kind="outlet")
            self.graph.add_edge(f"junction-{c}", f"outlet-{k}",
                                length_m=drop)

    @classmethod
    def of(cls, network: PowerlineNetwork) -> "PowerlineNetworkScalar":
        return cls(trunk_m=network.trunk_m, junction=network.junction,
                   drop_m=network.drop_m,
                   cable_loss_db_per_m=network.cable_loss_db_per_m,
                   junction_loss_db=network.junction_loss_db,
                   outlet_loss_db=network.outlet_loss_db, phy=network.phy)

    @property
    def outlets(self) -> List[str]:
        return sorted(n for n, d in self.graph.nodes(data=True)
                      if d["kind"] == "outlet")

    def path_attenuation_db(self, outlet: str) -> float:
        if self.graph.nodes.get(outlet, {}).get("kind") != "outlet":
            raise KeyError(f"unknown outlet {outlet!r}")
        path = nx.shortest_path(self.graph, PANEL, outlet,
                                weight="length_m")
        length = sum(self.graph[u][v]["length_m"]
                     for u, v in zip(path[:-1], path[1:]))
        junctions = sum(
            1 for node in path[1:-1]
            if self.graph.nodes[node]["kind"] == "junction")
        return (length * self.cable_loss_db_per_m
                + junctions * self.junction_loss_db
                + 2 * self.outlet_loss_db)

    def path_attenuations_db(self, outlets: Optional[Sequence[str]] = None
                             ) -> np.ndarray:
        names = list(outlets) if outlets is not None else self.outlets
        return np.array([self.path_attenuation_db(name) for name in names])

    def rates(self, outlets: Optional[Sequence[str]] = None) -> np.ndarray:
        names = list(outlets) if outlets is not None else self.outlets
        return np.array([
            tone_map_rate_scalar(self.phy, self.path_attenuation_db(name))
            for name in names])


def assign_channels_networkx(extender_xy: np.ndarray,
                             interference_radius_m: float = 40.0,
                             channel_set: Sequence[int] = (1, 6, 11)
                             ) -> ChannelPlan:
    """``assign_channels`` on an ``nx.Graph`` built one pair at a time
    and colored by ``nx.greedy_color(strategy="largest_first")``."""
    xy = np.atleast_2d(np.asarray(extender_xy, dtype=float))
    channel_list = list(channel_set)
    graph = nx.Graph()
    graph.add_nodes_from(range(xy.shape[0]))
    for a in range(xy.shape[0]):
        for b in range(a + 1, xy.shape[0]):
            if np.hypot(*(xy[a] - xy[b])) < interference_radius_m:
                graph.add_edge(a, b)
    coloring = nx.greedy_color(graph, strategy="largest_first")
    channels = tuple(channel_list[coloring[i] % len(channel_list)]
                     for i in range(graph.number_of_nodes()))
    conflicts = tuple(sorted(
        (a, b) for a, b in graph.edges if channels[a] == channels[b]))
    return ChannelPlan(channels=channels, conflict_free=not conflicts,
                       conflicts=conflicts)


def max_matchable_extenders_networkx(utilities: np.ndarray) -> np.ndarray:
    """Phase I's Hall fallback by Hopcroft-Karp on an ``nx.Graph`` of
    the finite-utility pairs: the matched column indices, sorted."""
    n_users, n_ext = utilities.shape
    graph = nx.Graph()
    user_nodes = [("u", i) for i in range(n_users)]
    graph.add_nodes_from(user_nodes, bipartite=0)
    graph.add_nodes_from((("e", j) for j in range(n_ext)), bipartite=1)
    for i in range(n_users):
        for j in np.flatnonzero(np.isfinite(utilities[i])):
            graph.add_edge(("u", i), ("e", int(j)))
    matching = nx.bipartite.maximum_matching(graph, top_nodes=user_nodes)
    return np.asarray(sorted(j for kind, j in matching if kind == "e"),
                      dtype=int)


def build_scenario_scalar(plan: FloorPlan,
                          phy: Optional[WifiPhy] = None,
                          rng: Optional[np.random.Generator] = None,
                          ensure_reachable: bool = True) -> Scenario:
    """``build_scenario`` with the scalar rate matrix and a per-user
    reachability check."""
    phy = phy or WifiPhy()
    wifi = rate_matrix_scalar(phy, plan.user_xy, plan.extender_xy, rng)
    if ensure_reachable and plan.n_users:
        lowest = phy.mcs_table[0][1] * phy.spatial_streams
        for i in range(plan.n_users):
            if not np.any(wifi[i] > 0):
                diff = plan.extender_xy - plan.user_xy[i]
                nearest = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
                wifi[i, nearest] = float(lowest)
    return Scenario(wifi_rates=wifi, plc_rates=plan.plc_rates.copy(),
                    user_ids=np.arange(plan.n_users))


def enterprise_floor_scalar(n_extenders: int, n_users: int,
                            rng: np.random.Generator) -> Scenario:
    """``enterprise_floor`` on the scalar wiring plant and rate matrix.

    Draws from ``rng`` in production's order: the wiring plant first,
    then the outlet choice and the extender and user positions.
    """
    wiring = PowerlineNetworkScalar.of(random_building(n_extenders, rng))
    plan = sample_floor_plan(n_extenders, rng, building=wiring)
    plan = plan.with_users(sample_user_positions(
        n_users, plan.width_m, plan.height_m, rng))
    return build_scenario_scalar(plan, rng=rng)


def build_building_scenario_scalar(spec: FleetSpec,
                                   building: int) -> Scenario:
    """``build_building_scenario`` through :func:`enterprise_floor_scalar`."""
    b = spec.buildings[building]
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=spec.seed, spawn_key=(building, 0)))
    return enterprise_floor_scalar(b.n_extenders, b.n_users, rng)

"""Phase II of WOLT: attaching the remaining users (Problem 2).

With the Phase-I anchors ``U1`` fixed, Problem 2 attaches the remaining
users ``U2 = U \\ U1`` so as to maximize the *WiFi-side* aggregate
throughput ``sum_j T_WiFi_j`` (the PLC backhaul was already saturated by
Phase I, so its grants barely move).  Theorem 3 proves the continuous
relaxation of Problem 2 has integral optima, so no rounding machinery is
needed.

Two solvers are provided:

* :func:`solve_phase2` (default) — a deterministic combinatorial solver
  that operationalizes the shift argument in the proof of Theorem 3:
  users are inserted by best marginal WiFi-throughput gain, then a local
  search alternates single-user relocations with a first-improvement
  pass of pairwise swaps until neither raises the objective.  Insertion
  and the swap pass score candidates in numpy sweeps (see
  :func:`_greedy_insertion` and :func:`_try_swaps`); a relocation scores
  one user's extenders in a single pass over Python floats, which on
  floors of up to 15 extenders costs less than a one-row numpy sweep
  (see :func:`_relocate`).  Every iterate is integral.
* :func:`solve_phase2_continuous` — the paper's "numerical nonlinear
  program" route: the smooth fractional extension of Problem 2 is solved
  with SLSQP (an interior/SQP method, stopping when the objective
  improvement drops below ``1e-5`` as in §IV-B), and the solution is
  snapped to the nearest integral point.  Used to cross-check Theorem 3
  empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..net.engine import _record
from .problem import MIN_USABLE_RATE, UNASSIGNED, Scenario

__all__ = ["Phase2Result", "solve_phase2", "solve_phase2_continuous",
           "wifi_objective"]

#: Stopping threshold for the numerical solver, as quoted in §IV-B.
SOLVER_TOLERANCE = 1e-5


@dataclass(frozen=True)
class Phase2Result:
    """Outcome of Phase II.

    Attributes:
        assignment: complete per-user extender indices (Phase-I anchors
            preserved, Phase-II users filled in).
        objective: the Problem-2 objective ``sum_j T_WiFi_j`` (Mbps).
        iterations: local-search relocation rounds (combinatorial solver)
            or SQP iterations (continuous solver).
        was_integral: True when the raw solver output was already
            integral (always True for the combinatorial solver).
    """

    assignment: np.ndarray
    objective: float
    iterations: int
    was_integral: bool


def wifi_objective(scenario: Scenario, assignment: Sequence[int]) -> float:
    """The Problem-2 objective: total WiFi throughput across extenders."""
    from ..wifi.sharing import cell_throughputs

    return float(cell_throughputs(scenario.wifi_rates, assignment,
                                  scenario.n_extenders).sum())


class _CellState:
    """Incremental per-extender WiFi state for fast marginal evaluation."""

    def __init__(self, scenario: Scenario, assignment: np.ndarray) -> None:
        self.scenario = scenario
        n_ext = scenario.n_extenders
        self.counts = np.zeros(n_ext, dtype=int)
        self.inv_rate_sums = np.zeros(n_ext, dtype=float)
        for i in np.flatnonzero(assignment != UNASSIGNED):
            j = assignment[i]
            self.counts[j] += 1
            self.inv_rate_sums[j] += 1.0 / scenario.wifi_rates[i, j]

    def throughput(self, j: int) -> float:
        if self.counts[j] == 0:
            return 0.0
        return self.counts[j] / self.inv_rate_sums[j]

    def total(self) -> float:
        busy = self.counts > 0
        return float((self.counts[busy] / self.inv_rate_sums[busy]).sum())

    def add(self, user: int, j: int) -> None:
        self.counts[j] += 1
        self.inv_rate_sums[j] += 1.0 / self.scenario.wifi_rates[user, j]

    def remove(self, user: int, j: int) -> None:
        self.counts[j] -= 1
        self.inv_rate_sums[j] -= 1.0 / self.scenario.wifi_rates[user, j]
        if self.counts[j] == 0:
            self.inv_rate_sums[j] = 0.0


class _BatchGains:
    """Vectorized marginal-gain evaluation against a :class:`_CellState`.

    Precomputes the inverse-rate matrix and reachability mask once, then
    scores whole candidate batches (every pending user x every extender)
    with a couple of numpy sweeps.  The arithmetic is elementwise
    identical to the one-candidate-at-a-time reference in
    ``tests/oracles.py``, so the search makes bit-identical decisions to
    the scalar loop.
    """

    def __init__(self, scenario: Scenario) -> None:
        rates = scenario.wifi_rates
        self.reach = rates > MIN_USABLE_RATE
        self.inv_rates = np.zeros_like(rates)
        self.inv_rates[self.reach] = 1.0 / rates[self.reach]
        # NaN on unreachable links: any score built from one is NaN, and
        # NaN fails every accept comparison.
        self.link_inv = np.where(self.reach, self.inv_rates, np.nan)
        if scenario.capacities is None:
            self.caps = np.full(scenario.n_extenders, np.inf)
        else:
            self.caps = scenario.capacities.astype(float)

    def cell_throughputs(self, state: _CellState) -> np.ndarray:
        out = np.zeros(state.counts.shape[0])
        busy = state.counts > 0
        out[busy] = state.counts[busy] / state.inv_rate_sums[busy]
        return out

    def gains(self, state: _CellState, users: np.ndarray) -> np.ndarray:
        """``(len(users), n_extenders)`` matrix of insertion gains.

        Unreachable pairs are ``-inf``; capacity is NOT masked here (the
        callers need different room semantics).
        """
        _record(batch=1, rows=int(users.size) * self.reach.shape[1])
        tput = self.cell_throughputs(state)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = ((state.counts[np.newaxis, :] + 1)
                   / (state.inv_rate_sums[np.newaxis, :]
                      + self.inv_rates[users]))
        return np.where(self.reach[users], new - tput[np.newaxis, :],
                        -np.inf)

    def room(self, state: _CellState) -> np.ndarray:
        return state.counts < self.caps


def _greedy_insertion(scenario: Scenario, state: _CellState,
                      gains: _BatchGains, assignment: np.ndarray,
                      remaining: "List[int]") -> None:
    """Greedy insertion over an incrementally maintained gains matrix.

    Each step places the (pending user, extender) pair with the largest
    marginal gain, taking the row-major argmax — the same pair a scalar
    first-strictly-greater scan selects.  Placing a user on extender
    ``j`` only changes the membership of cell ``j``, so only *column*
    ``j`` of the insertion-gains matrix can change.  The full
    ``(pending x extenders)`` sweep is paid once, then a single column
    is refreshed per placement.

    The refreshed column uses elementwise-identical arithmetic to
    :meth:`_BatchGains.gains`, and placed rows are masked to ``-inf``,
    so the decisions are bit-identical to rebuilding the whole matrix
    per placement and to the scalar loop — the differential wall in
    ``tests/test_delta_eval.py`` checks both against ``tests/oracles.py``.
    """
    if not remaining:
        return
    n_ext = scenario.n_extenders
    rem = np.asarray(remaining, dtype=int)
    matrix = np.full((scenario.n_users, n_ext), -np.inf)
    matrix[rem] = np.where(gains.room(state)[np.newaxis, :],
                           gains.gains(state, rem), -np.inf)
    while remaining:
        flat = int(np.argmax(matrix))
        if np.isneginf(matrix.flat[flat]):
            raise ValueError(
                f"users {remaining} cannot be attached to any extender")
        user, j = divmod(flat, n_ext)
        state.add(user, j)
        assignment[user] = j
        remaining.remove(user)
        matrix[user, :] = -np.inf
        pending = np.asarray(remaining, dtype=int)
        if pending.size == 0:
            break
        # Refresh only column j: the touched cell's occupancy changed.
        _record(delta=int(pending.size))
        if state.counts[j] < gains.caps[j]:
            tput_j = state.throughput(j)
            with np.errstate(divide="ignore", invalid="ignore"):
                new_col = ((state.counts[j] + 1)
                           / (state.inv_rate_sums[j]
                              + gains.inv_rates[pending, j]))
            matrix[pending, j] = np.where(gains.reach[pending, j],
                                          new_col - tput_j, -np.inf)
        else:
            matrix[pending, j] = -np.inf


def _gain(c: int, inv_j: float, inv_uj: float) -> float:
    """One cell's gain as :meth:`_BatchGains.gains` scores it.

    A divisor of exactly 0.0 gives numpy's ``inf`` rather than a
    ``ZeroDivisionError``: an occupied cell's inverse-rate sum can
    cancel to 0.0 (see :meth:`_CellState.remove`).
    """
    d = inv_j + inv_uj
    new = (c + 1) / d if d else math.inf
    return new - ((c / inv_j if inv_j else math.inf) if c else 0.0)


def _relocate(state: _CellState, gains: _BatchGains,
              assignment: np.ndarray, user: int) -> int:
    """Best relocation target for one user, in one scalar pass.

    Reads the cell state and the user's row once as Python floats, then
    scans extenders in ascending order, scoring each reachable one with
    room by the float operations of :meth:`_BatchGains.gains` in the
    same order.  The user moves only on a strict ``> best + 1e-12``
    improvement over staying put (hysteresis).

    A zero divisor falls back to :func:`_gain`, which gives numpy's
    ``inf`` for it.
    """
    cur = int(assignment[user])
    state.remove(user, cur)
    counts = state.counts.tolist()
    _record(batch=1, rows=len(counts))
    inv = state.inv_rate_sums.tolist()
    inv_u = gains.inv_rates[user].tolist()
    caps = gains.caps.tolist()
    best_j = cur
    best_gain = _gain(counts[cur], inv[cur], inv_u[cur])
    for j, reachable in enumerate(gains.reach[user].tolist()):
        c = counts[j]
        if not reachable or j == cur or c >= caps[j]:
            continue
        try:
            gain = (c + 1) / (inv[j] + inv_u[j]) - (c / inv[j] if c else 0.0)
        except ZeroDivisionError:
            gain = _gain(c, inv[j], inv_u[j])
        if gain > best_gain + 1e-12:
            best_j, best_gain = j, gain
    state.add(user, best_j)
    return best_j


def solve_phase2(scenario: Scenario,
                 phase1_assignment: Sequence[int],
                 max_rounds: int = 100) -> Phase2Result:
    """Combinatorial Phase-II solver (greedy insertion + local search).

    Args:
        scenario: the network snapshot.
        phase1_assignment: per-user extender indices with the ``U1``
            anchors set and everyone else :data:`UNASSIGNED`.
        max_rounds: safety cap on local-search rounds.

    Returns:
        A :class:`Phase2Result` with a complete, integral assignment.

    Raises:
        ValueError: if some user cannot be attached anywhere (no reachable
            extender with free capacity), i.e. constraint (7) cannot hold.
    """
    assignment = np.array(phase1_assignment, dtype=int)
    if assignment.shape[0] != scenario.n_users:
        raise ValueError("phase1_assignment length must equal n_users")
    anchors = assignment.copy()
    state = _CellState(scenario, assignment)
    remaining = np.flatnonzero(assignment == UNASSIGNED).tolist()
    gains = _BatchGains(scenario)

    # Greedy insertion: repeatedly place the (user, extender) pair with the
    # largest marginal gain in total WiFi throughput.
    _greedy_insertion(scenario, state, gains, assignment, remaining)

    # Local search over single relocations and pairwise swaps of U2 users
    # (the Phase-I anchors stay put, as the paper fixes U1).  Relocations
    # realize the shift argument of Theorem 3; swaps escape the
    # single-move local optima that pure shifting can get stuck in.
    movable = np.flatnonzero(anchors == UNASSIGNED)
    rounds = 0
    improved = True
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for user in movable.tolist():
            cur = assignment[user]
            best_j = _relocate(state, gains, assignment, user)
            assignment[user] = best_j
            if best_j != cur:
                improved = True
        if _try_swaps(state, gains, assignment, movable):
            improved = True
    return Phase2Result(assignment=assignment, objective=state.total(),
                        iterations=rounds, was_integral=True)


def _try_swaps(state: _CellState, gains: _BatchGains,
               assignment: np.ndarray, movable: np.ndarray) -> bool:
    """One first-improvement pass of pairwise extender swaps.

    Swapping users on different extenders keeps per-cell counts (and hence
    capacities) intact while exploring moves a single relocation cannot
    reach.  The pairs ``(a, b)`` of ``movable`` positions ``p < q`` are
    visited in row-major order.  One numpy sweep scores every pair from
    the current position on, using elementwise the same float operations
    as applying the swap to ``state`` (``remove`` resets a cell it
    empties to ``0.0``); the first pair with ``after > before + 1e-12``
    is applied with the same four ``remove``/``add`` calls, and the sweep
    resumes at the next pair.  A rejected trial never touches ``state``,
    so its ``inv_rate_sums`` change only on accepted swaps.  Returns True
    if any swap improved the objective.
    """
    n = movable.size
    pos = np.arange(n)
    later = pos[:, np.newaxis] < pos  # pairs (p, q) still to visit
    rows = movable[:, np.newaxis]
    counts, inv = state.counts, state.inv_rate_sums
    improved = False
    p0 = 0
    while True:
        j = assignment[movable]
        c, s = counts[j], inv[j]
        rm = np.where(c == 1, 0.0, s - gains.inv_rates[movable, j])
        # f[p, q]: cell j[q]'s throughput once movable[q] leaves it and
        # movable[p] joins, so a swap scores f[q, p] + f[p, q].
        f = c / (rm + gains.link_inv[rows, j])
        tput = c / s
        after = f.T[p0:] + f[p0:]
        before = tput[p0:, np.newaxis] + tput
        hits = np.flatnonzero((after > before + 1e-12) & later[p0:]
                              & (j[p0:, np.newaxis] != j))
        if not hits.size:
            return improved
        p, q = divmod(int(hits[0]), n)
        p += p0
        a, b = int(movable[p]), int(movable[q])
        ja, jb = int(j[p]), int(j[q])
        state.remove(a, ja)
        state.remove(b, jb)
        state.add(a, jb)
        state.add(b, ja)
        assignment[a], assignment[b] = jb, ja
        improved = True
        later[p, :q + 1] = False
        p0 = p


def solve_phase2_continuous(scenario: Scenario,
                            phase1_assignment: Sequence[int],
                            tolerance: float = SOLVER_TOLERANCE,
                            max_iterations: int = 200,
                            rng: Optional[np.random.Generator] = None
                            ) -> Phase2Result:
    """Numerical Phase-II solver on the fractional relaxation of Problem 2.

    Variables ``x_ij in [0, 1]`` for each Phase-II user and reachable
    extender, with the smooth objective

        sum_j (m_j + sum_i x_ij) / (D_j + sum_i x_ij / r_ij)

    where ``m_j`` and ``D_j`` account for the fixed Phase-I anchors.  The
    optimum is integral by Theorem 3; the returned assignment snaps each
    user to its largest ``x_ij`` and reports whether snapping was a no-op.
    """
    from scipy import optimize

    assignment = np.array(phase1_assignment, dtype=int)
    pending = np.flatnonzero(assignment == UNASSIGNED)
    if pending.size == 0:
        return Phase2Result(
            assignment=assignment,
            objective=wifi_objective(scenario, assignment),
            iterations=0, was_integral=True)

    n_ext = scenario.n_extenders
    anchored = np.flatnonzero(assignment != UNASSIGNED)
    base_counts = np.zeros(n_ext)
    base_inv = np.zeros(n_ext)
    for i in anchored:
        j = assignment[i]
        base_counts[j] += 1.0
        base_inv[j] += 1.0 / scenario.wifi_rates[i, j]

    # Variable layout: one block of n_ext entries per pending user;
    # unreachable pairs are pinned to zero via bounds.
    n_vars = pending.size * n_ext
    rates = np.maximum(scenario.wifi_rates[pending], MIN_USABLE_RATE)
    reach = scenario.wifi_rates[pending] > MIN_USABLE_RATE
    for k, user in enumerate(pending):
        if not np.any(reach[k]):
            raise ValueError(f"user {int(user)} has no reachable extender")

    def unpack(x: np.ndarray) -> np.ndarray:
        return x.reshape(pending.size, n_ext)

    def objective(x: np.ndarray) -> float:
        xm = unpack(x)
        counts = base_counts + xm.sum(axis=0)
        inv = base_inv + (xm / rates).sum(axis=0)
        busy = counts > 1e-12
        return -float((counts[busy] / inv[busy]).sum())

    constraints = []
    for k in range(pending.size):
        sel = np.zeros(n_vars)
        sel[k * n_ext:(k + 1) * n_ext] = 1.0
        constraints.append({"type": "eq",
                            "fun": (lambda x, s=sel: float(s @ x) - 1.0),
                            "jac": (lambda x, s=sel: s)})
    bounds = [(0.0, 1.0 if reach[k, j] else 0.0)
              for k in range(pending.size) for j in range(n_ext)]

    # woltlint: disable=W010 — API default for ad-hoc direct calls; the
    # SLSQP warm start only perturbs x0, and callers on the worker path
    # pass a SeedSequence-derived generator.
    rng = rng or np.random.default_rng(0)
    x0 = np.zeros((pending.size, n_ext))
    for k in range(pending.size):
        opts = np.flatnonzero(reach[k])
        weights = rng.random(opts.size) + 0.5
        x0[k, opts] = weights / weights.sum()

    result = optimize.minimize(objective, x0.ravel(), method="SLSQP",
                               bounds=bounds, constraints=constraints,
                               options={"maxiter": max_iterations,
                                        "ftol": tolerance})
    xm = unpack(np.clip(result.x, 0.0, 1.0))
    xm = np.where(reach, xm, -np.inf)
    choice = np.argmax(xm, axis=1)
    largest = xm[np.arange(pending.size), choice]
    was_integral = bool(np.all(np.abs(largest - 1.0) < 1e-3))
    assignment[pending] = choice
    return Phase2Result(assignment=assignment,
                        objective=wifi_objective(scenario, assignment),
                        iterations=int(result.nit),
                        was_integral=was_integral)

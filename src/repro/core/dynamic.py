"""Incremental WOLT with hysteresis (an extension beyond the paper).

Fig. 6c of the paper shows full WOLT re-optimization swaps roughly one
existing user per arrival.  Each swap is a real handoff (disassociation,
re-association, DHCP/ARP), so an operator may want to trade a little
aggregate throughput for fewer handoffs.  :class:`IncrementalWolt`
maintains a running association under churn and re-optimizes with a
*hysteresis threshold*: at each reconfiguration it computes the fresh
WOLT solution, then applies user moves greedily, keeping only those
whose marginal aggregate-throughput gain exceeds ``min_gain_mbps``
(and, optionally, at most ``max_moves`` of them).

With ``min_gain_mbps = 0`` and no move cap this reduces to vanilla
epoch-boundary WOLT; larger thresholds approach "never reassign"
(Greedy-like churn behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..net.engine import DeltaEvaluator, evaluate
from .problem import UNASSIGNED, Scenario
from .wolt import solve_wolt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .guard import DecisionGuard

__all__ = ["ReconfigureOutcome", "IncrementalWolt"]


@dataclass(frozen=True)
class ReconfigureOutcome:
    """Result of one incremental reconfiguration.

    Attributes:
        moves: ``(user_id, old_extender, new_extender)`` tuples applied.
        aggregate_before: aggregate throughput entering reconfiguration.
        aggregate_after: aggregate throughput after the applied moves.
        wolt_aggregate: what a full (unconstrained) WOLT re-solve would
            have achieved — the hysteresis cost is the gap to this.
    """

    moves: Tuple[Tuple[int, int, int], ...]
    aggregate_before: float
    aggregate_after: float
    wolt_aggregate: float

    @property
    def hysteresis_cost(self) -> float:
        """Aggregate throughput conceded to avoid extra handoffs."""
        return self.wolt_aggregate - self.aggregate_after


class IncrementalWolt:
    """A churn-aware association controller with bounded re-assignment.

    Args:
        plc_rates: per-extender PLC rates (Mbps).
        min_gain_mbps: a user move is applied only while it improves the
            aggregate by at least this much.
        max_moves: optional cap on moves per reconfiguration.
        plc_mode: PLC sharing law for evaluation and move scoring.
            Candidate moves are scored with a
            :class:`~repro.net.engine.DeltaEvaluator`: only the two cells
            a move touches are recomputed, bit-identically to a scalar
            :func:`~repro.net.engine.evaluate` of the moved assignment.
        guard: optional :class:`repro.core.guard.DecisionGuard` threaded
            into every WOLT re-solve (bit-identical on clean inputs).
    """

    def __init__(self, plc_rates: "Union[Sequence[float], np.ndarray]",
                 min_gain_mbps: float = 0.0,
                 max_moves: Optional[int] = None,
                 plc_mode: str = "redistribute",
                 guard: "Optional[DecisionGuard]" = None) -> None:
        if min_gain_mbps < 0:
            raise ValueError("min_gain_mbps must be non-negative")
        if max_moves is not None and max_moves < 0:
            raise ValueError("max_moves must be non-negative")
        self.plc_rates = np.asarray(plc_rates, dtype=float)
        if self.plc_rates.ndim != 1 or self.plc_rates.size == 0:
            raise ValueError("plc_rates must be a non-empty vector")
        self.min_gain_mbps = min_gain_mbps
        self.max_moves = max_moves
        self.plc_mode = plc_mode
        self.guard = guard
        #: user id -> WiFi rate row (length n_extenders)
        self._rates: Dict[int, np.ndarray] = {}
        #: user id -> extender index
        self.assignment: Dict[int, int] = {}
        self.total_moves = 0

    # ------------------------------------------------------------------
    # churn

    @property
    def n_users(self) -> int:
        return len(self._rates)

    def add_user(self, user_id: int,
                 wifi_rates: "Union[Sequence[float], np.ndarray]") -> int:
        """Admit a user on its strongest extender; returns the extender."""
        rates = np.asarray(wifi_rates, dtype=float)
        if rates.shape != self.plc_rates.shape:
            raise ValueError("one WiFi rate per extender is required")
        if not np.any(rates > 0):
            raise ValueError(f"user {user_id} hears no extender")
        if user_id in self._rates:
            raise ValueError(f"duplicate user id {user_id}")
        self._rates[user_id] = rates
        self.assignment[user_id] = int(np.argmax(rates))
        return self.assignment[user_id]

    def remove_user(self, user_id: int) -> None:
        """Remove a departing user."""
        self._rates.pop(user_id, None)
        self.assignment.pop(user_id, None)

    # ------------------------------------------------------------------
    # reconfiguration

    def _scenario(self) -> Tuple[Scenario, List[int]]:
        ids = sorted(self._rates)
        wifi = (np.vstack([self._rates[uid] for uid in ids]) if ids
                else np.empty((0, self.plc_rates.size)))
        return Scenario(wifi_rates=wifi, plc_rates=self.plc_rates), ids

    def aggregate_throughput(self) -> float:
        """Aggregate throughput of the current association."""
        scenario, ids = self._scenario()
        if not ids:
            return 0.0
        vec = np.array([self.assignment[uid] for uid in ids])
        return evaluate(scenario, vec, plc_mode=self.plc_mode,
                        require_complete=True).aggregate

    def reconfigure(self) -> ReconfigureOutcome:
        """Apply the best WOLT moves that clear the hysteresis bar.

        The fresh WOLT solution defines the candidate target extender of
        each user; candidate moves are applied greedily in order of
        marginal gain, re-evaluated after every application, until no
        remaining move gains at least ``min_gain_mbps`` (or the move cap
        is hit).  At ``min_gain_mbps == 0`` every target move is applied
        — zero-gain tie points included — so the final association *is*
        the fresh WOLT target (vanilla epoch-boundary WOLT), as the
        class contract promises.
        """
        scenario, ids = self._scenario()
        if not ids:
            return ReconfigureOutcome(moves=(), aggregate_before=0.0,
                                      aggregate_after=0.0,
                                      wolt_aggregate=0.0)
        current = np.array([self.assignment[uid] for uid in ids])
        baseline = evaluate(scenario, current, plc_mode=self.plc_mode,
                            require_complete=True)
        before = baseline.aggregate
        target = solve_wolt(scenario, plc_mode=self.plc_mode,
                            guard=self.guard)
        # A guarded solve may leave a genuinely unattachable user
        # UNASSIGNED; never "move" anyone to UNASSIGNED.
        pending = {idx for idx in range(len(ids))
                   if target.assignment[idx] != current[idx]
                   and target.assignment[idx] != UNASSIGNED}
        if not pending:
            return ReconfigureOutcome(moves=(), aggregate_before=before,
                                      aggregate_after=before,
                                      wolt_aggregate=target.
                                      aggregate_throughput)
        applied: List[Tuple[int, int, int]] = []
        working = current.copy()
        evaluator = DeltaEvaluator.from_report(scenario, baseline,
                                               plc_mode=self.plc_mode)
        best = before
        while pending:
            if (self.max_moves is not None
                    and len(applied) >= self.max_moves):
                break
            idxs = sorted(pending)
            # Each candidate recomputes only the two cells its move
            # touches (bit-identical to a scalar evaluate of the moved
            # assignment).
            gains = [(evaluator.score_move(idx, int(target.assignment[idx]))
                      - best, idx) for idx in idxs]
            gain, idx = max(gains)
            # The hysteresis bar: at a positive threshold, stop as soon
            # as the best remaining move falls short.  At the zero
            # threshold the class contract is "vanilla epoch-boundary
            # WOLT" — every remaining target move is applied, zero-gain
            # tie points included (pending shrinks each iteration, so
            # the loop still terminates).
            if self.min_gain_mbps > 0 and gain < self.min_gain_mbps:
                break
            applied.append((ids[idx], int(working[idx]),
                            int(target.assignment[idx])))
            working[idx] = target.assignment[idx]
            evaluator.commit(idx, int(target.assignment[idx]))
            # Re-sync from the evaluator's committed aggregate:
            # ``best += gain`` would accumulate one rounding error per
            # move and the greedy threshold would drift away from the
            # true baseline over a long churn sequence.
            best = evaluator.aggregate
            pending.discard(idx)
        for user_id, _, new_j in applied:
            self.assignment[user_id] = new_j
        self.total_moves += len(applied)
        after = evaluate(scenario, working, plc_mode=self.plc_mode,
                         require_complete=True).aggregate
        return ReconfigureOutcome(moves=tuple(applied),
                                  aggregate_before=before,
                                  aggregate_after=after,
                                  wolt_aggregate=target.
                                  aggregate_throughput)

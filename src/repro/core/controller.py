"""Central Controller (CC) protocol emulation.

§V-A of the paper implements WOLT as a user-space utility: clients scan,
estimate per-extender WiFi rates from the NIC's MCS readout, report to a
Central Controller over their initial (strongest-RSSI) association, and
re-associate when the CC sends back an association directive.

This module emulates that control plane at message granularity.  It is
the one implementation of the paper's online association rules: Fig.
6b/6c (:mod:`repro.sim.dynamics`), extender failure recovery
(:mod:`repro.sim.failures`), ``wolt faults`` and ``wolt chaos`` all
drive it, and Fig. 6c's re-assignments are its counted handoffs.  An
optional hysteresis bar (``min_gain_mbps``) trades a little aggregate
throughput for fewer of those handoffs.  The solvers it calls trust
their scenario, so the CC hands them only the users that hear a live
extender.  :func:`repro.core.problem.servable` decides who may stay on
an extender, and an attached :class:`repro.core.health.HealthMonitor`
has all telemetry sanitized at receipt (without one, NaN raises).

Messages travel through an injectable :class:`Transport`.  The default
transport is lossless (the paper's assumption); the fault-injection
layer in :mod:`repro.sim.faults` substitutes a seeded lossy transport to
study a degraded control plane.  Directive delivery uses bounded
retry, and the controller degrades gracefully: a client that never
receives its directive stays on its previous extender (or on the
strongest-RSSI extender it used to reach the CC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..net.engine import DeltaEvaluator
from .baselines import greedy_attach_user
from .health import HealthMonitor, sanitize_rates
from .problem import (MIN_USABLE_RATE, Scenario, UNASSIGNED, fail_extenders,
                      servable)
from .wolt import solve_wolt

__all__ = ["ScanReport", "AssociationDirective", "ControllerStats",
           "Transport", "CentralController", "POLICIES"]

#: The association policies the controller implements.
POLICIES = ("wolt", "greedy", "rssi")


@dataclass(frozen=True)
class ScanReport:
    """A client's scan results, sent to the CC on arrival.

    Attributes:
        user_id: stable client identifier.
        wifi_rates: estimated PHY rate to every extender (Mbps; 0 =
            extender not heard).
    """

    user_id: int
    wifi_rates: np.ndarray


@dataclass(frozen=True)
class AssociationDirective:
    """CC -> client instruction to (re-)associate.

    Attributes:
        user_id: addressee.
        extender: target extender index.
    """

    user_id: int
    extender: int


@dataclass
class ControllerStats:
    """Running counters of control-plane activity.

    Attributes:
        reassignments: directives that *changed* an existing association.
        dropped_reports: scan reports lost in transit (never seen by
            the CC).
        dropped_directives: directives whose every delivery attempt
            (initial send plus retries) was lost.
        retries: directive retransmission attempts after a lost send.
        failed_handoffs: delivered directives the client failed to act
            on (it stays on its previous extender).
        stale_reports: reports older than the configured TTL at a
            reconfiguration; their users kept their last-known-good
            association instead of being re-solved.
        sanitized_reports: scan reports containing non-finite or
            negative rates that were repaired at receipt.
        quarantines: extenders the health monitor quarantined.
        readmits: quarantined extenders it re-admitted after
            probation.
    """

    reassignments: int = 0
    dropped_reports: int = 0
    dropped_directives: int = 0
    retries: int = 0
    failed_handoffs: int = 0
    stale_reports: int = 0
    sanitized_reports: int = 0
    quarantines: int = 0
    readmits: int = 0


class Transport:
    """The control-plane message channel between clients and the CC.

    The base class is the paper's lossless §V-A control plane: every
    scan report arrives unperturbed, every directive lands on the first
    attempt, and every commanded handoff completes.  Fault injection
    (:class:`repro.sim.faults.FaultyTransport`) overrides these hooks
    with seeded Bernoulli losses and estimate noise.

    Attributes:
        max_retries: retransmissions the CC attempts after a lost
            directive send (0 for the lossless transport).
    """

    max_retries: int = 0

    def observe_report(self, report: ScanReport) -> Optional[ScanReport]:
        """The report as the CC receives it; ``None`` if lost."""
        return report

    def deliver_directive(self, directive: AssociationDirective) -> bool:
        """Whether one delivery attempt of ``directive`` lands."""
        return True

    def handoff_succeeds(self, directive: AssociationDirective) -> bool:
        """Whether the client acts on a delivered re-association."""
        return True


class CentralController:
    """The WOLT Central Controller.

    The CC maintains the measured PLC link capacities (obtained offline
    with iperf, §V-A), accumulates clients' scan reports, and computes
    associations with the configured policy.

    Args:
        plc_rates: measured per-extender PLC rates (Mbps).
        policy: one of :data:`POLICIES`.
        transport: control-plane message channel; defaults to the
            lossless :class:`Transport`.
        health: optional :class:`repro.core.health.HealthMonitor`, the
            controller's one telemetry-trust switch.  When set,
            quarantined extenders are masked out of every solve and of
            admission parking (every solve goes through
            :func:`~repro.core.problem.fail_extenders`: zero WiFi
            column, zero PLC rate), capacity telemetry fed through
            :meth:`update_plc_telemetry` drives the quarantine, and
            non-finite or negative scan-report rates are sanitized at
            receipt (:func:`~repro.core.health.sanitize_rates`, falling
            back to the user's last known-good rates).  Without it a
            non-finite report or reading raises ``ValueError`` —
            telemetry this controller cannot trust is rejected loudly.
        report_ttl_epochs: optional scan-report time-to-live, counted
            in reconfiguration epochs.  A user whose newest report is
            older than this many epochs is *stale*: it is excluded
            from the re-solve and keeps its last-known-good
            association (counted in
            :attr:`ControllerStats.stale_reports`).  ``None`` (the
            default) keeps the legacy behaviour — reports never
            expire.
        min_gain_mbps: hysteresis bar for :meth:`reconfigure`.  At 0
            (the default) every user moves to its fresh WOLT target.
            Above 0 only target moves that each gain at least this
            much aggregate throughput (``redistribute`` law) are
            issued; see :meth:`_hysteresis`.  Not combinable with
            ``health``.
    """

    def __init__(self, plc_rates: Sequence[float], policy: str = "wolt",
                 transport: Optional[Transport] = None,
                 health: Optional[HealthMonitor] = None,
                 report_ttl_epochs: Optional[int] = None,
                 min_gain_mbps: float = 0.0) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unsupported policy {policy!r}")
        if min_gain_mbps < 0:
            raise ValueError("min_gain_mbps must be non-negative")
        if min_gain_mbps > 0 and health is not None:
            raise ValueError(
                "min_gain_mbps cannot be combined with a health monitor")
        self.plc_rates = np.asarray(plc_rates, dtype=float)
        if self.plc_rates.ndim != 1 or self.plc_rates.size == 0:
            raise ValueError("plc_rates must be a non-empty vector")
        if (not np.all(np.isfinite(self.plc_rates))
                or np.any(self.plc_rates < 0)):
            raise ValueError("plc_rates must be finite and non-negative")
        if report_ttl_epochs is not None and report_ttl_epochs < 1:
            raise ValueError("report_ttl_epochs must be positive")
        if health is not None and health.n_extenders != self.plc_rates.size:
            raise ValueError(
                "health monitor must watch one extender per PLC link")
        self.policy = policy
        self.transport = transport if transport is not None else Transport()
        self.health = health
        self.report_ttl_epochs = report_ttl_epochs
        self.min_gain_mbps = min_gain_mbps
        self.stats = ControllerStats()
        self._epoch = 0
        self._reports: Dict[int, ScanReport] = {}
        self._report_epoch: Dict[int, int] = {}
        self._last_good_rates: Dict[int, np.ndarray] = {}
        self._assignment: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # client-facing protocol

    @property
    def n_extenders(self) -> int:
        return self.plc_rates.size

    @property
    def associations(self) -> Dict[int, int]:
        """Current user id -> extender associations (a copy)."""
        return dict(self._assignment)

    def receive_scan_report(self, report: ScanReport) -> None:
        """Handle a client's scan report; direct it if needed.

        A new client is admitted immediately: Greedy places it to
        maximize aggregate throughput, RSSI and WOLT park it on its
        strongest extender (WOLT re-optimizes everyone at the next
        :meth:`reconfigure`).  A *refreshed* report from an
        already-connected client only updates the CC's rate table — its
        association is kept as long as the report still rates its
        current extender as usable (:func:`~repro.core.problem.servable`),
        so an optimized WOLT placement survives re-reports.  A client is
        re-parked only when its extender became unusable (e.g. the
        extender browned out).

        A lost report changes nothing.  A new client whose directive
        never arrives stays on the strongest-RSSI extender it used to
        reach the CC (graceful degradation).
        """
        rates = np.asarray(report.wifi_rates, dtype=float)
        if rates.shape != (self.n_extenders,):
            raise ValueError("scan report must cover every extender")
        rates = self._checked_rates(report.user_id, rates)
        if not np.any(rates > MIN_USABLE_RATE):
            if self.health is not None:
                # Nothing usable survived sanitation and there is no
                # last-known-good fallback: ignore the report (the
                # client physically stays wherever it is).
                return
            raise ValueError(f"user {report.user_id} hears no extender")
        observed = self.transport.observe_report(
            ScanReport(report.user_id, rates))
        if observed is None:
            self.stats.dropped_reports += 1
            return
        seen = np.asarray(observed.wifi_rates, dtype=float)
        self._reports[report.user_id] = ScanReport(report.user_id, seen)
        self._report_epoch[report.user_id] = self._epoch
        self._last_good_rates[report.user_id] = seen.copy()
        current = self._assignment.get(report.user_id)
        if current is not None and servable(
                Scenario(wifi_rates=seen, plc_rates=self.plc_rates),
                [current])[0] == current:
            return
        if self.policy == "greedy":
            scenario, ids = self._scenario()
            idx = ids.index(report.user_id)
            vec = self._assignment_vector(ids)
            vec[idx] = UNASSIGNED
            try:
                extender = greedy_attach_user(scenario, vec, idx)
            except ValueError:
                if self.health is None:
                    raise
                extender = int(np.argmax(self._admission_rates(seen)))
        else:
            extender = int(np.argmax(self._admission_rates(seen)))
        if not self._issue(report.user_id, extender) and current is None:
            # The client reached the CC over its strongest-RSSI
            # association and never heard back: it physically stays
            # there (per its own, unperturbed scan).
            self._assignment[report.user_id] = int(np.argmax(rates))

    def disconnect(self, user_id: int) -> None:
        """Remove a departing client."""
        self._reports.pop(user_id, None)
        self._report_epoch.pop(user_id, None)
        self._last_good_rates.pop(user_id, None)
        self._assignment.pop(user_id, None)

    def update_plc_telemetry(self, plc_rates: Sequence[float]) -> None:
        """Refresh the measured PLC capacities from telemetry.

        With a :class:`~repro.core.health.HealthMonitor` attached, the
        observation drives the quarantine state machine and non-finite
        or negative readings fall back to each extender's last
        known-good capacity.  Without one, untrusted telemetry is
        rejected loudly.
        """
        arr = np.asarray(plc_rates, dtype=float).ravel()
        if arr.shape[0] != self.n_extenders:
            raise ValueError(
                "PLC telemetry must cover every extender")
        if self.health is not None:
            carrying = np.zeros(self.n_extenders, dtype=bool)
            for j in self._assignment.values():
                if j != UNASSIGNED:
                    carrying[j] = True
            for event in self.health.observe(arr, carrying):
                if event.event == "quarantine":
                    self.stats.quarantines += 1
                elif event.event == "readmit":
                    self.stats.readmits += 1
            self.plc_rates = self.health.effective_rates(arr)
            return
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError(
                "PLC telemetry must be finite and non-negative")
        self.plc_rates = arr

    def reconfigure(self) -> None:
        """Epoch-boundary re-optimization (WOLT only; others no-op).

        Every call advances the controller's epoch clock (the unit of
        the report TTL).  With ``report_ttl_epochs`` set, users whose
        newest report expired are excluded from the solve and keep
        their last-known-good association.

        WOLT solves only the users that hear a live, non-quarantined
        extender; the solve is scattered back onto the full user list,
        and a user left out keeps its last-known-good association.
        The solve's output is validated by :func:`solve_wolt` itself,
        so no repair follows it.

        Each user whose extender changes gets a directive, in ascending
        user order (a directive lost on every attempt is counted in
        :attr:`ControllerStats.dropped_directives`; its client keeps
        its previous extender).
        """
        self._epoch += 1
        if self.policy != "wolt" or not self._reports:
            return
        fresh = self._fresh_ids()
        self.stats.stale_reports += len(self._reports) - len(fresh)
        if not fresh:
            return
        scenario, ids = self._scenario(fresh)
        hearing = np.flatnonzero(
            np.any(scenario.wifi_rates > MIN_USABLE_RATE, axis=1))
        if hearing.size == len(ids):
            target = solve_wolt(scenario).assignment
        else:
            target = np.full(len(ids), UNASSIGNED, dtype=int)
            if hearing.size:
                target[hearing] = solve_wolt(
                    scenario.subset_users(hearing)).assignment
        if self.min_gain_mbps > 0:
            target = self._hysteresis(scenario, ids, target)
        for idx, uid in enumerate(ids):
            new_j = int(target[idx])
            if new_j == UNASSIGNED:
                # This user hears no live extender (e.g. its only
                # extenders are quarantined): it keeps its
                # last-known-good association.
                continue
            if self._assignment.get(uid) != new_j:
                self._issue(uid, new_j)

    # ------------------------------------------------------------------
    # internals

    def _hysteresis(self, scenario: Scenario, ids: List[int],
                    target: np.ndarray) -> np.ndarray:
        """The part of the WOLT ``target`` that clears the hysteresis bar.

        Target moves are applied greedily to the current association,
        highest aggregate gain first (a tie goes to the larger index),
        until the best remaining move gains less than
        ``min_gain_mbps``.  Each candidate is scored by a
        :class:`~repro.net.engine.DeltaEvaluator`, which recomputes
        only the two cells a move touches, bit-identically to a full
        :func:`~repro.net.engine.evaluate`; the bar is re-read from the
        evaluator after every commit, so rounding never accumulates.
        """
        # A client whose re-park handoff failed may still sit on an
        # extender its newest report cannot use: score it as detached.
        current = servable(scenario, self._assignment_vector(ids))
        evaluator = DeltaEvaluator(scenario, current)
        pending = {idx for idx in range(len(ids))
                   if target[idx] != current[idx]
                   and target[idx] != UNASSIGNED}
        best = evaluator.aggregate
        while pending:
            gain, idx = max((evaluator.score_move(idx, int(target[idx]))
                             - best, idx) for idx in pending)
            if gain < self.min_gain_mbps:
                break
            evaluator.commit(idx, int(target[idx]))
            best = evaluator.aggregate
            current[idx] = target[idx]
            pending.discard(idx)
        return current

    def _issue(self, user_id: int, extender: int) -> bool:
        """Send one directive through the transport; ``True`` if delivered.

        Delivery is retried up to ``transport.max_retries`` times.  On
        exhaustion the directive is recorded as dropped — the client
        keeps its previous association.  A delivered re-association may
        still fail client-side (``failed_handoffs``); only a completed
        handoff changes the association.
        """
        previous = self._assignment.get(user_id)
        directive = AssociationDirective(user_id=user_id,
                                         extender=extender)
        delivered = False
        for attempt in range(self.transport.max_retries + 1):
            if self.transport.deliver_directive(directive):
                delivered = True
                break
            if attempt < self.transport.max_retries:
                self.stats.retries += 1
        if not delivered:
            self.stats.dropped_directives += 1
            return False
        if previous is not None and previous != extender:
            if not self.transport.handoff_succeeds(directive):
                self.stats.failed_handoffs += 1
                return True
            self.stats.reassignments += 1
        self._assignment[user_id] = extender
        return True

    def _checked_rates(self, user_id: int,
                       rates: np.ndarray) -> np.ndarray:
        """Finiteness gate on telemetry-derived rates (the W009 seam).

        Without a health monitor, non-finite telemetry is rejected
        loudly — better a clear error at receipt than a poisoned solve
        later.  With one, non-finite entries fall back to the user's
        last known-good rates (or 0 = unreachable), negative ones are
        clamped to 0, and the repair is counted.
        """
        if self.health is None:
            if not np.all(np.isfinite(rates)):
                raise ValueError(
                    f"user {user_id} reported non-finite rates")
            return rates
        clean, n_replaced = sanitize_rates(
            rates, fallback=self._last_good_rates.get(user_id))
        if n_replaced:
            self.stats.sanitized_reports += 1
        return clean

    def _admission_rates(self, seen: np.ndarray) -> np.ndarray:
        """Rates used to park a new client on its strongest extender.

        Quarantined extenders are masked out so no client is commanded
        onto one — unless that would leave nothing to park on.
        """
        if self.health is None:
            return seen
        masked = np.where(self.health.quarantined, 0.0, seen)
        return masked if np.any(masked > MIN_USABLE_RATE) else seen

    def _fresh_ids(self) -> List[int]:
        """Reported users whose newest report is within the TTL."""
        ids = sorted(self._reports)
        if self.report_ttl_epochs is None:
            return ids
        return [uid for uid in ids
                if self._epoch - self._report_epoch.get(uid, self._epoch)
                <= self.report_ttl_epochs]

    def _scenario(self, ids: Optional[List[int]] = None
                  ) -> "Tuple[Scenario, List[int]]":
        if ids is None:
            ids = sorted(self._reports)
        wifi = np.vstack([self._reports[uid].wifi_rates for uid in ids])
        if not np.all(np.isfinite(wifi)):
            # Reports are checked at receipt (_checked_rates); this is
            # defense in depth against cache corruption.
            raise ValueError("non-finite rates in the scan-report cache")
        scenario = Scenario(wifi_rates=wifi, plc_rates=self.plc_rates,
                            user_ids=np.asarray(ids))
        if self.health is not None and np.any(self.health.quarantined):
            scenario = fail_extenders(
                scenario, np.flatnonzero(self.health.quarantined))
        return scenario, ids

    def _assignment_vector(self, ids: List[int]) -> np.ndarray:
        return np.array([self._assignment.get(uid, UNASSIGNED)
                         for uid in ids])

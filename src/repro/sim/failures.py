"""Failure injection: extenders die and recover under live traffic.

PLC extenders are consumer devices on office power strips — they get
unplugged, brown out, and reboot.  This module injects extender
failures into a running association and measures how each policy
recovers:

* a failed extender's PLC link and WiFi cell vanish
  (:func:`~repro.core.problem.fail_extenders` masks the scenario);
* orphaned users must re-associate — :func:`drive_control_plane`
  feeds each epoch's live network to a
  :class:`~repro.core.controller.CentralController`, which re-solves
  globally (WOLT) or re-parks only the orphans on their strongest
  survivor (RSSI); clients that hear no live extender leave the WLAN;
* :func:`settle_clients` is where clients physically end up;
* :func:`flip_extenders` is one epoch of Bernoulli fail/recover
  dynamics; :class:`FailureSimulation` drives epochs of it and records
  throughput and orphan counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.controller import CentralController, ScanReport
from ..core.problem import Scenario, UNASSIGNED, fail_extenders
from ..net.engine import evaluate

__all__ = ["flip_extenders", "reassociate_orphans",
           "settle_clients", "drive_control_plane", "FailureEpoch",
           "FailureSimulation"]


def flip_extenders(down: np.ndarray, rng: np.random.Generator,
                   fail_prob: float,
                   recover_prob: float = 0.5) -> np.ndarray:
    """One epoch of Bernoulli fail/recover on the ``down`` mask.

    Returns a new mask; never the whole network (one random extender is
    kept up).
    """
    flips_down = rng.random(down.size) < fail_prob
    flips_up = rng.random(down.size) < recover_prob
    down = (down & ~flips_up) | (~down & flips_down)
    if down.all():
        down[int(rng.integers(down.size))] = False
    return down


def reassociate_orphans(scenario: Scenario,
                        assignment: Sequence[int]) -> np.ndarray:
    """Move users off dead extenders onto their strongest survivor.

    Users whose current extender is unreachable (rate 0, e.g. after
    :func:`fail_extenders`) re-associate RSSI-style; everyone else
    stays put.  Users who hear no survivor are left UNASSIGNED
    (offline).
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


def settle_clients(scenario: Scenario,
                   known: Mapping[int, int]) -> np.ndarray:
    """Where clients end up, given the associations a controller knows.

    A user in ``known`` sits on its known extender, any other user
    camps on its strongest live extender, and then
    :func:`reassociate_orphans` moves everyone off dead extenders —
    clients cannot stay on one, whatever a controller believes.  With
    an empty ``known`` this is RSSI physics for every user.
    """
    assign = np.full(scenario.n_users, UNASSIGNED, dtype=int)
    for user, extender in known.items():
        assign[user] = extender
    return reassociate_orphans(scenario, assign)


#: One epoch of controller input: the live ground truth (dead extenders
#: masked), the per-user WiFi rates the clients report, and the PLC
#: capacity reading to feed first (``None`` = no telemetry this epoch).
EpochInput = Tuple[Scenario, np.ndarray, Optional[np.ndarray]]


def drive_control_plane(cc: CentralController,
                        epochs: Sequence[EpochInput]) -> None:
    """Run ``cc`` through ``epochs``.

    Per epoch: feed the PLC reading (if any), disconnect every user who
    hears no live extender (it has left the WLAN), send one scan report
    per other user, then ``reconfigure()``.  Controller exceptions
    propagate, leaving ``cc`` as it was at the raise.
    """
    for live, reported_wifi, plc_reading in epochs:
        if plc_reading is not None:
            cc.update_plc_telemetry(plc_reading)
        for user in range(live.n_users):
            if live.reachable(user).size == 0:
                cc.disconnect(user)
            else:
                cc.receive_scan_report(
                    ScanReport(user, reported_wifi[user]))
        cc.reconfigure()


@dataclass(frozen=True)
class FailureEpoch:
    """Measurements from one failure-injection epoch.

    Attributes:
        epoch: 1-based index.
        failed_extenders: indices dead during the epoch.
        orphaned_users: users whose extender died this epoch.
        offline_users: users no surviving extender can reach.
        aggregate_throughput: network throughput after recovery.
    """

    epoch: int
    failed_extenders: Tuple[int, ...] = ()
    orphaned_users: int = 0
    offline_users: int = 0
    aggregate_throughput: float = 0.0  # woltlint: disable=W005 — established result API; value is Mbps


class FailureSimulation:
    """Bernoulli extender fail/recover dynamics under a fixed population.

    Every association decision is made by a lossless
    :class:`~repro.core.controller.CentralController` running
    ``policy``; the simulation only injects failures and measures.

    Args:
        scenario: the healthy, uncapacitated network (users fixed; no
            churn, isolating the failure effect).
        policy: ``"wolt"`` (global re-solve each epoch) or ``"rssi"``
            (only orphans move, to their strongest survivor).
        rng: random generator.
        fail_prob: per-epoch probability a healthy extender fails.
        recover_prob: per-epoch probability a failed extender recovers.
        plc_mode: PLC sharing law for scoring.
    """

    def __init__(self, scenario: Scenario, policy: str,
                 rng: np.random.Generator,
                 fail_prob: float = 0.1,
                 recover_prob: float = 0.5,
                 plc_mode: str = "redistribute") -> None:
        if policy not in ("wolt", "rssi"):
            raise ValueError("policy must be 'wolt' or 'rssi'")
        if not 0 <= fail_prob <= 1 or not 0 <= recover_prob <= 1:
            raise ValueError("probabilities must be in [0, 1]")
        if scenario.capacities is not None:  # the CC ignores B_j
            raise ValueError("constraint (8): FailureSimulation's "
                             "controller ignores extender capacities")
        self.healthy = scenario
        self.rng = rng
        self.fail_prob = fail_prob
        self.recover_prob = recover_prob
        self.plc_mode = plc_mode
        self.down = np.zeros(scenario.n_extenders, dtype=bool)
        self.cc = CentralController(scenario.plc_rates, policy=policy)
        #: Where clients sit; before epoch 1, on their strongest extender.
        self.assignment = settle_clients(scenario, {})
        self.history: List[FailureEpoch] = []

    def run_epoch(self) -> FailureEpoch:
        """Fail/recover extenders, recover the association, measure."""
        self.down = flip_extenders(self.down, self.rng, self.fail_prob,
                                   self.recover_prob)
        live = fail_extenders(self.healthy, np.flatnonzero(self.down))
        orphaned = int(np.sum([
            self.assignment[u] != UNASSIGNED
            and live.wifi_rates[u, self.assignment[u]] <= 0
            for u in range(live.n_users)]))
        drive_control_plane(self.cc,
                            [(live, live.wifi_rates, live.plc_rates)])
        self.assignment = settle_clients(live, self.cc.associations)
        report = evaluate(live, self.assignment, plc_mode=self.plc_mode)
        stats = FailureEpoch(
            epoch=len(self.history) + 1,
            failed_extenders=tuple(np.flatnonzero(self.down).tolist()),
            orphaned_users=orphaned,
            offline_users=int(np.sum(self.assignment == UNASSIGNED)),
            aggregate_throughput=report.aggregate)
        self.history.append(stats)
        return stats

    def run(self, n_epochs: int) -> List[FailureEpoch]:
        """Run ``n_epochs`` failure epochs."""
        if n_epochs < 1:
            raise ValueError("n_epochs must be positive")
        return [self.run_epoch() for _ in range(n_epochs)]

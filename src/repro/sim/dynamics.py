"""Online user dynamics: Poisson arrivals/departures and epoch behaviour.

Reproduces the temporal setting of §V-A/§V-E: "user association requests
arrive and depart the network according to Poisson distribution with
arrival rate of 3 and departure rate of 1", giving a net average growth
of ~33 users per epoch (36 -> 66 -> 102 in Fig. 6b).

The simulation owns the population (two Poisson timers, one for
arrivals and one for departures, fired in time order) and the scoring;
a lossless :class:`repro.core.controller.CentralController` makes every
association decision, so the policies behave as in the paper:

* **WOLT** — an arriving user attaches to its strongest-RSSI extender to
  reach the Central Controller; at every epoch boundary the CC re-solves
  the full association with Alg. 1 and re-assigns users (Fig. 6c counts
  those re-assignments).
* **Greedy** — each arriving user is greedily placed to maximize the
  aggregate throughput; nobody is ever re-assigned.
* **RSSI** — each arriving user sticks with its strongest extender.

The simulation is fully deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.controller import CentralController, ScanReport
from ..core.problem import Scenario, UNASSIGNED
from ..net.engine import evaluate
from ..net.topology import FloorPlan, build_scenario, sample_user_positions
from ..wifi.phy import WifiPhy

__all__ = ["EpochStats", "OnlineSimulation"]


@dataclass(frozen=True)
class EpochStats:
    """Measurements taken at one epoch boundary (Fig. 6b/6c).

    Attributes:
        epoch: 1-based epoch index.
        n_users: population after the epoch's arrivals/departures.
        arrivals: users that arrived during the epoch.
        departures: users that departed during the epoch.
        reassignments: existing users whose extender changed at the
            boundary (0 for Greedy/RSSI, which never re-assign).
        aggregate_throughput: network throughput after reconfiguration.
        jain_fairness: Jain index of per-user throughputs.
    """

    epoch: int
    n_users: int
    arrivals: int
    departures: int
    reassignments: int
    aggregate_throughput: float  # woltlint: disable=W005 — established result API; value is Mbps
    jain_fairness: float


class OnlineSimulation:
    """Arrival/departure dynamics over an enterprise floor.

    Args:
        plan: floor geometry with extender placements (users ignored;
            the simulation manages its own population).
        policy: one of :data:`repro.core.controller.POLICIES`.
        rng: random generator (drives arrivals, departures, positions).
        arrival_rate: Poisson arrival rate (paper: 3 per time unit).
        departure_rate: Poisson departure rate (paper: 1 per time unit).
        epoch_duration: epoch length in time units; the default 16.5
            yields the paper's ~33-user net growth per epoch.
        phy: WiFi PHY used to derive rates from positions.
        plc_mode: PLC sharing law used to *score* epochs (policies still
            decide against the measured, redistributing behaviour).
    """

    def __init__(self, plan: FloorPlan, policy: str,
                 rng: np.random.Generator,
                 arrival_rate: float = 3.0,
                 departure_rate: float = 1.0,
                 epoch_duration: float = 16.5,
                 phy: Optional[WifiPhy] = None,
                 plc_mode: str = "redistribute") -> None:
        if arrival_rate <= 0 or departure_rate < 0:
            raise ValueError("rates must be positive (departures >= 0)")
        self.plan = plan
        self.policy = policy
        self.rng = rng
        self.arrival_rate = arrival_rate
        self.departure_rate = departure_rate
        self.epoch_duration = epoch_duration
        self.phy = phy or WifiPhy()
        self.plc_mode = plc_mode
        #: current simulation time
        self.now = 0.0
        self._tickets = 0
        self._next_user_id = 0
        #: user id -> (x, y) position
        self.positions: Dict[int, np.ndarray] = {}
        #: the controller making every association decision
        self.cc = CentralController(plan.plc_rates, policy)
        self._epoch_arrivals = 0
        self._epoch_departures = 0
        self.history: List[EpochStats] = []
        self._schedule_next_arrival()
        self._schedule_next_departure()

    # ------------------------------------------------------------------
    # population bookkeeping

    @property
    def n_users(self) -> int:
        return len(self.positions)

    @property
    def assignment(self) -> Dict[int, int]:
        """User id -> extender index, as the controller has it (a copy)."""
        return self.cc.associations

    def seed_users(self, n_users: int) -> None:
        """Place an initial population (counted as epoch-0 arrivals)."""
        for _ in range(n_users):
            self._arrive(count=False)

    def _scenario(self) -> Scenario:
        ids = sorted(self.positions)
        if ids:
            user_xy = np.vstack([self.positions[uid] for uid in ids])
        else:
            user_xy = np.empty((0, 2))
        scenario = build_scenario(self.plan.with_users(user_xy),
                                  phy=self.phy)
        return Scenario(wifi_rates=scenario.wifi_rates,
                        plc_rates=scenario.plc_rates,
                        user_ids=np.asarray(ids))

    def _assignment_vector(self, scenario: Scenario) -> np.ndarray:
        assignment = self.assignment
        return np.array([assignment.get(int(uid), UNASSIGNED)
                         for uid in scenario.user_ids])

    # ------------------------------------------------------------------
    # event processes

    def _next_event(self, rate: float) -> Tuple[float, int]:
        """(fire time, scheduling ticket) of a Poisson timer's next
        event; a timer with rate 0 never fires and draws nothing.

        The ticket breaks ties between the two timers: of two events
        at the same instant, the one scheduled first fires first.
        """
        self._tickets += 1
        if rate <= 0:
            return math.inf, self._tickets
        gap = float(self.rng.exponential(1.0 / rate))
        return self.now + gap, self._tickets

    def _schedule_next_arrival(self) -> None:
        self._next_arrival = self._next_event(self.arrival_rate)

    def _schedule_next_departure(self) -> None:
        self._next_departure = self._next_event(self.departure_rate)

    def _run_until(self, end_time: float) -> None:
        """Fire every arrival and departure due by ``end_time`` in time
        order; the clock ends at ``end_time``."""
        while True:
            arrival = self._next_arrival < self._next_departure
            due, _ = self._next_arrival if arrival else self._next_departure
            if due > end_time:
                break
            self.now = due
            if arrival:
                self._arrive()
            else:
                self._depart()
        self.now = end_time

    def _arrive(self, count: bool = True) -> None:
        uid = self._next_user_id
        self._next_user_id += 1
        xy = sample_user_positions(
            1, self.plan.width_m, self.plan.height_m, self.rng)[0]
        self.positions[uid] = xy
        scan = build_scenario(self.plan.with_users(xy[np.newaxis]),
                              phy=self.phy)
        self.cc.receive_scan_report(ScanReport(uid, scan.wifi_rates[0]))
        if count:
            self._epoch_arrivals += 1
            self._schedule_next_arrival()

    def _depart(self) -> None:
        if self.positions:
            ids = sorted(self.positions)
            uid = int(self.rng.choice(ids))
            del self.positions[uid]
            self.cc.disconnect(uid)
            self._epoch_departures += 1
        self._schedule_next_departure()

    # ------------------------------------------------------------------
    # epochs

    def run_epoch(self) -> EpochStats:
        """Advance one epoch and reconfigure at the boundary."""
        from ..net.metrics import jain_fairness

        self._run_until(self.now + self.epoch_duration)
        before = self.cc.stats.reassignments
        self.cc.reconfigure()
        reassignments = self.cc.stats.reassignments - before
        scenario = self._scenario()
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

    def run(self, n_epochs: int) -> List[EpochStats]:
        """Run ``n_epochs`` epochs and return their statistics."""
        if n_epochs < 1:
            raise ValueError("n_epochs must be positive")
        return [self.run_epoch() for _ in range(n_epochs)]

"""WOLT: the complete two-phase user-association algorithm (Alg. 1).

``WOLT = Phase I (Hungarian on u_ij = min(c_j/|A|, r_ij))
       + Phase II (Problem 2 on the leftover users)``

The solver returns the full assignment together with the per-phase
artifacts.  Its end-to-end throughput ``report`` is lazy, evaluated on
first access, so callers that read only the assignment pay for none.
A caller that re-solves a network whose PLC side moved but whose WiFi
side did not can hand in the Phase-II results it already has
(:class:`~repro.core.phase2.Phase2Memo`); Phase I still runs, and a
stored result stands in for Phase II when its anchors match.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..net.engine import ThroughputReport, evaluate
from ..plc.sharing import PLC_MODES
from .phase1 import Phase1Result, phase1_utilities, solve_phase1
from .phase2 import Phase2Memo, Phase2Result, solve_phase2
from .problem import Scenario, validate_assignment

__all__ = ["WoltResult", "solve_wolt"]


@dataclass(frozen=True)
class WoltResult:
    """Outcome of running WOLT on a scenario.

    Attributes:
        assignment: complete per-user extender indices.
        phase1: the Phase-I artifact (anchors ``U1``, utilities, ...).
        phase2: the Phase-II artifact (objective, iterations, ...).
        scenario: the solved network snapshot.
        plc_mode: PLC sharing law of :attr:`report`.
    """

    assignment: np.ndarray
    phase1: Phase1Result
    phase2: Phase2Result
    scenario: Scenario = field(compare=False, repr=False)
    plc_mode: str = field(compare=False, repr=False)

    @functools.cached_property
    def report(self) -> ThroughputReport:
        """End-to-end throughput report, evaluated on first access."""
        return evaluate(self.scenario, self.assignment, plc_mode=self.plc_mode)

    @property
    def aggregate_throughput(self) -> float:
        """Total end-to-end network throughput (Mbps)."""
        return self.report.aggregate

    @property
    def anchored_users(self) -> np.ndarray:
        """The Phase-I user set ``U1``."""
        return self.phase1.anchored_users


def solve_wolt(scenario: Scenario,
               plc_mode: str = "redistribute",
               reuse: Optional[Phase2Memo] = None) -> WoltResult:
    """Run the full WOLT association algorithm (Alg. 1 of the paper).

    Args:
        scenario: the network snapshot.
        plc_mode: PLC sharing law of the result's lazy ``report`` (the
            algorithm itself is model-free; see
            :func:`repro.net.engine.evaluate`).
        reuse: Phase-II results solved earlier.  Phase I always runs;
            when ``reuse`` holds a result for exactly its anchors on
            exactly this scenario's WiFi rates and capacities
            (:meth:`Phase2Memo.lookup`), that result is Phase II.
            Problem 2 reads nothing else, so the outcome is the one
            :func:`~repro.core.phase2.solve_phase2` would return.

    Returns:
        A :class:`WoltResult`.

    Raises:
        ValueError: if some user hears no extender with free capacity
            (constraint (7) cannot hold).  Callers that may hold such
            users solve the hearing subset and scatter it back, as
            :meth:`repro.core.controller.CentralController.reconfigure`
            and :func:`repro.fleet.sharding.split_segments` do.
    """
    if plc_mode not in PLC_MODES:
        raise ValueError(f"mode must be one of {PLC_MODES}, got {plc_mode!r}")
    utilities = phase1_utilities(scenario)
    phase1 = solve_phase1(scenario, utilities)
    phase2 = (None if reuse is None
              else reuse.lookup(scenario, phase1.assignment))
    if phase2 is None:
        phase2 = solve_phase2(scenario, phase1.assignment)
    validate_assignment(scenario, phase2.assignment, require_complete=False)
    return WoltResult(assignment=phase2.assignment, phase1=phase1,
                      phase2=phase2, scenario=scenario, plc_mode=plc_mode)

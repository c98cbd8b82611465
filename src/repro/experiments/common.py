"""Shared scaffolding for the per-figure experiment modules.

Every evaluation artifact of the paper has a module here (fig2 ... fig6)
exposing a seeded ``run_*`` function that returns a structured result,
plus formatting helpers so benchmarks, examples and the CLI print the
same paper-style rows.

``wolt faults`` and ``wolt chaos`` share one trial loop
(:func:`run_sweep`) and one episode runner (:func:`run_episode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from ..core.controller import CentralController
from ..core.problem import Scenario
from ..net.engine import evaluate
from ..net.topology import FloorPlan, build_scenario, enterprise_floor
from ..sim.checkpoint import TrialStore
from ..sim.failures import EpochInput, drive_control_plane, settle_clients
from ..testbed.calibration import sample_isolation_capacities
from ..wifi.phy import WifiPhy

__all__ = ["lab_scenario", "format_rows", "PAPER_LAB_SIDE_M",
           "TESTBED_EXTENDERS", "TESTBED_LAPTOPS", "SweepResult",
           "Episode", "run_episode", "run_sweep", "sweep_levels",
           "wolt_retention"]

#: The paper's lab is 2408 m^2; we use a square of the same area.
PAPER_LAB_SIDE_M = float(np.sqrt(2408.0))

#: Testbed scale (§V-A): three extenders, seven laptops.
TESTBED_EXTENDERS = 3
TESTBED_LAPTOPS = 7


def lab_scenario(seed: int,
                 n_extenders: int = TESTBED_EXTENDERS,
                 n_users: int = TESTBED_LAPTOPS,
                 phy: Optional[WifiPhy] = None) -> Scenario:
    """One random testbed topology (§V-D): lab-sized floor, random
    outlets with calibrated PLC capacities, random laptop placements."""
    rng = np.random.default_rng(seed)
    side = PAPER_LAB_SIDE_M
    # Keyword arguments draw in order: extenders, laptops, capacities.
    plan = FloorPlan(width_m=side, height_m=side,
                     extender_xy=rng.uniform(0.0, side, (n_extenders, 2)),
                     user_xy=rng.uniform(0.0, side, (n_users, 2)),
                     plc_rates=sample_isolation_capacities(n_extenders,
                                                           rng))
    # Laptops in a lab always hear at least one extender: build_scenario
    # nudges a dead row onto its nearest extender at the lowest MCS.
    return build_scenario(plan, phy=phy)


def format_rows(header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> str:
    """Render simple aligned text rows for experiment printouts."""
    table: List[List[str]] = [[str(h) for h in header]]
    for row in rows:
        table.append([f"{v:.2f}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w)
                               for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


@dataclass(frozen=True)
class SweepResult:
    """What a control-plane sweep measured at each level.

    Attributes:
        levels: the fault intensities swept.
        mean_mbps: policy -> per-level mean aggregate throughput.
        totals: counter -> per-level sum over trials of what the
            episodes counted (lost messages, crashes, quarantines, ...).
    """

    levels: Tuple[float, ...]
    mean_mbps: Dict[str, Tuple[float, ...]]
    totals: Dict[str, Tuple[Any, ...]]


#: (trial's floor, level, policy, own SeedSequence) -> (Mbps, counters)
Episode = Callable[[Scenario, float, str, np.random.SeedSequence],
                   Tuple[float, Mapping[str, Any]]]


def run_episode(cc: Optional[CentralController],
                storm: Sequence[EpochInput],
                plc_mode: str) -> Tuple[float, int]:
    """Drive ``cc`` through ``storm``; return the aggregate throughput
    where the clients end up, on the last epoch's live ground truth,
    and the crash count (0 or 1).

    A controller ``ValueError`` is a crash: driving stops and clients
    keep the associations held at the raise.  Clients the controller
    never placed, and all clients when ``cc`` is ``None`` (no control
    plane), camp on their strongest live extender.
    """
    crashes = 0
    known: Dict[int, int] = {}
    if cc is not None:
        try:
            drive_control_plane(cc, storm)
        except ValueError:
            crashes = 1
        known = cc.associations
    live = storm[-1][0]
    report = evaluate(live, settle_clients(live, known),
                      require_complete=False, plc_mode=plc_mode)
    return float(report.aggregate), crashes


def sweep_levels(levels: Sequence[float],
                 n_trials: int) -> Tuple[float, ...]:
    """``levels`` as floats; raises ``ValueError`` unless they are
    non-empty and in [0, 1] and ``n_trials`` is positive."""
    swept = tuple(float(x) for x in levels)
    if not swept or any(not 0.0 <= x <= 1.0 for x in swept):
        raise ValueError("levels must be non-empty and in [0, 1]")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    return swept


def wolt_retention(levels: Sequence[float],
                   wolt_mbps: Sequence[float]) -> Tuple[float, ...]:
    """Per-level WOLT throughput relative to the level-0 one (the
    first level if 0 was not swept); 1.0 = fully robust."""
    baseline = (wolt_mbps[levels.index(0.0)] if 0.0 in levels
                else wolt_mbps[0])
    return tuple(value / baseline for value in wolt_mbps)


def _run_trial(trial_seq: np.random.SeedSequence,
               levels: Tuple[float, ...], policies: Sequence[str],
               episode: Episode, n_extenders: int,
               n_users: int) -> Dict[str, Any]:
    """One floor's per-(level, policy) results as a JSON payload that
    round-trips bit-exactly (plain floats and ints do)."""
    streams = iter(trial_seq.spawn(1 + len(levels) * len(policies)))
    truth = enterprise_floor(n_extenders, n_users,
                             np.random.default_rng(next(streams)))
    aggregates = {policy: [0.0] * len(levels) for policy in policies}
    stats: Dict[str, List[Any]] = {}
    for li, level in enumerate(levels):
        for policy in policies:
            aggregates[policy][li], counters = episode(
                truth, level, policy, next(streams))
            for name, value in counters.items():
                stats.setdefault(name, [0] * len(levels))[li] += value
    return {"aggregates": aggregates, "stats": stats}


def run_sweep(levels: Sequence[float], policies: Sequence[str],
              episode: Episode, n_trials: int, n_extenders: int,
              n_users: int, seed: int,
              store: Optional[TrialStore] = None) -> SweepResult:
    """Run ``episode`` for every trial, level and policy.

    Deterministic for a fixed ``seed``: trial ``t`` owns the ``t``-th
    SeedSequence child of ``seed`` and spawns ``1 + levels x policies``
    grandchildren from it.  The first seeds the trial's
    :func:`~repro.net.topology.enterprise_floor`; the rest go to the
    episodes in level-major order, one each.

    ``store`` is an open journal: each trial's payload is appended as
    it completes, journaled trials are merged instead of rerun, and the
    store is snapshotted and closed at the end.  Results are summed in
    trial order either way (float addition is not associative), so a
    resumed sweep is bit-identical to a cold one.
    """
    sums: Dict[str, np.ndarray] = {}
    totals: Dict[str, np.ndarray] = {}
    try:
        swept = sweep_levels(levels, n_trials)
        trial_seqs = np.random.SeedSequence(seed).spawn(n_trials)
        for index, trial_seq in enumerate(trial_seqs):
            if store is not None and index in store:
                payload = store.records[index]
            else:
                payload = _run_trial(trial_seq, swept, policies,
                                     episode, n_extenders, n_users)
                if store is not None:
                    store.append(index, payload)
            sums = {policy: sums.get(policy, 0) + np.asarray(row)
                    for policy, row in payload["aggregates"].items()}
            totals = {name: totals.get(name, 0) + np.asarray(row)
                      for name, row in payload["stats"].items()}
        if store is not None:
            store.snapshot()
    finally:
        if store is not None:
            store.close()
    return SweepResult(
        levels=swept,
        mean_mbps={policy: tuple(row / n_trials)
                   for policy, row in sums.items()},
        totals={name: tuple(row) for name, row in totals.items()})

"""Control-plane fault-injection sweep (robustness extension study).

The paper's §V-A control plane is assumed lossless; this study asks
where WOLT's reconfiguration advantage survives a lossy one.  For each
fault level ``p``, every policy admits and (for WOLT) reconfigures its
clients through a seeded :class:`repro.sim.faults.FaultyTransport`
whose report-drop, directive-drop and handoff-failure probabilities are
all ``p`` and whose stale-estimate noise is ``p / 2``; the resulting
ground-truth association is scored on the clean scenario.

Degradation is graceful by construction: a client the CC never places
stays on its strongest-RSSI extender, so as ``p -> 1`` every policy
collapses onto the RSSI baseline — WOLT approaches it from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..net.engine import evaluate
from ..net.topology import enterprise_floor
from ..sim.checkpoint import TrialStore, fingerprint
from ..sim.faults import FaultModel, run_faulty_control_plane
from .common import format_rows

__all__ = ["FaultSweepResult", "run_fault_sweep", "main",
           "DEFAULT_FAULT_LEVELS"]

#: The documented default fault levels swept by ``wolt faults``.
DEFAULT_FAULT_LEVELS = (0.0, 0.1, 0.2, 0.4)

#: Control-plane counters averaged over trials (WOLT's controller).
_STAT_NAMES = ("dropped_reports", "dropped_directives", "retries",
               "failed_handoffs")

#: The policies compared by the sweep.
_POLICIES = ("wolt", "greedy", "rssi")


@dataclass(frozen=True)
class FaultSweepResult:
    """Mean aggregate throughput per policy per fault level.

    Attributes:
        fault_levels: the message-loss probabilities swept.
        mean_mbps: policy -> per-level mean aggregates (clean scoring).
        wolt_retention: per-level WOLT throughput relative to the
            fault-free level (1.0 = fully robust).
        wolt_control_stats: counter name -> per-level mean of WOLT's
            :class:`~repro.core.controller.ControllerStats` counters
            (``dropped_reports``, ``dropped_directives``, ``retries``,
            ``failed_handoffs``).
    """

    fault_levels: Tuple[float, ...]
    mean_mbps: Dict[str, Tuple[float, ...]]
    wolt_retention: Tuple[float, ...]
    wolt_control_stats: Dict[str, Tuple[float, ...]]


def _run_fault_trial(trial_seq: np.random.SeedSequence,
                     levels: Tuple[float, ...], n_extenders: int,
                     n_users: int, max_retries: int,
                     plc_mode: str) -> Dict[str, Any]:
    """One floor's per-(level, policy) aggregates, as a JSON payload.

    The payload is what gets journaled to the sweep checkpoint, so it
    must round-trip through JSON bit-exactly (plain floats do).
    """
    streams = trial_seq.spawn(1 + len(levels) * len(_POLICIES))
    rng = np.random.default_rng(streams[0])
    truth = enterprise_floor(n_extenders, n_users, rng)
    aggregates = {policy: [0.0] * len(levels) for policy in _POLICIES}
    stats = {name: [0.0] * len(levels) for name in _STAT_NAMES}
    stream = 1
    for li, level in enumerate(levels):
        model = FaultModel(report_drop_prob=level,
                           directive_drop_prob=level,
                           handoff_failure_prob=level,
                           rate_noise_fraction=level / 2,
                           max_retries=max_retries)
        for policy in _POLICIES:
            outcome = run_faulty_control_plane(
                truth, policy, model,
                np.random.default_rng(streams[stream]))
            stream += 1
            report = evaluate(truth, outcome.assignment,
                              require_complete=False,
                              plc_mode=plc_mode)
            aggregates[policy][li] = float(report.aggregate)
            if policy == "wolt":
                for name in _STAT_NAMES:
                    stats[name][li] = float(getattr(outcome.stats,
                                                    name))
    return {"aggregates": aggregates, "stats": stats}


def run_fault_sweep(fault_levels: Sequence[float] = DEFAULT_FAULT_LEVELS,
                    n_trials: int = 10,
                    n_extenders: int = 15,
                    n_users: int = 36,
                    seed: int = 0,
                    max_retries: int = 2,
                    plc_mode: str = "fixed",
                    checkpoint: Optional[Union[str, Path]] = None,
                    resume: bool = False) -> FaultSweepResult:
    """Sweep control-plane fault rates at the paper's simulation scale.

    Deterministic for a fixed ``seed``: every trial owns a SeedSequence
    child, and every (level, policy) emulation within a trial owns its
    own grandchild for the transport's fault draws.

    Args:
        fault_levels: message-loss probabilities to sweep (each level
            sets report-drop, directive-drop and handoff-failure to the
            level and estimate noise to half of it).
        n_trials: independent floors per level.
        n_extenders / n_users: floor scale (paper: 15 / 36).
        seed: master random seed.
        max_retries: directive retransmission budget.
        plc_mode: PLC sharing law used for scoring.
        checkpoint: journal each floor's per-(level, policy) aggregates
            to this crash-consistent JSONL file as it completes.
        resume: merge already-journaled floors instead of recomputing
            them; the resumed sweep is bit-identical to a cold run
            (per-trial contributions are re-summed in trial order).  A
            checkpoint from different sweep parameters is rejected with
            :class:`~repro.sim.checkpoint.FingerprintMismatch`.
    """
    levels = tuple(float(x) for x in fault_levels)
    if any(not 0.0 <= x <= 1.0 for x in levels):
        raise ValueError("fault levels must be in [0, 1]")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    store: Optional[TrialStore] = None
    if checkpoint is not None:
        params = {"kind": "fault_sweep", "fault_levels": list(levels),
                  "n_trials": int(n_trials),
                  "n_extenders": int(n_extenders),
                  "n_users": int(n_users), "seed": int(seed),
                  "max_retries": int(max_retries),
                  "plc_mode": plc_mode}
        store = TrialStore(checkpoint, fingerprint(params),
                           params=params, resume=resume)
    trial_seqs = np.random.SeedSequence(seed).spawn(n_trials)
    per_trial: Dict[int, Dict[str, Any]] = {}
    try:
        for index, trial_seq in enumerate(trial_seqs):
            if store is not None and index in store:
                per_trial[index] = store.records[index]
                continue
            payload = _run_fault_trial(trial_seq, levels, n_extenders,
                                       n_users, max_retries, plc_mode)
            per_trial[index] = payload
            if store is not None:
                store.append(index, payload)
        if store is not None:
            store.snapshot()
    finally:
        if store is not None:
            store.close()
    # Sum in trial order — float addition is not associative, so the
    # resume path must replay the exact accumulation sequence.
    sums = {policy: np.zeros(len(levels)) for policy in _POLICIES}
    stat_sums = {name: np.zeros(len(levels)) for name in _STAT_NAMES}
    for index in range(n_trials):
        payload = per_trial[index]
        for policy in _POLICIES:
            sums[policy] += np.asarray(payload["aggregates"][policy])
        for name in _STAT_NAMES:
            stat_sums[name] += np.asarray(payload["stats"][name])
    mean = {policy: tuple(values / n_trials)
            for policy, values in sums.items()}
    baseline = mean["wolt"][levels.index(0.0)] if 0.0 in levels \
        else mean["wolt"][0]
    retention = tuple(value / baseline for value in mean["wolt"])
    stats = {name: tuple(values / n_trials)
             for name, values in stat_sums.items()}
    return FaultSweepResult(fault_levels=levels, mean_mbps=mean,
                            wolt_retention=retention,
                            wolt_control_stats=stats)


def main(seed: int = 0, n_trials: int = 10,
         checkpoint: Optional[Union[str, Path]] = None,
         resume: bool = False) -> str:
    """Format the control-plane fault sweep."""
    result = run_fault_sweep(seed=seed, n_trials=n_trials,
                             checkpoint=checkpoint, resume=resume)
    rows = []
    for li, level in enumerate(result.fault_levels):
        rows.append((f"{level:.0%}",
                     result.mean_mbps["wolt"][li],
                     result.mean_mbps["greedy"][li],
                     result.mean_mbps["rssi"][li],
                     f"{result.wolt_retention[li]:.0%}"))
    out = ["Control-plane fault injection (mean aggregate Mbps, "
           "lossy control plane / clean scoring)"]
    out.append(format_rows(
        ["faults", "WOLT", "Greedy", "RSSI", "WOLT retention"], rows))
    stat_rows = []
    for li, level in enumerate(result.fault_levels):
        stat_rows.append(
            (f"{level:.0%}",) + tuple(
                result.wolt_control_stats[name][li]
                for name in _STAT_NAMES))
    out.append("\nWOLT control-plane counters (mean per trial)")
    out.append(format_rows(
        ["faults", "lost reports", "lost directives", "retries",
         "failed handoffs"], stat_rows))
    return "\n".join(out)

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

from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.controller import CentralController
from ..core.problem import Scenario
from ..sim.checkpoint import TrialStore, fingerprint
from ..sim.faults import FaultModel, FaultyTransport
from .common import (SweepResult, format_rows, run_episode, run_sweep,
                     sweep_levels, wolt_retention)

__all__ = ["run_fault_sweep", "main", "DEFAULT_FAULT_LEVELS"]

#: The documented default fault levels swept by ``wolt faults``.
DEFAULT_FAULT_LEVELS = (0.0, 0.1, 0.2, 0.4)

#: Control-plane counters of WOLT's controller, journaled per trial.
_STAT_NAMES = ("dropped_reports", "dropped_directives", "retries",
               "failed_handoffs")

#: The policies compared by the sweep.
_POLICIES = ("wolt", "greedy", "rssi")


def _episode(truth: Scenario, level: float, policy: str,
             seq: np.random.SeedSequence, max_retries: int,
             plc_mode: str) -> Tuple[float, Dict[str, Any]]:
    """Admit and reconfigure ``truth``'s clients over one lossy epoch
    whose transport draws from ``seq``; WOLT also reports its counters.
    """
    model = FaultModel(report_drop_prob=level,
                       directive_drop_prob=level,
                       handoff_failure_prob=level,
                       rate_noise_fraction=level / 2, max_retries=max_retries)
    cc = CentralController(
        truth.plc_rates, policy=policy,
        transport=FaultyTransport(model, np.random.default_rng(seq)))
    aggregate, _ = run_episode(cc, [(truth, truth.wifi_rates, None)],
                               plc_mode)
    if policy != "wolt":
        return aggregate, {}
    return aggregate, {name: float(getattr(cc.stats, name))
                       for name in _STAT_NAMES}


def run_fault_sweep(fault_levels: Sequence[float] = DEFAULT_FAULT_LEVELS,
                    n_trials: int = 10,
                    n_extenders: int = 15,
                    n_users: int = 36,
                    seed: int = 0,
                    max_retries: int = 2,
                    plc_mode: str = "fixed",
                    checkpoint: Optional[Union[str, Path]] = None,
                    resume: bool = False) -> SweepResult:
    """Sweep control-plane fault rates at the paper's simulation scale.

    Seeded as :func:`~repro.experiments.common.run_sweep` describes.
    The result's ``totals`` hold WOLT's ``dropped_reports``,
    ``dropped_directives``, ``retries`` and ``failed_handoffs``
    counters summed over trials.

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
            and WOLT counters to this crash-consistent JSONL file as
            it completes.
        resume: merge already-journaled floors instead of recomputing
            them; the resumed sweep is bit-identical to a cold run.  A
            checkpoint from different sweep parameters is rejected with
            :class:`~repro.sim.checkpoint.FingerprintMismatch`.
    """
    levels = sweep_levels(fault_levels, n_trials)  # before any write
    store: Optional[TrialStore] = None
    if checkpoint is not None:
        params = {"kind": "fault_sweep", "fault_levels": list(levels),
                  "n_trials": int(n_trials), "n_users": int(n_users),
                  "n_extenders": int(n_extenders), "seed": int(seed),
                  "max_retries": int(max_retries), "plc_mode": plc_mode}
        store = TrialStore(checkpoint, fingerprint(params),
                           params=params, resume=resume)
    episode = partial(_episode, max_retries=max_retries,
                      plc_mode=plc_mode)
    return run_sweep(levels, _POLICIES, episode, n_trials,
                     n_extenders, n_users, seed, store=store)


def main(seed: int = 0, n_trials: int = 10,
         checkpoint: Optional[Union[str, Path]] = None,
         resume: bool = False) -> str:
    """Format the control-plane fault sweep."""
    result = run_fault_sweep(seed=seed, n_trials=n_trials,
                             checkpoint=checkpoint, resume=resume)
    levels = [f"{level:.0%}" for level in result.levels]
    mean = result.mean_mbps
    retention = [f"{value:.0%}"
                 for value in wolt_retention(result.levels, mean["wolt"])]
    per_trial = ([total / n_trials for total in result.totals[name]]
                 for name in _STAT_NAMES)
    return "\n".join([
        "Control-plane fault injection (mean aggregate Mbps, "
        "lossy control plane / clean scoring)",
        format_rows(["faults", "WOLT", "Greedy", "RSSI", "WOLT retention"],
                    zip(levels, mean["wolt"], mean["greedy"], mean["rssi"],
                        retention)),
        "\nWOLT control-plane counters (mean per trial)",
        format_rows(["faults", "lost reports", "lost directives",
                     "retries", "failed handoffs"],
                    zip(levels, *per_trial))])

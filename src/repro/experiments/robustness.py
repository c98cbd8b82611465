"""Robustness of WOLT to channel-estimation noise (extension study).

The paper's implementation estimates WiFi rates from NIC MCS readouts
and PLC capacities from offline iperf runs (§V-A); both are noisy.
This study asks the question any deployment would: *how much of WOLT's
win survives when the controller decides on noisy estimates but the
network delivers ground-truth throughputs?*

For each noise level σ, every policy decides on a
log-normally-perturbed copy of the scenario
(:func:`repro.net.estimate.noisy_scenario`) and is scored on the clean
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.baselines import greedy_assignment, rssi_assignment
from ..core.wolt import solve_wolt
from ..net.engine import evaluate
from ..net.estimate import noisy_scenario
from ..net.topology import enterprise_floor
from .common import format_rows, wolt_retention

__all__ = ["RobustnessResult", "run_robustness", "main"]


@dataclass(frozen=True)
class RobustnessResult:
    """Mean aggregate throughput per policy per noise level.

    Attributes:
        noise_levels: the relative estimation error levels swept.
        mean_mbps: policy -> per-level mean aggregates (clean scoring).
        wolt_retention: per-level WOLT throughput relative to noiseless
            WOLT (1.0 = fully robust).
    """

    noise_levels: Tuple[float, ...]
    mean_mbps: Dict[str, Tuple[float, ...]]
    wolt_retention: Tuple[float, ...]


def run_robustness(noise_levels: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
                   n_trials: int = 10,
                   n_extenders: int = 15,
                   n_users: int = 36,
                   seed: int = 0,
                   plc_mode: str = "fixed") -> RobustnessResult:
    """Sweep estimation-noise levels at the paper's simulation scale.

    Raises:
        ValueError: ``noise_levels`` is empty or has a negative level
            (levels above 1 are valid), or ``n_trials`` is not
            positive.
    """
    levels = tuple(float(x) for x in noise_levels)
    if not levels or any(x < 0 for x in levels):
        raise ValueError("noise levels must be non-empty and "
                         "non-negative")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    sums = {policy: np.zeros(len(levels))
            for policy in ("wolt", "greedy", "rssi")}
    trial_seqs = np.random.SeedSequence(seed).spawn(n_trials)
    for trial in range(n_trials):
        rng = np.random.default_rng(trial_seqs[trial])
        truth = enterprise_floor(n_extenders, n_users, rng)
        order = rng.permutation(n_users)
        for li, level in enumerate(levels):
            estimated = noisy_scenario(truth, rng,
                                       wifi_noise_fraction=level,
                                       plc_noise_fraction=level)
            decided = {
                "wolt": solve_wolt(estimated).assignment,
                "greedy": greedy_assignment(estimated,
                                            arrival_order=order),
                "rssi": rssi_assignment(estimated),
            }
            for policy, assignment in decided.items():
                sums[policy][li] += evaluate(
                    truth, assignment, plc_mode=plc_mode,
                    require_complete=True).aggregate
    mean = {policy: tuple(values / n_trials)
            for policy, values in sums.items()}
    return RobustnessResult(noise_levels=levels, mean_mbps=mean,
                            wolt_retention=wolt_retention(levels,
                                                          mean["wolt"]))


def main(seed: int = 0, n_trials: int = 10) -> str:
    """Format the robustness sweep."""
    result = run_robustness(seed=seed, n_trials=n_trials)
    rows = []
    for li, level in enumerate(result.noise_levels):
        rows.append((f"{level:.0%}",
                     result.mean_mbps["wolt"][li],
                     result.mean_mbps["greedy"][li],
                     result.mean_mbps["rssi"][li],
                     f"{result.wolt_retention[li]:.0%}"))
    out = ["Estimation-noise robustness (mean aggregate Mbps, "
           "decide on noisy estimates / score on truth)"]
    out.append(format_rows(
        ["noise", "WOLT", "Greedy", "RSSI", "WOLT retention"], rows))
    return "\n".join(out)

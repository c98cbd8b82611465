"""Figure 6 — large-scale simulation results (15 extenders, 100 m floor).

* Fig. 6a: CDF of aggregate throughput across 100 random trials with 36
  users; WOLT averages ~2.5x Greedy under the paper's simulator model.
* Fig. 6b: aggregate throughput per epoch as the population grows
  (Poisson arrivals λ=3, departures μ=1; 36 → ~66 → ~102 users).
* Fig. 6c: number of users re-assigned by WOLT per epoch (paper: at most
  ~2x the epoch's arrivals).
* §V-E fairness: Jain's index ~0.66 (WOLT), 0.52 (Greedy), 0.65 (RSSI).

Scoring follows the paper's simulator (``plc_mode="fixed"``, the
Problem-1 model); see EXPERIMENTS.md for the model-gap discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..sim.dynamics import EpochStats
from ..sim.runner import run_online_comparison, run_trials
from .common import format_rows

__all__ = ["Fig6aResult", "run_fig6a", "Fig6bcResult", "run_fig6bc",
           "FairnessResult", "run_fairness", "main",
           "PAPER_FIG6A_RATIO", "PAPER_JAIN"]

#: The paper's headline simulation claim.
PAPER_FIG6A_RATIO = 2.5

#: §V-E Jain fairness indices.
PAPER_JAIN = {"wolt": 0.66, "greedy": 0.52, "rssi": 0.65}

#: Paper scale: 15 extenders, 36 users, 100 trials.
SIM_EXTENDERS = 15
SIM_USERS = 36


@dataclass(frozen=True)
class Fig6aResult:
    """Fig. 6a reproduction.

    Attributes:
        wolt_mbps / greedy_mbps: per-trial aggregates (the CDF series).
        mean_ratio: mean per-trial WOLT/Greedy ratio (paper: ~2.5).
        wolt_wins_all_trials: the paper's "outperforms ... in all trials".
    """

    wolt_mbps: np.ndarray
    greedy_mbps: np.ndarray
    mean_ratio: float
    wolt_wins_all_trials: bool

    def cdf(self, policy: str) -> Tuple[np.ndarray, np.ndarray]:
        """The empirical CDF points (x = Mbps, y = P[X <= x])."""
        data = self.wolt_mbps if policy == "wolt" else self.greedy_mbps
        xs = np.sort(data)
        ys = np.arange(1, xs.size + 1) / xs.size
        return xs, ys


def run_fig6a(n_trials: int = 100, seed: int = 0,
              n_extenders: int = SIM_EXTENDERS,
              n_users: int = SIM_USERS,
              plc_mode: str = "fixed",
              workers: int = None) -> Fig6aResult:
    """Reproduce the Fig. 6a Monte-Carlo comparison.

    ``workers`` fans the trials out over that many processes; results are
    bit-identical to the serial run (see
    :func:`repro.sim.runner.run_trials`).
    """
    trials = run_trials(n_trials, n_extenders, n_users,
                        policies=("wolt", "greedy"), seed=seed,
                        plc_mode=plc_mode, workers=workers)
    wolt = np.array([t.aggregate("wolt") for t in trials])
    greedy = np.array([t.aggregate("greedy") for t in trials])
    return Fig6aResult(wolt_mbps=wolt, greedy_mbps=greedy,
                       mean_ratio=float(np.mean(wolt / greedy)),
                       wolt_wins_all_trials=bool(np.all(wolt > greedy)))


@dataclass(frozen=True)
class Fig6bcResult:
    """Fig. 6b/6c reproduction.

    Attributes:
        histories: per-policy epoch statistics.
        reassignment_per_arrival: WOLT's mean re-assignments per arrival
            (paper: "up to twice the number of arriving users").
    """

    histories: Dict[str, List[EpochStats]]
    reassignment_per_arrival: float

    def series(self, policy: str, attr: str) -> List[float]:
        return [getattr(e, attr) for e in self.histories[policy]]


def run_fig6bc(n_epochs: int = 3, seed: int = 0,
               n_extenders: int = SIM_EXTENDERS,
               initial_users: int = 3,
               plc_mode: str = "fixed") -> Fig6bcResult:
    """Reproduce the Fig. 6b/6c online dynamics.

    Starting from a handful of users, the Poisson process grows the
    population by ~33 users per epoch, hitting the paper's 36 / 66 /
    102 trajectory across the three epochs.
    """
    histories = run_online_comparison(
        n_epochs, n_extenders, initial_users,
        policies=("wolt", "greedy"), seed=seed, plc_mode=plc_mode)
    wolt_hist = histories["wolt"]
    arrivals = sum(e.arrivals for e in wolt_hist)
    reassigned = sum(e.reassignments for e in wolt_hist)
    ratio = reassigned / arrivals if arrivals else 0.0
    return Fig6bcResult(histories=histories,
                        reassignment_per_arrival=float(ratio))


@dataclass(frozen=True)
class FairnessResult:
    """§V-E Jain fairness reproduction (mean over trials)."""

    jain: Dict[str, float]


def run_fairness(n_trials: int = 30, seed: int = 0,
                 plc_mode: str = "fixed",
                 workers: int = None) -> FairnessResult:
    """Reproduce the §V-E Jain-index comparison."""
    trials = run_trials(n_trials, SIM_EXTENDERS, SIM_USERS,
                        policies=("wolt", "greedy", "rssi"), seed=seed,
                        plc_mode=plc_mode, workers=workers)
    jain = {}
    for policy in ("wolt", "greedy", "rssi"):
        jain[policy] = float(np.mean(
            [t.outcomes[policy].jain_fairness for t in trials]))
    return FairnessResult(jain=jain)


def main(seed: int = 0, n_trials: int = 100, n_epochs: int = 3,
         workers: int = None) -> str:
    """Run the Fig. 6 suite and format the paper-style summary."""
    a = run_fig6a(n_trials=n_trials, seed=seed, workers=workers)
    out = ["Fig 6a - aggregate throughput over "
           f"{a.wolt_mbps.size} trials (Mbps)"]
    out.append(format_rows(
        ["policy", "mean", "p10", "median", "p90"],
        [("wolt", float(a.wolt_mbps.mean()),
          float(np.percentile(a.wolt_mbps, 10)),
          float(np.median(a.wolt_mbps)),
          float(np.percentile(a.wolt_mbps, 90))),
         ("greedy", float(a.greedy_mbps.mean()),
          float(np.percentile(a.greedy_mbps, 10)),
          float(np.median(a.greedy_mbps)),
          float(np.percentile(a.greedy_mbps, 90)))]))
    out.append(f"mean WOLT/Greedy ratio: {a.mean_ratio:.2f} "
               f"(paper: ~{PAPER_FIG6A_RATIO}); "
               f"WOLT wins all trials: {a.wolt_wins_all_trials}")
    bc = run_fig6bc(n_epochs=n_epochs, seed=seed)
    out.append("\nFig 6b - aggregate throughput per epoch (Mbps)")
    rows = []
    for policy in ("wolt", "greedy"):
        for e in bc.histories[policy]:
            rows.append((policy, e.epoch, e.n_users,
                         e.aggregate_throughput))
    out.append(format_rows(["policy", "epoch", "users", "Mbps"], rows))
    out.append("\nFig 6c - WOLT re-assignments per epoch")
    out.append(format_rows(
        ["epoch", "arrivals", "reassignments"],
        [(e.epoch, e.arrivals, e.reassignments)
         for e in bc.histories["wolt"]]))
    out.append(f"re-assignments per arrival: "
               f"{bc.reassignment_per_arrival:.2f} (paper: <= ~2)")
    f = run_fairness(seed=seed, workers=workers)
    out.append("\nJain fairness (paper: WOLT 0.66, Greedy 0.52, RSSI 0.65)")
    out.append(format_rows(
        ["policy", "Jain index", "paper"],
        [(p, f.jain[p], PAPER_JAIN[p]) for p in ("wolt", "greedy",
                                                 "rssi")]))
    return "\n".join(out)

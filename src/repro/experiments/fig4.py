"""Figure 4 — testbed-scale evaluation (3 extenders, 7 laptops).

* Fig. 4a: average aggregate throughput of WOLT vs Greedy vs RSSI over
  25 random topologies (paper: +26% over Greedy, +70% over RSSI).
* Fig. 4b: per-user win/loss fractions (paper: 35% of users improve
  under WOLT vs Greedy; 55% vs RSSI).
* Fig. 4c: fidelity of the analytic simulator against the (emulated)
  hardware testbed on identical topologies.

Scoring note (see EXPERIMENTS.md): policies decide against the measured
network; aggregates are scored under the paper's Problem-1 sharing model
(``plc_mode="fixed"``), which is what the paper's simulator reports.
The result dataclass also carries the physically-scored aggregates
(``plc_mode="redistribute"``) so the model gap is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.baselines import rssi_assignment
from ..net.engine import evaluate
from ..net.metrics import compare_per_user
from ..sim.runner import COMPARED_POLICIES, run_policy
from ..testbed.devices import EmulatedTestbed, Laptop, PlcExtender
from .common import format_rows, lab_scenario

__all__ = ["Fig4aResult", "run_fig4a", "Fig4bResult", "run_fig4b",
           "Fig4cResult", "run_fig4c", "main", "PAPER_FIG4A_IMPROVEMENT"]

#: The paper's Fig. 4a average improvements of WOLT.
PAPER_FIG4A_IMPROVEMENT = {"greedy": 0.26, "rssi": 0.70}


def _run_topology(seed: int, plc_mode: str) -> Dict[str, float]:
    scenario = lab_scenario(seed)
    rng = np.random.default_rng(seed)
    return {policy: run_policy(scenario, policy, rng,
                               plc_mode).aggregate_throughput
            for policy in COMPARED_POLICIES}


@dataclass(frozen=True)
class Fig4aResult:
    """Fig. 4a reproduction.

    Attributes:
        mean_mbps: average aggregate per policy under the paper's model.
        improvement_over: WOLT's mean relative improvement per baseline.
        physical_mean_mbps: the same averages under the testbed-measured
            (redistributing) law — the reproduction's model-gap ablation.
        per_topology: raw aggregates per topology under the paper model.
    """

    mean_mbps: Dict[str, float]
    improvement_over: Dict[str, float]
    physical_mean_mbps: Dict[str, float]
    per_topology: List[Dict[str, float]]


def run_fig4a(n_topologies: int = 25, seed: int = 0) -> Fig4aResult:
    """Reproduce Fig. 4a over ``n_topologies`` random lab topologies."""
    paper_model = [_run_topology(seed + t, "fixed")
                   for t in range(n_topologies)]
    physical = [_run_topology(seed + t, "redistribute")
                for t in range(n_topologies)]
    mean = {p: float(np.mean([r[p] for r in paper_model]))
            for p in COMPARED_POLICIES}
    phys_mean = {p: float(np.mean([r[p] for r in physical]))
                 for p in COMPARED_POLICIES}
    improvement = {
        p: float(np.mean([r["wolt"] / r[p] - 1.0 for r in paper_model]))
        for p in ("greedy", "rssi")}
    return Fig4aResult(mean_mbps=mean, improvement_over=improvement,
                       physical_mean_mbps=phys_mean,
                       per_topology=paper_model)


@dataclass(frozen=True)
class Fig4bResult:
    """Fig. 4b reproduction: per-user effects of WOLT.

    Attributes:
        improved_vs_greedy / degraded_vs_greedy: user fractions.
        improved_vs_rssi / degraded_vs_rssi: user fractions.
    """

    improved_vs_greedy: float
    degraded_vs_greedy: float
    improved_vs_rssi: float
    degraded_vs_rssi: float


def run_fig4b(n_topologies: int = 25, seed: int = 0,
              plc_mode: str = "fixed") -> Fig4bResult:
    """Reproduce Fig. 4b: pooled per-user win/loss fractions."""
    pooled: Dict[str, List[float]] = {p: [] for p in COMPARED_POLICIES}
    order_seqs = np.random.SeedSequence(seed).spawn(n_topologies)
    for t in range(n_topologies):
        scenario = lab_scenario(seed + t)
        rng = np.random.default_rng(order_seqs[t])
        for policy in COMPARED_POLICIES:
            pooled[policy].extend(run_policy(
                scenario, policy, rng, plc_mode).user_throughputs)
    wolt_all = pooled["wolt"]
    vs_greedy = compare_per_user(pooled["greedy"], wolt_all)
    vs_rssi = compare_per_user(pooled["rssi"], wolt_all)
    return Fig4bResult(improved_vs_greedy=vs_greedy.improved_fraction,
                       degraded_vs_greedy=vs_greedy.degraded_fraction,
                       improved_vs_rssi=vs_rssi.improved_fraction,
                       degraded_vs_rssi=vs_rssi.degraded_fraction)


@dataclass(frozen=True)
class Fig4cResult:
    """Fig. 4c reproduction: simulator-vs-testbed fidelity.

    Attributes:
        testbed_user_mbps: per-laptop iperf throughputs on the emulated
            hardware bench (with measurement noise).
        simulated_user_mbps: the analytic simulator's prediction on the
            identical topology.
        max_relative_error: worst per-user |sim - testbed| / testbed.
    """

    testbed_user_mbps: Tuple[float, ...]
    simulated_user_mbps: Tuple[float, ...]
    max_relative_error: float


def run_fig4c(seed: int = 7) -> Fig4cResult:
    """Reproduce Fig. 4c on one random topology (3 ext / 7 laptops)."""
    rng = np.random.default_rng(seed)
    scenario = lab_scenario(seed)
    assignment = rssi_assignment(scenario)
    # The analytic simulator's prediction.
    sim = evaluate(scenario, assignment, require_complete=True)
    # The same topology on the emulated hardware bench.
    bench = EmulatedTestbed(rng=rng)
    for j in range(scenario.n_extenders):
        bench.plug_extender(PlcExtender(
            f"ext-{j}", (0.0, 0.0), float(scenario.plc_rates[j])))
    for i in range(scenario.n_users):
        bench.place_laptop(Laptop(f"laptop-{i}", (0.0, 0.0)))
    # Bypass geometry: stub the bench's rate lookup with the scenario's
    # rate matrix so both systems see identical channel qualities.
    bench.wifi_rate = lambda lp, ext: float(
        scenario.wifi_rates[int(lp.split("-")[1]), int(ext.split("-")[1])])
    for i in range(scenario.n_users):
        bench.laptops[f"laptop-{i}"].associated_to = f"ext-{assignment[i]}"
    samples = {s.laptop: s.throughput_mbps for s in bench.run_iperf()}
    testbed = tuple(samples[f"laptop-{i}"]
                    for i in range(scenario.n_users))
    simulated = tuple(float(x) for x in sim.user_throughputs)
    errors = [abs(s - t) / t for s, t in zip(simulated, testbed) if t > 0]
    return Fig4cResult(testbed_user_mbps=testbed,
                       simulated_user_mbps=simulated,
                       max_relative_error=float(max(errors)))


def main(seed: int = 0) -> str:
    """Run Fig. 4a/4b/4c and format the paper-style summary."""
    a = run_fig4a(seed=seed)
    out = ["Fig 4a - testbed comparison (mean aggregate Mbps, "
           "paper model scoring)"]
    out.append(format_rows(
        ["policy", "mean Mbps", "WOLT improvement", "paper improvement"],
        [("wolt", a.mean_mbps["wolt"], "-", "-"),
         ("greedy", a.mean_mbps["greedy"],
          f"+{a.improvement_over['greedy']:.0%}",
          f"+{PAPER_FIG4A_IMPROVEMENT['greedy']:.0%}"),
         ("rssi", a.mean_mbps["rssi"],
          f"+{a.improvement_over['rssi']:.0%}",
          f"+{PAPER_FIG4A_IMPROVEMENT['rssi']:.0%}")]))
    b = run_fig4b(seed=seed)
    out.append("\nFig 4b - per-user effects of WOLT "
               "(paper: 35% better vs Greedy, 55% vs RSSI)")
    out.append(format_rows(
        ["baseline", "improved", "degraded"],
        [("greedy", f"{b.improved_vs_greedy:.0%}",
          f"{b.degraded_vs_greedy:.0%}"),
         ("rssi", f"{b.improved_vs_rssi:.0%}",
          f"{b.degraded_vs_rssi:.0%}")]))
    c = run_fig4c(seed=seed + 7)
    out.append("\nFig 4c - simulator vs testbed fidelity "
               f"(max per-user error {c.max_relative_error:.1%})")
    out.append(format_rows(
        ["laptop", "testbed Mbps", "sim Mbps"],
        [(i, t, s) for i, (t, s) in
         enumerate(zip(c.testbed_user_mbps, c.simulated_user_mbps))]))
    return "\n".join(out)

"""Extension studies — failure recovery and hotspot crowds.

Neither appears in the paper, but both probe the same mechanism the
paper's evaluation rewards: keeping every usable PLC time slice busy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.topology import build_scenario
from repro.net.engine import evaluate
from repro.core.baselines import rssi_assignment
from repro.core.wolt import solve_wolt
from repro.sim.failures import FailureSimulation
from repro.net.topology import sample_floor_plan
from repro.sim.workload import hotspot_positions

from .conftest import emit


def _failure_means(seed: int = 0, n_epochs: int = 10):
    plan_seq, sim_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(plan_seq)
    plan = sample_floor_plan(8, rng)
    users = hotspot_positions(30, plan.width_m, plan.height_m, rng)
    scenario = build_scenario(plan.with_users(users))
    means = {}
    for policy in ("wolt", "rssi"):
        # Same child sequence per policy: both simulations see the
        # identical failure stream, keeping the comparison paired.
        sim = FailureSimulation(scenario, policy,
                                rng=np.random.default_rng(sim_seq),
                                fail_prob=0.25, recover_prob=0.5,
                                plc_mode="fixed")
        history = sim.run(n_epochs)
        means[policy] = float(np.mean(
            [e.aggregate_throughput for e in history]))
    return means


@pytest.mark.benchmark(group="extensions")
def test_failure_recovery_wolt_beats_fallback(benchmark):
    def run_seeds():
        results = [_failure_means(seed=s) for s in (0, 5, 9)]
        return {policy: float(np.mean([r[policy] for r in results]))
                for policy in ("wolt", "rssi")}

    means = benchmark.pedantic(run_seeds, rounds=1, iterations=1)
    # A global re-solve after failures recovers more than moving only
    # the orphans to their strongest survivor (averaged over floors).
    assert means["wolt"] > 1.2 * means["rssi"]
    emit(f"Failure recovery: WOLT {means['wolt']:.1f} Mbps vs "
         f"RSSI fallback {means['rssi']:.1f} Mbps under 25%/epoch "
         "extender failures (3 floors)")


def _hotspot_ratios(seed: int = 3):
    plan_seq, user_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(plan_seq)
    plan = sample_floor_plan(10, rng)
    ratios = {}
    for fraction in (0.0, 0.9):
        user_xy = hotspot_positions(40, plan.width_m, plan.height_m,
                                    np.random.default_rng(user_seq),
                                    n_hotspots=2,
                                    hotspot_fraction=fraction)
        scenario = build_scenario(plan.with_users(user_xy))
        wolt = solve_wolt(scenario, plc_mode="fixed").aggregate_throughput
        rssi = evaluate(scenario, rssi_assignment(scenario),
                        plc_mode="fixed").aggregate
        ratios[fraction] = wolt / rssi
    return ratios


@pytest.mark.benchmark(group="extensions")
def test_hotspot_crowding_amplifies_wolt_advantage(benchmark):
    ratios = benchmark.pedantic(_hotspot_ratios, kwargs={"seed": 3},
                                rounds=1, iterations=1)
    # Crowding users into meeting rooms collapses RSSI onto few
    # extenders; WOLT's advantage grows markedly.
    assert ratios[0.9] > ratios[0.0]
    assert ratios[0.9] > 2.0
    emit(f"Hotspots: WOLT/RSSI = {ratios[0.0]:.2f}x uniform vs "
         f"{ratios[0.9]:.2f}x with 90% of users in hotspots")

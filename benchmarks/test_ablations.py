"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Phase-II solver: combinatorial (greedy + local search) vs the paper's
  continuous nonlinear-program route (Theorem 3 integrality).
* PLC leftover-time redistribution: with vs without (explains the Fig 3c
  greedy outcome, 30 vs 25 Mbps).
* Phase-I coverage: WOLT with vs without the "one user per extender"
  modification (constraint (8) tightening) under the paper's model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phase1 import solve_phase1
from repro.core.phase2 import solve_phase2, solve_phase2_continuous
from repro.core.problem import Scenario, UNASSIGNED
from repro.core.wolt import solve_wolt
from repro.net.engine import evaluate
from repro.net.topology import enterprise_floor

from .conftest import emit


@pytest.mark.benchmark(group="ablation")
def test_phase2_continuous_ablation(benchmark):
    """The combinatorial solver matches the NLP route's quality and both
    return integral assignments (Theorem 3)."""
    rng = np.random.default_rng(0)
    scenarios = [enterprise_floor(5, 15, np.random.default_rng(s))
                 for s in range(5)]

    def run_both():
        pairs = []
        for scenario in scenarios:
            p1 = solve_phase1(scenario)
            comb = solve_phase2(scenario, p1.assignment)
            cont = solve_phase2_continuous(scenario, p1.assignment,
                                           rng=rng)
            pairs.append((comb, cont))
        return pairs

    pairs = benchmark.pedantic(run_both, rounds=1, iterations=1)
    ratios = []
    for comb, cont in pairs:
        assert comb.was_integral
        assert np.all(comb.assignment != UNASSIGNED)
        assert np.all(cont.assignment != UNASSIGNED)
        ratios.append(cont.objective / comb.objective)
    emit(f"Phase II ablation: NLP/combinatorial objective ratios "
         f"{[round(r, 3) for r in ratios]}")
    assert np.mean(ratios) > 0.9


@pytest.mark.benchmark(group="ablation")
def test_redistribution_ablation_fig3c(benchmark):
    """Leftover-time redistribution is what lifts Fig 3c from 25 to 30."""
    scenario = Scenario(wifi_rates=np.array([[15.0, 10.0], [40.0, 20.0]]),
                        plc_rates=np.array([60.0, 20.0]))

    def run():
        with_r = evaluate(scenario, [0, 1],
                          plc_mode="redistribute").aggregate
        without = evaluate(scenario, [0, 1], plc_mode="active").aggregate
        return with_r, without

    with_r, without = benchmark(run)
    assert with_r == pytest.approx(30.0)
    assert without == pytest.approx(25.0)


@pytest.mark.benchmark(group="ablation")
def test_phase1_coverage_ablation(benchmark):
    """Under the paper's fixed time-sharing model, Phase I's full
    extender coverage is the decisive design choice: WOLT utilizes every
    PLC share while an RSSI-seeded Phase II alone strands many."""
    scenarios = [enterprise_floor(15, 36, np.random.default_rng(s))
                 for s in range(5)]

    def run():
        deltas = []
        for scenario in scenarios:
            wolt = solve_wolt(scenario, plc_mode="fixed")
            # Ablated variant: skip Phase I entirely; Phase II places
            # everyone from an empty assignment.
            empty = np.full(scenario.n_users, UNASSIGNED)
            ablated = solve_phase2(scenario, empty)
            ablated_agg = evaluate(scenario, ablated.assignment,
                                   plc_mode="fixed").aggregate
            deltas.append(wolt.aggregate_throughput / ablated_agg)
        return deltas

    deltas = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Phase I coverage ablation: WOLT/no-phase1 ratios "
         f"{[round(d, 2) for d in deltas]}")
    # Full WOLT is at least as good on average.
    assert np.mean(deltas) >= 0.99

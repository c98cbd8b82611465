"""Extension study — WOLT under a lossy control plane.

Scan reports, directives and handoffs fail with probability ``p``
(estimates also go stale); policies degrade gracefully to the
strongest-RSSI fallback.  Claim checked: WOLT's reconfiguration
advantage survives — it stays at or above the RSSI baseline at every
fault level, and the sweep is deterministic for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import wolt_retention
from repro.experiments.faults import DEFAULT_FAULT_LEVELS, run_fault_sweep

from .conftest import emit


@pytest.mark.benchmark(group="faults")
def test_wolt_survives_lossy_control_plane(benchmark):
    result = benchmark.pedantic(
        run_fault_sweep,
        kwargs={"fault_levels": DEFAULT_FAULT_LEVELS, "n_trials": 10,
                "seed": 0},
        rounds=1, iterations=1)
    # WOLT never drops below the RSSI fallback it degrades toward.
    for li in range(len(result.levels)):
        assert (result.mean_mbps["wolt"][li]
                >= result.mean_mbps["rssi"][li])
    # And keeps most of its fault-free throughput at every level.
    assert min(wolt_retention(result.levels,
                              result.mean_mbps["wolt"])) >= 0.8
    # The sweep is bit-reproducible for a fixed seed.
    again = run_fault_sweep(fault_levels=DEFAULT_FAULT_LEVELS,
                            n_trials=10, seed=0)
    assert again.mean_mbps == result.mean_mbps
    assert again.totals == result.totals
    rows = ", ".join(
        f"{level:.0%}: WOLT {result.mean_mbps['wolt'][li]:.0f} / "
        f"Greedy {result.mean_mbps['greedy'][li]:.0f} / "
        f"RSSI {result.mean_mbps['rssi'][li]:.0f} Mbps"
        for li, level in enumerate(result.levels))
    emit("Fault sweep (lossy control plane, clean scoring): " + rows)

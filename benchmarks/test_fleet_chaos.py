"""Extension study — fleet chaos acceptance gate.

Runs the full ``python -m scripts.gates.fleet_chaos`` storm against the gate
fleet: composed blackout + crash + hang faults at level 0.6, epochs
stay atomic (torn journal + resume is byte-identical), serial and
pooled runs bit-identical (real hangs reaped by the per-shard
deadline), every building recovers to the clean twin after the storm
clears, and a zero-fault chaos run is indistinguishable from a clean
one.  Claim checked: the campus service degrades, it never stalls.
"""

from __future__ import annotations

import pytest

from scripts.gates.fleet_chaos import acceptance_failures

from .conftest import emit


@pytest.mark.benchmark(group="fleet")
def test_fleet_chaos_acceptance_gate(benchmark):
    failures = benchmark.pedantic(acceptance_failures,
                                  rounds=1, iterations=1)
    assert failures == []
    emit("Fleet chaos gate: storm level 0.6 (blackout+crash+hang), "
         "recovery, serial==pooled, torn-journal atomicity: PASS")

"""DecisionGuard overhead micro-benchmark.

:class:`~repro.fleet.service.FleetService` repairs each building's
decision once, where it applies it: solve, then
:meth:`~repro.core.guard.DecisionGuard.repair_assignment`.  That
repair should be effectively free next to the solve (<5% over the
solver alone).  This benchmark times ``solve_wolt`` and
``greedy_assignment`` alone, and the guard's repair of each one's
output, on the pinned Fig. 6 workload; solve-then-repair costs the sum.
It writes ``benchmarks/perf/BENCH_guard.json``:

    PYTHONPATH=src python -m benchmarks.perf.bench_guard

Every section reports best-of-``repeats`` wall time so the JSON is
stable enough to compare across commits (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.baselines import greedy_assignment
from repro.core.guard import DecisionGuard
from repro.core.wolt import solve_wolt
from repro.net.topology import enterprise_floor
from repro.sim.checkpoint import atomic_write_text

OUTPUT = Path(__file__).resolve().parent / "BENCH_guard.json"

#: Pinned workload: the paper's Fig. 6 enterprise floor.
N_EXTENDERS = 15
N_USERS = 124
SEED = 2020

#: The performance budget: solve plus repair within 5% of the solve.
OVERHEAD_BUDGET = 0.05


def _best_of(fn, repeats: int = 7) -> float:
    """Best wall time of ``repeats`` runs (seconds)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def _alone_vs_repaired(scenario, solve) -> dict:
    """The solve alone, and the repair that follows it at the boundary.

    Solve-then-repair costs ``alone_s + repair_s``; timing the repair on
    its own keeps the solver's run-to-run noise out of the overhead.
    """
    assignment = solve()
    alone_s = _best_of(solve)
    guard = DecisionGuard()
    repair_s = _best_of(lambda: guard.repair_assignment(scenario,
                                                        assignment))
    overhead = repair_s / alone_s
    return {
        "alone_s": alone_s,
        "repair_s": repair_s,
        "overhead_fraction": overhead,
        "within_budget": overhead <= OVERHEAD_BUDGET,
    }


def main() -> dict:
    rng = np.random.default_rng(SEED)
    scenario = enterprise_floor(N_EXTENDERS, N_USERS, rng)
    report = {
        "meta": {
            "workload": {"n_extenders": N_EXTENDERS, "n_users": N_USERS,
                         "seed": SEED},
            "overhead_budget": OVERHEAD_BUDGET,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "solve_wolt": _alone_vs_repaired(
            scenario, lambda: solve_wolt(scenario).assignment),
        "greedy_assignment": _alone_vs_repaired(
            scenario, lambda: greedy_assignment(scenario)),
    }
    atomic_write_text(OUTPUT, json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    for name in ("solve_wolt", "greedy_assignment"):
        section = report[name]
        verdict = "OK" if section["within_budget"] else "OVER BUDGET"
        print(f"{name}: repair overhead "
              f"{section['overhead_fraction']:+.1%} "
              f"(budget {OVERHEAD_BUDGET:.0%}) — {verdict}")
    print(f"\nwrote {OUTPUT}")
    return report


if __name__ == "__main__":
    main()

"""Engine and runner micro-benchmarks (scalar vs batch, serial vs parallel).

Times the throughput-engine hot path and the Monte-Carlo trial runner on
pinned seeds and writes ``benchmarks/perf/BENCH_engine.json``:

    PYTHONPATH=src python -m benchmarks.perf.bench_engine

Run it from the repository root: the batch section's yardstick,
``tests.oracles.evaluate_aggregate_reference``, is imported from the
test package.  Every section reports best-of-``repeats`` wall time so
the JSON is stable enough to compare across commits (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.net.engine import DeltaEvaluator, evaluate, evaluate_batch
from repro.net.topology import enterprise_floor
from repro.sim.checkpoint import atomic_write_text
from repro.sim.runner import run_trials, shutdown_warm_pools
from tests.oracles import evaluate_aggregate_reference

OUTPUT = Path(__file__).resolve().parent / "BENCH_engine.json"

#: Pinned workload: the paper's Fig. 6 enterprise floor.
N_EXTENDERS = 15
N_USERS = 124
BATCH_SIZE = 256
BATCH_CALLS = 20
PAIRED_ROUNDS = 9
N_MOVES = 256
SEED = 2020

TRIAL_KWARGS = dict(n_trials=16, n_extenders=15, n_users=80, seed=7,
                    policies=("wolt", "greedy", "rssi"))
TRIAL_WORKERS = 4


def _best_of(fn, repeats: int = 5) -> float:
    """Best wall time of ``repeats`` runs (seconds)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return float(best)


def _random_complete_batch(scenario, rng, n_batch: int) -> np.ndarray:
    batch = np.empty((n_batch, scenario.n_users), dtype=int)
    for i in range(scenario.n_users):
        options = scenario.reachable(i)
        batch[:, i] = rng.choice(options, size=n_batch)
    return batch


def bench_evaluate(scenario, rng) -> dict:
    """``evaluate_batch`` against a frozen one-at-a-time yardstick.

    ``speedup`` is the median over paired rounds of the time of the
    test-suite's scalar reference (``evaluate_aggregate_reference``,
    numpy forms that production changes do not touch) over the time of
    one ``evaluate_batch`` call, so it moves only when the batch path
    does.  Production's scalar ``evaluate`` is timed too, as an
    absolute cost, and gates nothing.
    """
    batch = _random_complete_batch(scenario, rng, BATCH_SIZE)

    def reference():
        for row in batch:
            evaluate_aggregate_reference(scenario, row)

    def scalar():
        for row in batch:
            evaluate(scenario, row)

    def batched():
        evaluate_batch(scenario, batch)

    # Each round times the reference loop and BATCH_CALLS batch calls
    # (about as long) back to back, so a noisy spell of the machine
    # slows both sides of the round's ratio.
    rounds = [(_best_of(reference, repeats=1),
               _best_of(lambda: [batched() for _ in range(BATCH_CALLS)],
                        repeats=1) / BATCH_CALLS)
              for _ in range(PAIRED_ROUNDS)]
    reference_s = min(r for r, _ in rounds)
    batch_s = min(b for _, b in rounds)
    scalar_s = _best_of(scalar)
    return {
        "candidates": BATCH_SIZE,
        "reference_s": reference_s,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": float(np.median([r / b for r, b in rounds])),
        "reference_us_per_candidate": 1e6 * reference_s / BATCH_SIZE,
        "scalar_us_per_candidate": 1e6 * scalar_s / BATCH_SIZE,
        "batch_us_per_candidate": 1e6 * batch_s / BATCH_SIZE,
    }


def bench_delta_eval(scenario, rng) -> dict:
    """Single-move scoring: ``DeltaEvaluator`` vs a full re-score.

    This is the hysteresis-loop shape (``CentralController._hysteresis``
    in ``core/controller.py``): candidate moves are scored one at a
    time against a *changing* working assignment, so batching does not
    apply.  The delta path recomputes
    only the two cells a move touches; the full path re-runs scalar
    ``evaluate`` on the moved assignment.
    """
    base = np.array([int(scenario.reachable(i)[np.argmax(
        scenario.wifi_rates[i, scenario.reachable(i)])])
        for i in range(scenario.n_users)])
    users = rng.integers(0, scenario.n_users, size=N_MOVES)
    moves = [(int(u), int(rng.choice(scenario.reachable(int(u)))))
             for u in users]

    def full_rescore():
        for user, dest in moves:
            candidate = base.copy()
            candidate[user] = dest
            evaluate(scenario, candidate)

    def delta():
        evaluator = DeltaEvaluator(scenario, base.copy())
        for user, dest in moves:
            evaluator.score_move(user, dest)

    full_s = _best_of(full_rescore)
    delta_s = _best_of(delta)
    return {
        "moves": N_MOVES,
        "full_rescore_s": full_s,
        "delta_s": delta_s,
        "speedup": full_s / delta_s,
        "full_us_per_move": 1e6 * full_s / N_MOVES,
        "delta_us_per_move": 1e6 * delta_s / N_MOVES,
    }


def bench_run_trials() -> dict:
    """Serial vs chunked parallel dispatch, cold and warm pools.

    ``parallel_cold_s`` pays the one-off pool fork plus the first
    chunked dispatch; ``parallel_s`` (the ratcheted number) is the
    steady state — a warm worker pool fed scenario-free chunks.
    """
    shutdown_warm_pools()
    serial_s = _best_of(lambda: run_trials(**TRIAL_KWARGS), repeats=2)
    shutdown_warm_pools()
    start = time.perf_counter()
    run_trials(workers=TRIAL_WORKERS, **TRIAL_KWARGS)
    cold_s = time.perf_counter() - start
    # The pool stays warm after the cold run: these dispatches reuse it.
    parallel_s = _best_of(
        lambda: run_trials(workers=TRIAL_WORKERS, **TRIAL_KWARGS),
        repeats=2)
    shutdown_warm_pools()
    return {"n_trials": TRIAL_KWARGS["n_trials"],
            "workers": TRIAL_WORKERS,
            "chunk_size": "auto",
            "serial_s": serial_s,
            "parallel_cold_s": cold_s,
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s}


def main() -> dict:
    rng = np.random.default_rng(SEED)
    scenario = enterprise_floor(N_EXTENDERS, N_USERS, rng)
    report = {
        "meta": {
            "workload": {"n_extenders": N_EXTENDERS, "n_users": N_USERS,
                         "seed": SEED},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            # Parallel-runner speedup is bounded by this number.
            "cpus": len(os.sched_getaffinity(0)),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "evaluate_reference_vs_batch": bench_evaluate(scenario, rng),
        "delta_eval_vs_full_rescore": bench_delta_eval(scenario, rng),
        "run_trials_serial_vs_parallel": bench_run_trials(),
    }
    atomic_write_text(OUTPUT, json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {OUTPUT}")
    return report


if __name__ == "__main__":
    main()

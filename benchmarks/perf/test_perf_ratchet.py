"""Perf ratchet: fail when a recorded speedup regresses.

Reads the committed ``benchmarks/perf/BENCH_engine.json`` (regenerate
with ``PYTHONPATH=src python -m benchmarks.perf.bench_engine``) and
asserts two kinds of bound on every ``speedup`` field:

* **absolute floors** — the claims this repo makes in
  docs/PERFORMANCE.md must hold on the recorded numbers: delta-eval
  scores a move at least 5x faster than a full re-score, and chunked
  parallel dispatch reaches at least 1.5x at 4 workers *when the
  recording machine actually has 4 cores* (``meta.cpus`` gates the
  floor — on a single core parallelism is a wash by construction, so
  the floor there only catches pathological dispatch overhead);
* **the ratchet** — each speedup must stay within ``TOLERANCE`` of the
  best level this repo has already demonstrated (the ``RATCHET``
  table).  A drop beyond 10% is a regression and fails the build; when
  an optimization legitimately advances a number, re-pin its baseline
  here in the same PR that regenerates the JSON.

``evaluate_reference_vs_batch`` divides a frozen scalar yardstick
(``tests.oracles.evaluate_aggregate_reference``) by one
``evaluate_batch`` call, so it falls only when the batch path slows
down; a faster production scalar ``evaluate`` no longer moves it.

CI runs this in the ``perf-smoke`` job *after* regenerating the JSON
on the runner, so the bounds are checked against fresh measurements,
not just the committed file.  The file lives under ``benchmarks/``
(outside the tier-1 ``testpaths``) because it is a timing gate, not a
correctness test; run it directly with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_ratchet.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent / "BENCH_engine.json"

#: Regression tolerance on ratcheted speedups: fail below
#: ``(1 - TOLERANCE) * RATCHET[section]``.
TOLERANCE = 0.10

#: Best demonstrated speedups (conservative: pinned a little below the
#: committed measurements so runner-to-runner noise does not flake).
#: Re-pin upward when an optimization moves a number for real.
RATCHET = {
    "evaluate_reference_vs_batch": 20.0,
    "delta_eval_vs_full_rescore": 6.0,
}

#: Absolute floor on delta-eval per-move speedup vs a full re-score.
DELTA_FLOOR = 5.0

#: ``(min_cpus, floor)`` rows for the parallel-dispatch speedup, most
#: demanding first.  The recorded ``meta.cpus`` picks the row: 1.5x is
#: only achievable (and only required) with >= 4 real cores.
PARALLEL_FLOORS = ((4, 1.5), (2, 1.1), (1, 0.75))


@pytest.fixture(scope="module")
def bench() -> dict:
    if not BENCH.exists():
        pytest.fail(f"{BENCH} missing — run "
                    f"PYTHONPATH=src python -m benchmarks.perf.bench_engine")
    return json.loads(BENCH.read_text())


def test_json_has_every_ratcheted_section(bench: dict) -> None:
    missing = [s for s in RATCHET if s not in bench]
    assert not missing, (
        f"BENCH_engine.json lacks sections {missing}; regenerate it "
        f"with the current bench_engine.py")
    assert "run_trials_serial_vs_parallel" in bench
    assert bench["meta"]["cpus"] >= 1


@pytest.mark.parametrize("section", sorted(RATCHET))
def test_speedup_ratchet(bench: dict, section: str) -> None:
    current = bench[section]["speedup"]
    floor = (1.0 - TOLERANCE) * RATCHET[section]
    assert current >= floor, (
        f"{section}: speedup {current:.2f}x regressed more than "
        f"{TOLERANCE:.0%} below the {RATCHET[section]:.1f}x ratchet "
        f"(floor {floor:.2f}x)")


def test_delta_eval_absolute_floor(bench: dict) -> None:
    current = bench["delta_eval_vs_full_rescore"]["speedup"]
    assert current >= DELTA_FLOOR, (
        f"delta-eval scores a move only {current:.2f}x faster than a "
        f"full re-score; the contract is >= {DELTA_FLOOR:.0f}x")


def test_parallel_dispatch_floor(bench: dict) -> None:
    section = bench["run_trials_serial_vs_parallel"]
    cpus = bench["meta"]["cpus"]
    floor = next(f for min_cpus, f in PARALLEL_FLOORS if cpus >= min_cpus)
    assert section["speedup"] >= floor, (
        f"parallel run_trials speedup {section['speedup']:.2f}x at "
        f"{section['workers']} workers is below the {floor:.2f}x floor "
        f"for a {cpus}-cpu machine")


def test_warm_dispatch_beats_cold_start(bench: dict) -> None:
    """The warm-pool steady state must not be slower than a cold pool.

    Guards the point of keeping worker pools warm: if reusing a pool
    ever costs more than forking a fresh one (plus re-shipping the
    scenario config), the warm-pool path has regressed.  10% headroom
    absorbs timer noise on loaded runners.
    """
    section = bench["run_trials_serial_vs_parallel"]
    assert section["parallel_s"] <= 1.10 * section["parallel_cold_s"]

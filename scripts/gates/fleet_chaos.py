"""Fleet chaos acceptance gate for ``wolt serve --chaos``.

Torments a small fixed fleet with the composed storm of
:class:`repro.fleet.chaos.FleetFaultModel` (telemetry blackouts, shard
crashes, slow-shard hangs) and checks that the service degrades and
heals as promised: zero-fault identity, epochs within their deadline
budget, serial == pooled, full recovery within the probation window
after the storm clears, and atomic epochs (journal torn-tail + resume
byte-identity).

Run it from the repository root; it prints the verdict and exits 1 on
acceptance FAIL::

    PYTHONPATH=src python -m scripts.gates.fleet_chaos
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Union

from repro.fleet.chaos import FleetFaultModel
from repro.fleet.service import FleetService, format_epoch
from repro.fleet.spec import (BuildingSpec, FleetSpec, HealthSettings,
                              TelemetryModel)

__all__ = ["acceptance_failures", "gate_spec", "main",
           "tear_journal_tail"]


def tear_journal_tail(path: Union[str, Path]) -> None:
    """Simulate a crash mid-append: leave a torn partial record.

    Appends an incomplete JSONL line with no trailing newline — the
    exact on-disk shape of a process killed inside ``write()`` —
    which :class:`~repro.sim.checkpoint.TrialStore` recovery must heal
    by truncating back to the last complete record.
    """
    with open(path, "ab") as handle:
        handle.write(b'{"kind": "record", "index": 9999, "payl')


def gate_spec(seed: int = 73) -> FleetSpec:
    """The small fixed fleet the acceptance gate torments.

    Telemetry has jitter but no dropout: extender-health chaos is
    ``wolt chaos``'s job; this gate isolates the *fleet*-layer fault
    machinery (blackouts, shard crashes, hangs, breakers) so the
    recovery check can demand exact convergence with the clean twin.
    """
    return FleetSpec(
        name="chaos-gate",
        seed=seed,
        plc_mode="redistribute",
        buildings=(
            BuildingSpec(name="hq", n_extenders=4, n_users=8,
                         circuits=("a", "a", "b", "b")),
            BuildingSpec(name="lab", n_extenders=3, n_users=6),
            BuildingSpec(name="dorm", n_extenders=3, n_users=5),
        ),
        telemetry=TelemetryModel(wifi_jitter=0.02, plc_jitter=0.05,
                                 dropout=0.0),
        # breaker_strikes=1 = hair-trigger breakers: any failed epoch
        # trips one, so the storm exercises the full trip -> skip ->
        # probe -> close cycle instead of needing an unlucky streak.
        health=HealthSettings(probation_epochs=2, retry_budget=1,
                              breaker_strikes=1,
                              breaker_probation_epochs=2))


def _storm_landed(model: FleetFaultModel, spec: FleetSpec,
                  epochs: int, n_shard_failures: int,
                  n_shard_timeouts: int) -> List[str]:
    """The gate must not pass vacuously: every fault family fired."""
    problems: List[str] = []
    blackouts = sum(
        model.blackout(spec.seed, b, e)
        for b in range(spec.n_buildings) for e in range(epochs))
    if blackouts == 0:
        problems.append("storm drew zero telemetry blackouts "
                        "(vacuous gate; raise level or epochs)")
    if n_shard_failures == 0:
        problems.append("storm produced zero shard failures "
                        "(vacuous gate; raise level or epochs)")
    if n_shard_timeouts == 0:
        problems.append("storm produced zero shard timeouts — the "
                        "deadline-reap path went unexercised "
                        "(vacuous gate; raise level or epochs)")
    return problems


def acceptance_failures(level: float = 0.6, epochs: int = 12,
                        clear_after: int = 5,
                        timeout_s: float = 5.0,
                        workers: int = 2) -> List[str]:
    """Run the fleet chaos gate; empty list = acceptance PASS.

    Checks, in order:

    1. a zero-fault chaos run is bit-identical to a clean run;
    2. under the composed storm every epoch completes within its
       deadline budget (hung shards are reaped, never awaited);
    3. serial and pooled chaos runs are bit-identical;
    4. every faulted building recovers to the clean twin's exact
       state within the probation window after the storm clears;
    5. epochs are atomic: a chaos run journaled, torn mid-record and
       resumed snapshots byte-identical to an uninterrupted one.
    """
    if epochs <= clear_after:
        raise ValueError("epochs must exceed clear_after (the gate "
                         "needs post-storm epochs to check recovery)")
    failures: List[str] = []
    spec = gate_spec()
    model = FleetFaultModel.from_level(level, until_epoch=clear_after)

    # Clean twin: the reference the chaotic runs must converge to.
    clean = FleetService(spec)
    clean_texts: List[str] = []
    for _ in range(epochs):
        clean_report = clean.run_epoch()
        assert clean_report is not None
        clean_texts.append(format_epoch(clean_report))

    # 1. Zero-fault identity (the chaos plumbing itself must be free).
    zero = FleetService(replace(spec, chaos=FleetFaultModel()))
    for e in range(epochs):
        zero_report = zero.run_epoch()
        assert zero_report is not None
        if format_epoch(zero_report) != clean_texts[e]:
            failures.append(
                f"zero-fault chaos run diverged from the clean run "
                f"at epoch {e}")
            break

    # 2. + 4. Serial chaotic run: storm lands, then full recovery.
    stormy = replace(spec, chaos=model)
    serial = FleetService(stormy)
    serial_texts: List[str] = []
    n_shard_failures = 0
    n_shard_timeouts = 0
    n_breaker_trips = 0
    for e in range(epochs):
        report = serial.run_epoch()
        assert report is not None
        serial_texts.append(format_epoch(report))
        n_shard_failures += report.n_shard_failures
        n_shard_timeouts += report.n_shard_timeouts
        n_breaker_trips += sum(1 for b in report.buildings
                               if b.breaker_open)
    failures.extend(_storm_landed(model, spec, clear_after,
                                  n_shard_failures,
                                  n_shard_timeouts))
    if n_breaker_trips == 0:
        failures.append("storm never tripped a circuit breaker "
                        "(vacuous gate; raise level or epochs)")
    if serial_texts[-1] != clean_texts[-1]:
        failures.append(
            f"faulted fleet did not recover to the clean twin within "
            f"{epochs - clear_after} epochs of the storm clearing")

    # 2. + 3. Pooled chaotic run: real hangs reaped by the deadline,
    # bit-identical to the serial synthesis, epochs time-bounded.
    pooled = FleetService(
        replace(stormy, health=replace(stormy.health,
                                       shard_timeout_s=timeout_s)),
        workers=workers)
    # Generous per-epoch bound: every shard could hang (each costs one
    # timeout to reap) and CI boxes are slow — but a single un-reaped
    # hang_s sleep (3600 s) still blows it by an order of magnitude.
    budget_s = 120.0 + timeout_s * 8
    for e in range(epochs):
        started = time.monotonic()
        pooled_report = pooled.run_epoch()
        elapsed = time.monotonic() - started
        assert pooled_report is not None
        if elapsed > budget_s:
            failures.append(
                f"epoch {e} took {elapsed:.1f}s, over its "
                f"{budget_s:.1f}s deadline budget (hung shard not "
                f"reaped?)")
        if format_epoch(pooled_report) != serial_texts[e]:
            failures.append(
                f"pooled chaos run diverged from the serial run at "
                f"epoch {e}")
            break

    # 5. Atomicity: journal + torn tail + resume == uninterrupted.
    with tempfile.TemporaryDirectory() as tmp:
        full_path = os.path.join(tmp, "full.jsonl")
        with FleetService(stormy, journal=full_path) as full:
            full.run(epochs)
        torn_path = os.path.join(tmp, "torn.jsonl")
        with FleetService(stormy, journal=torn_path) as first:
            first.run(clear_after)
        tear_journal_tail(torn_path)
        with FleetService(stormy, journal=torn_path,
                          resume=True) as resumed:
            resumed.run(epochs - clear_after)
        full_bytes = Path(full_path).read_bytes()
        torn_bytes = Path(torn_path).read_bytes()
        if full_bytes != torn_bytes:
            failures.append(
                "torn + resumed chaos journal is not byte-identical "
                "to the uninterrupted journal (epochs not atomic)")
    return failures


def main() -> int:
    """CI entry point: print the verdict, exit 1 on acceptance FAIL."""
    failures = acceptance_failures()
    print("fleet chaos gate: composed storm (blackout + crash + hang) "
          "with recovery, identity and atomicity checks")
    for problem in failures:
        print(f"  FAIL: {problem}")
    verdict = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE: {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

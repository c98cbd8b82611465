"""End-to-end chaos harness for the self-healing control loop.

The fault sweep (:mod:`repro.experiments.faults`) stresses one failure
mode at a time.  Chaos composes them: every epoch, extenders crash and
recover (:func:`repro.sim.failures.flip_extenders` Bernoulli dynamics),
scan reports travel a lossy :class:`repro.sim.faults.FaultyTransport`,
rate estimates carry log-normal error
(:func:`repro.net.estimate.noisy_scenario`), and both WiFi and PLC
telemetry are occasionally *poisoned* with NaN readings — the sensor
garbage a real driver emits mid-reset.

Three control loops face the same seeded storm:

* ``wolt`` — the guarded loop: a :class:`repro.core.DecisionGuard`
  sanitizes poisoned scan reports, a :class:`repro.core.HealthMonitor`
  quarantines suspect extenders, and a report TTL expires stale
  telemetry.
* ``wolt_unguarded`` — the same controller with every safety net
  removed.  Its first poisoned message raises; the harness records the
  crash and stops driving it (clients keep their last association —
  the operator page has not been answered yet).
* ``rssi`` — physics-only camping on the strongest live extender; no
  control plane, so nothing to crash.

Scoring is always against the *live* ground truth of the final epoch
(after :func:`repro.sim.failures.reassociate_orphans` — clients cannot
stay on a dead BSS, whatever any controller believes).

Acceptance (checked by :func:`acceptance_failures` and the test
suite): the guarded loop never crashes, matches the unguarded loop
bit-for-bit when the storm is off (level 0), and its mean throughput
dominates both the crashed loop and RSSI camping at every chaos level.

This harness torments one scenario's control loop.  Its campus-scale
sibling, :mod:`repro.fleet.chaos`, torments the whole fleet behind
``wolt serve`` — telemetry blackouts, shard worker crashes and
slow-shard hangs against per-shard deadlines and per-building circuit
breakers — with its own CI acceptance gate
(``python -m scripts.gates.fleet_chaos``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..core.controller import CentralController, ScanReport
from ..core.guard import DecisionGuard
from ..core.health import HealthMonitor
from ..core.problem import Scenario
from ..net.engine import evaluate
from ..net.estimate import noisy_scenario
from ..net.topology import enterprise_floor
from ..sim.failures import (EpochInput, drive_control_plane,
                            fail_extenders, flip_extenders, settle_clients)
from ..sim.faults import FaultModel, FaultyTransport
from .common import format_rows

__all__ = ["ChaosResult", "run_chaos_sweep", "quarantine_recovery_check",
           "acceptance_failures", "main", "DEFAULT_CHAOS_LEVELS"]

#: The documented default chaos levels swept by ``wolt chaos``.
DEFAULT_CHAOS_LEVELS = (0.0, 0.15, 0.3, 0.5)

#: The control loops compared by the sweep.
_POLICIES = ("wolt", "wolt_unguarded", "rssi")

#: Guarded-loop resilience counters accumulated per level.
_GUARD_STATS = ("guard_repairs", "sanitized_reports", "stale_reports")


@dataclass(frozen=True)
class ChaosResult:
    """Mean throughput and resilience counters per chaos level.

    Attributes:
        chaos_levels: the storm intensities swept (0 = calm).
        mean_mbps: policy -> per-level mean aggregate throughput,
            scored on the final live ground truth.
        crashes: policy -> per-level total uncaught control-loop
            exceptions across trials (the guarded loop must stay at 0).
        guard_stats: counter name -> per-level totals of the guarded
            controller's :class:`~repro.core.controller.ControllerStats`
            resilience counters (``guard_repairs``, always 0,
            ``sanitized_reports``, ``stale_reports``).
        quarantine_events / readmit_events: per-level totals of
            :class:`~repro.core.health.HealthMonitor` transitions in
            the guarded loop.
    """

    chaos_levels: Tuple[float, ...]
    mean_mbps: Dict[str, Tuple[float, ...]]
    crashes: Dict[str, Tuple[int, ...]]
    guard_stats: Dict[str, Tuple[int, ...]]
    quarantine_events: Tuple[int, ...]
    readmit_events: Tuple[int, ...]


def _poison(row: np.ndarray, rng: np.random.Generator,
            prob: float) -> np.ndarray:
    """With probability ``prob``, NaN out one random entry of ``row``.

    The draw sequence is consumed identically whether or not the
    poison lands, so a fixed stream reproduces the same storm at every
    level.
    """
    hit = rng.random() < prob
    victim = int(rng.integers(row.size))
    if hit:
        row = row.copy()
        row[victim] = np.nan
    return row


def _storm(truth: Scenario, level: float, n_epochs: int,
           crash_rng: np.random.Generator,
           noise_rng: np.random.Generator,
           poison_rng: np.random.Generator) -> List[EpochInput]:
    """The seeded storm, one controller input per epoch.

    Every user's row draws its poison, even a user who cannot report,
    so the poison stream never depends on reachability.
    """
    down = np.zeros(truth.n_extenders, dtype=bool)
    storm: List[EpochInput] = []
    for _ in range(n_epochs):
        down = flip_extenders(down, crash_rng, level / 3)
        live = fail_extenders(truth, np.flatnonzero(down))
        est = noisy_scenario(live, noise_rng,
                             wifi_noise_fraction=level / 2,
                             plc_noise_fraction=level / 4)
        plc_reading = _poison(est.plc_rates, poison_rng, level / 2)
        wifi = np.vstack([_poison(est.wifi_rates[user], poison_rng,
                                  level / 2)
                          for user in range(truth.n_users)])
        storm.append((live, wifi, plc_reading))
    return storm


def _run_chaos_episode(truth: Scenario, policy: str, level: float,
                       seq: np.random.SeedSequence, n_epochs: int,
                       plc_mode: str) -> Dict[str, Any]:
    """One (trial, level, policy) episode; returns a JSON-able payload.

    Separate streams drive the crash dynamics, the transport, the
    estimation noise and the poison draws, so the *storm* seen by the
    three policies differs only by their independent seeds — and at
    level 0 every storm is the identity, making the guarded and
    unguarded WOLT loops bit-identical there.
    """
    crash_rng, transport_rng, noise_rng, poison_rng = (
        np.random.default_rng(s) for s in seq.spawn(4))
    storm = _storm(truth, level, n_epochs, crash_rng, noise_rng,
                   poison_rng)
    live = storm[-1][0]
    crashes = 0
    known: Dict[int, int] = {}
    if policy != "rssi":
        guarded = policy == "wolt"
        model = FaultModel(report_drop_prob=level / 2,
                           directive_drop_prob=level / 2,
                           handoff_failure_prob=level / 2,
                           max_retries=1)
        cc = CentralController(
            truth.plc_rates, policy="wolt",
            transport=FaultyTransport(model, transport_rng),
            guard=DecisionGuard() if guarded else None,
            health=(HealthMonitor(truth.n_extenders, probation_epochs=2)
                    if guarded else None),
            report_ttl_epochs=2 if guarded else None)
        try:
            drive_control_plane(cc, storm)
        except ValueError:
            crashes += 1
        known = cc.associations
    # Physics: nobody stays associated to a dead extender.
    assignment = settle_clients(live, known)
    report = evaluate(live, assignment, require_complete=False,
                      plc_mode=plc_mode)
    payload: Dict[str, Any] = {"aggregate": float(report.aggregate),
                               "crashes": int(crashes)}
    if policy == "wolt":
        payload.update(
            {name: int(getattr(cc.stats, name))
             for name in _GUARD_STATS})
        events = cc.health.events if cc.health is not None else []
        payload["quarantines"] = sum(
            1 for e in events if e.event == "quarantine")
        payload["readmits"] = sum(
            1 for e in events if e.event == "readmit")
    return payload


def run_chaos_sweep(chaos_levels: Sequence[float] = DEFAULT_CHAOS_LEVELS,
                    n_trials: int = 10,
                    n_extenders: int = 10,
                    n_users: int = 24,
                    n_epochs: int = 4,
                    seed: int = 0,
                    plc_mode: str = "fixed") -> ChaosResult:
    """Run the composed-fault chaos sweep.

    Deterministic for a fixed ``seed``: every trial owns a SeedSequence
    child; within a trial every (level, policy) episode owns its own
    grandchild, further split into crash / transport / noise / poison
    streams.

    Args:
        chaos_levels: storm intensities in [0, 1]; a level ``x`` sets
            extender crash probability ``x/3`` per epoch, message loss
            ``x/2``, WiFi estimate noise ``x/2``, PLC estimate noise
            ``x/4`` and telemetry NaN-poison probability ``x/2``.
        n_trials: independent floors per level.
        n_extenders / n_users: floor scale.
        n_epochs: scan/telemetry/reconfigure rounds per episode.
        seed: master random seed.
        plc_mode: PLC sharing law used for scoring.
    """
    levels = tuple(float(x) for x in chaos_levels)
    if any(not 0.0 <= x <= 1.0 for x in levels):
        raise ValueError("chaos levels must be in [0, 1]")
    if n_trials < 1 or n_epochs < 1:
        raise ValueError("n_trials and n_epochs must be positive")
    sums = {policy: np.zeros(len(levels)) for policy in _POLICIES}
    crash_totals = {policy: [0] * len(levels) for policy in _POLICIES}
    stat_totals = {name: [0] * len(levels) for name in _GUARD_STATS}
    quarantines = [0] * len(levels)
    readmits = [0] * len(levels)
    for trial_seq in np.random.SeedSequence(seed).spawn(n_trials):
        streams = trial_seq.spawn(1 + len(levels) * len(_POLICIES))
        truth = enterprise_floor(n_extenders, n_users,
                                 np.random.default_rng(streams[0]))
        stream = 1
        for li, level in enumerate(levels):
            for policy in _POLICIES:
                payload = _run_chaos_episode(truth, policy, level,
                                             streams[stream], n_epochs,
                                             plc_mode)
                stream += 1
                sums[policy][li] += payload["aggregate"]
                crash_totals[policy][li] += payload["crashes"]
                if policy == "wolt":
                    for name in _GUARD_STATS:
                        stat_totals[name][li] += payload[name]
                    quarantines[li] += payload["quarantines"]
                    readmits[li] += payload["readmits"]
    mean = {policy: tuple(values / n_trials)
            for policy, values in sums.items()}
    return ChaosResult(
        chaos_levels=levels, mean_mbps=mean,
        crashes={p: tuple(v) for p, v in crash_totals.items()},
        guard_stats={n: tuple(v) for n, v in stat_totals.items()},
        quarantine_events=tuple(quarantines),
        readmit_events=tuple(readmits))


def acceptance_failures(result: ChaosResult) -> List[str]:
    """The chaos acceptance criteria; empty means the sweep passes.

    * the guarded loop never raises an uncaught exception;
    * guarded WOLT ≥ unguarded WOLT at every level (equality at 0);
    * guarded WOLT ≥ RSSI camping at every level.

    The throughput comparisons are over per-level *means*: at very
    small trial counts a single unlucky floor can tip a high-chaos
    level, so judge the loop at the documented defaults (5+ trials).
    """
    failures = []
    for li, level in enumerate(result.chaos_levels):
        wolt = result.mean_mbps["wolt"][li]
        unguarded = result.mean_mbps["wolt_unguarded"][li]
        rssi = result.mean_mbps["rssi"][li]
        if result.crashes["wolt"][li]:
            failures.append(
                f"level {level:.0%}: guarded loop crashed "
                f"{result.crashes['wolt'][li]} time(s)")
        if wolt < unguarded - 1e-9:
            failures.append(
                f"level {level:.0%}: guarded WOLT {wolt:.2f} < "
                f"unguarded {unguarded:.2f} Mbps")
        if wolt < rssi - 1e-9:
            failures.append(
                f"level {level:.0%}: guarded WOLT {wolt:.2f} < "
                f"RSSI {rssi:.2f} Mbps")
    return failures


def quarantine_recovery_check(seed: int = 0,
                              probation_epochs: int = 2
                              ) -> Dict[str, Any]:
    """Deterministic quarantine/re-admission demonstration.

    Drives a guarded controller through a scripted incident: extender 0
    reports NaN capacity (quarantined), then reports clean for
    ``probation_epochs`` consecutive epochs (re-admitted).  Returns the
    observed epochs so callers can assert the probation contract:
    ``readmit_epoch - last_bad_epoch <= probation_epochs + 1``.
    """
    rng = np.random.default_rng(seed)
    truth = enterprise_floor(5, 12, rng)
    health = HealthMonitor(5, probation_epochs=probation_epochs)
    cc = CentralController(truth.plc_rates, guard=DecisionGuard(),
                           health=health, report_ttl_epochs=4)
    for user in range(truth.n_users):
        cc.receive_scan_report(ScanReport(user, truth.wifi_rates[user]))
    cc.reconfigure()
    bad = truth.plc_rates.copy()
    bad[0] = np.nan
    cc.update_plc_telemetry(bad)  # -> quarantine
    last_bad_epoch = health.epoch - 1
    for _ in range(probation_epochs + 1):
        cc.update_plc_telemetry(truth.plc_rates)  # clean probation
        cc.reconfigure()
    events = {e.event: e.epoch for e in health.events}
    return {
        "quarantine_epoch": events.get("quarantine"),
        "readmit_epoch": events.get("readmit"),
        "last_bad_epoch": last_bad_epoch,
        "readmitted": not health.is_quarantined(0),
        "within_probation": (
            "readmit" in events
            and events["readmit"] - last_bad_epoch
            <= probation_epochs + 1),
    }


def main(seed: int = 0, n_trials: int = 10) -> str:
    """Format the chaos sweep and the acceptance verdict."""
    result = run_chaos_sweep(seed=seed, n_trials=n_trials)
    rows = []
    for li, level in enumerate(result.chaos_levels):
        rows.append((
            f"{level:.0%}",
            result.mean_mbps["wolt"][li],
            result.mean_mbps["wolt_unguarded"][li],
            result.mean_mbps["rssi"][li],
            result.crashes["wolt_unguarded"][li],
            result.quarantine_events[li],
            result.readmit_events[li]))
    out = ["Chaos sweep (mean aggregate Mbps on live ground truth; "
           "crashes/quarantines are totals)"]
    out.append(format_rows(
        ["chaos", "WOLT guarded", "WOLT unguarded", "RSSI",
         "crashes", "quarantines", "readmits"], rows))
    stat_rows = []
    for li, level in enumerate(result.chaos_levels):
        stat_rows.append(
            (f"{level:.0%}",) + tuple(result.guard_stats[name][li]
                                      for name in _GUARD_STATS))
    out.append("\nGuarded-loop resilience counters (totals)")
    out.append(format_rows(
        ["chaos", "guard repairs", "sanitized reports",
         "stale reports"], stat_rows))
    recovery = quarantine_recovery_check(seed=seed)
    out.append(
        "\nQuarantine drill: quarantined at epoch "
        f"{recovery['quarantine_epoch']}, re-admitted at epoch "
        f"{recovery['readmit_epoch']} "
        f"({'within' if recovery['within_probation'] else 'OUTSIDE'} "
        "the probation window)")
    failures = acceptance_failures(result)
    if failures:
        out.append("\nACCEPTANCE: FAIL")
        out.extend(f"  - {line}" for line in failures)
    else:
        out.append("\nACCEPTANCE: PASS (guarded loop crash-free and "
                   "dominant at every level)")
    return "\n".join(out)

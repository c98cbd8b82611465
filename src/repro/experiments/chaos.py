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

:func:`repro.experiments.common.run_episode` scores every loop on the
final epoch's live ground truth: nobody stays on a dead extender.

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

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.controller import CentralController
from ..core.guard import DecisionGuard
from ..core.health import HealthMonitor
from ..core.problem import Scenario, fail_extenders
from ..net.estimate import noisy_scenario
from ..net.topology import enterprise_floor
from ..sim.failures import (EpochInput, drive_control_plane,
                            flip_extenders)
from ..sim.faults import FaultModel, FaultyTransport
from .common import SweepResult, format_rows, run_episode, run_sweep

__all__ = ["run_chaos_sweep", "quarantine_recovery_check",
           "acceptance_failures", "main", "DEFAULT_CHAOS_LEVELS"]

#: The documented default chaos levels swept by ``wolt chaos``.
DEFAULT_CHAOS_LEVELS = (0.0, 0.15, 0.3, 0.5)

#: The control loops compared by the sweep.
_POLICIES = ("wolt", "wolt_unguarded", "rssi")

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
        wifi = np.vstack([_poison(row, poison_rng, level / 2)
                          for row in est.wifi_rates])
        storm.append((live, wifi, plc_reading))
    return storm


def _episode(truth: Scenario, level: float, policy: str,
             seq: np.random.SeedSequence, n_epochs: int,
             plc_mode: str) -> Tuple[float, Dict[str, Any]]:
    """One (trial, level, policy) episode under its own seeded storm.

    Separate crash, transport, noise and poison streams make every
    storm the identity at level 0, where the guarded and unguarded
    loops are therefore bit-identical.
    """
    crash_rng, transport_rng, noise_rng, poison_rng = (
        np.random.default_rng(s) for s in seq.spawn(4))
    storm = _storm(truth, level, n_epochs, crash_rng, noise_rng,
                   poison_rng)
    if policy == "rssi":
        return run_episode(None, storm, plc_mode)[0], {}
    model = FaultModel(report_drop_prob=level / 2,
                       directive_drop_prob=level / 2,
                       handoff_failure_prob=level / 2, max_retries=1)
    transport = FaultyTransport(model, transport_rng)
    if policy == "wolt_unguarded":
        aggregate, crashes = run_episode(
            CentralController(truth.plc_rates, transport=transport),
            storm, plc_mode)
        return aggregate, {"unguarded_crashes": crashes}
    health = HealthMonitor(truth.n_extenders, probation_epochs=2)
    cc = CentralController(truth.plc_rates, transport=transport,
                           guard=DecisionGuard(), health=health,
                           report_ttl_epochs=2)
    aggregate, crashes = run_episode(cc, storm, plc_mode)
    return aggregate, {"crashes": crashes,
                       "sanitized_reports": cc.stats.sanitized_reports,
                       "stale_reports": cc.stats.stale_reports,
                       "quarantines": cc.stats.quarantines,
                       "readmits": cc.stats.readmits}


def run_chaos_sweep(chaos_levels: Sequence[float] = DEFAULT_CHAOS_LEVELS,
                    n_trials: int = 10,
                    n_extenders: int = 10,
                    n_users: int = 24,
                    n_epochs: int = 4,
                    seed: int = 0,
                    plc_mode: str = "fixed") -> SweepResult:
    """Run the composed-fault chaos sweep.

    Seeded as :func:`~repro.experiments.common.run_sweep` describes.
    The result's ``totals`` hold the guarded loop's ``crashes``,
    ``sanitized_reports``, ``stale_reports``, ``quarantines`` and
    ``readmits``, and the unguarded loop's ``unguarded_crashes``.

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
    if n_epochs < 1:
        raise ValueError("n_epochs must be positive")
    episode = partial(_episode, n_epochs=n_epochs, plc_mode=plc_mode)
    return run_sweep(chaos_levels, _POLICIES, episode, n_trials,
                     n_extenders, n_users, seed)


def acceptance_failures(result: SweepResult) -> List[str]:
    """The chaos acceptance criteria; empty means the sweep passes.

    * the guarded loop never raises an uncaught exception;
    * guarded WOLT ≥ unguarded WOLT at every level (equality at 0);
    * guarded WOLT ≥ RSSI camping at every level.

    The throughput comparisons are over per-level *means*: at very
    small trial counts a single unlucky floor can tip a high-chaos
    level, so judge the loop at the documented defaults (5+ trials).
    """
    failures = []
    mean = result.mean_mbps
    for level, wolt, unguarded, rssi, crashes in zip(
            result.levels, mean["wolt"], mean["wolt_unguarded"],
            mean["rssi"], result.totals["crashes"]):
        if crashes:
            failures.append(
                f"level {level:.0%}: guarded loop crashed "
                f"{crashes} time(s)")
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
    truth = enterprise_floor(5, 12, np.random.default_rng(seed))
    health = HealthMonitor(5, probation_epochs=probation_epochs)
    cc = CentralController(truth.plc_rates, guard=DecisionGuard(),
                           health=health, report_ttl_epochs=4)
    drive_control_plane(cc, [(truth, truth.wifi_rates, None)])

    def flip_epoch(plc_rates: np.ndarray) -> Optional[int]:
        """Observe one epoch; its index if extender 0 changed state."""
        before = health.is_quarantined(0)
        cc.update_plc_telemetry(plc_rates)
        if health.is_quarantined(0) == before:
            return None
        return health.epoch - 1

    bad = truth.plc_rates.copy()
    bad[0] = np.nan
    quarantine_epoch = flip_epoch(bad)
    last_bad_epoch = health.epoch - 1
    readmit_epoch: Optional[int] = None
    for _ in range(probation_epochs + 1):
        flipped = flip_epoch(truth.plc_rates)  # clean probation
        if flipped is not None:
            readmit_epoch = flipped
        cc.reconfigure()
    return {
        "quarantine_epoch": quarantine_epoch,
        "readmit_epoch": readmit_epoch,
        "last_bad_epoch": last_bad_epoch,
        "readmitted": not health.is_quarantined(0),
        "within_probation": (
            (np.inf if readmit_epoch is None else readmit_epoch)
            - last_bad_epoch <= probation_epochs + 1),
    }


def main(seed: int = 0, n_trials: int = 10) -> str:
    """Format the chaos sweep and the acceptance verdict."""
    result = run_chaos_sweep(seed=seed, n_trials=n_trials)
    levels = [f"{level:.0%}" for level in result.levels]
    mean, totals = result.mean_mbps, result.totals
    out = ["Chaos sweep (mean aggregate Mbps on live ground truth; "
           "crashes/quarantines are totals)",
           format_rows(["chaos", "WOLT guarded", "WOLT unguarded",
                        "RSSI", "crashes", "quarantines", "readmits"],
                       zip(levels, mean["wolt"], mean["wolt_unguarded"],
                           mean["rssi"], totals["unguarded_crashes"],
                           totals["quarantines"], totals["readmits"])),
           "\nGuarded-loop resilience counters (totals)",
           format_rows(["chaos", "sanitized reports", "stale reports"],
                       zip(levels, totals["sanitized_reports"],
                           totals["stale_reports"]))]
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

"""Fleet-level chaos engineering for ``wolt serve``.

``wolt chaos`` (:mod:`repro.experiments.chaos`) torments a *single*
scenario's control loop; this module torments the whole campus.  A
:class:`FleetFaultModel` composes three fleet-layer fault families on
top of the spec's ordinary telemetry noise:

* **telemetry blackout** — a building's epoch report is lost in
  transit; the service must keep deciding from the last report it has
  (drawn per ``(building, epoch)`` from seed stream 2, so replay sees
  the same blackouts);
* **shard worker crash** — a shard solve raises
  :class:`~repro.sim.faults.InjectedCrash` for its first
  ``crash_attempts`` attempts (the existing
  :class:`~repro.sim.faults.CrashSchedule` hook), exercising the
  worker-side retry budget;
* **slow-shard hang** — a shard solve sleeps ``hang_s`` (effectively
  forever), exercising the per-shard ``timeout_s`` deadline: the pool
  supervisor reaps it as a :data:`~repro.sim.dispatch.TIMEOUT_ERROR_TYPE`
  :class:`~repro.sim.dispatch.WorkFailure`, and the serial path
  synthesizes the identical failure without sleeping (the plan is drawn
  parent-side), so serial and pooled chaos runs stay bit-identical.

Shard faults for an epoch are drawn parent-side from seed stream 3
(``spawn_key=(epoch, 0, 3)``), independent of topology (stream
``(building, 0)``), telemetry (``(building, epoch, 1)``) and blackouts
(``(building, epoch, 2)``).

Everything is a pure function of ``(spec.seed, model, epoch)`` — a
chaos run is exactly as reproducible as a clean one, and a model with
all rates at zero is *bit-identical* to no model at all (enforced by
the acceptance gate ``python -m scripts.gates.fleet_chaos`` and by
keeping trivial models out of the journal fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..sim.faults import CrashSchedule

__all__ = ["FleetFaultModel", "ShardFaultPlan"]

#: SeedSequence spawn-key stream tags used by the fleet layer.  0 is
#: topology ``(building, 0)``, 1 is telemetry ``(building, epoch, 1)``.
BLACKOUT_STREAM = 2
SHARD_FAULT_STREAM = 3


@dataclass(frozen=True)
class ShardFaultPlan:
    """The faults drawn for one epoch's shard batch (parent-side).

    Attributes:
        crashed: shard indices whose solve raises ``InjectedCrash`` for
            the model's ``crash_attempts`` attempts.
        hung: shard indices whose solve hangs for ``hang_s`` (to be
            reaped by the dispatch deadline, or synthesized as a
            timeout failure on the serial path).
        schedule: the picklable worker-side hook implementing the plan
            (``None`` when the plan is empty).
    """

    crashed: Tuple[int, ...]
    hung: Tuple[int, ...]
    schedule: Optional[CrashSchedule]

    @property
    def empty(self) -> bool:
        return not self.crashed and not self.hung


@dataclass(frozen=True)
class FleetFaultModel:
    """A seeded, spec-declarable composition of fleet-layer faults.

    All rates are per-epoch probabilities; ``until_epoch`` bounds the
    storm (faults are only drawn for epochs ``< until_epoch``), which
    is what lets the acceptance gate assert recovery after the storm
    clears.

    Attributes:
        blackout_prob: per-building chance an epoch's telemetry report
            is lost (the service re-decides from its previous report).
        crash_prob: per-shard chance the solve crashes for
            ``crash_attempts`` attempts before succeeding.
        crash_attempts: attempts consumed by an injected crash — set it
            above the retry budget to force a :class:`WorkFailure`.
        hang_prob: per-shard chance the solve hangs for ``hang_s``.
        hang_s: the hang duration (effectively forever by default).
        until_epoch: first epoch the storm no longer touches
            (``None`` = the storm never clears).
    """

    blackout_prob: float = 0.0
    crash_prob: float = 0.0
    crash_attempts: int = 1
    hang_prob: float = 0.0
    hang_s: float = 3600.0
    until_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("blackout_prob", "crash_prob", "hang_prob"):
            rate = float(getattr(self, name))
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got "
                    f"{rate!r}")
        if self.crash_prob + self.hang_prob > 1.0:
            raise ValueError(
                "crash_prob + hang_prob must not exceed 1 (a shard "
                "draws one uniform and the faults are exclusive)")
        if self.crash_attempts < 1:
            raise ValueError("crash_attempts must be >= 1")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")
        if self.until_epoch is not None and self.until_epoch < 0:
            raise ValueError("until_epoch must be >= 0")

    @classmethod
    def from_level(cls, level: float,
                   until_epoch: Optional[int] = None
                   ) -> "FleetFaultModel":
        """The ``wolt serve --chaos <level>`` storm, ``level`` in [0, 1].

        ``crash_attempts=2`` deliberately exceeds the default retry
        budget of 1, so crashes at any level exercise the carry-forward
        path, not just the retry path.
        """
        if not 0.0 <= level <= 1.0:
            raise ValueError(
                f"chaos level must be in [0, 1], got {level!r}")
        return cls(blackout_prob=level / 4.0,
                   crash_prob=level / 3.0,
                   crash_attempts=2,
                   hang_prob=level / 6.0,
                   until_epoch=until_epoch)

    @property
    def trivial(self) -> bool:
        """True when the model can never fire (all rates zero)."""
        return (self.blackout_prob == 0.0 and self.crash_prob == 0.0
                and self.hang_prob == 0.0)

    def active(self, epoch: int) -> bool:
        """Whether the storm touches this epoch at all."""
        if self.trivial:
            return False
        return self.until_epoch is None or epoch < self.until_epoch

    # ------------------------------------------------------------------
    # drawing (pure in (seed, epoch))

    def blackout(self, seed: int, building: int, epoch: int) -> bool:
        """Whether this building's report for this epoch is lost."""
        if not self.active(epoch) or self.blackout_prob <= 0.0:
            return False
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(building, epoch, BLACKOUT_STREAM)))
        return bool(rng.random() < self.blackout_prob)

    def shard_plan(self, seed: int, epoch: int,
                   n_shards: int) -> ShardFaultPlan:
        """Draw this epoch's shard faults (one uniform per shard).

        The split is exclusive: a shard either crashes, hangs, or runs
        clean — never two faults at once.
        """
        if not self.active(epoch) or n_shards == 0 or (
                self.crash_prob <= 0.0 and self.hang_prob <= 0.0):
            return ShardFaultPlan(crashed=(), hung=(), schedule=None)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(epoch, 0, SHARD_FAULT_STREAM)))
        draws = rng.random(n_shards)
        crashed = tuple(int(i) for i in
                        np.flatnonzero(draws < self.crash_prob))
        hung = tuple(int(i) for i in np.flatnonzero(
            (draws >= self.crash_prob)
            & (draws < self.crash_prob + self.hang_prob)))
        if not crashed and not hung:
            return ShardFaultPlan(crashed=(), hung=(), schedule=None)
        schedule = CrashSchedule(
            crashes={i: self.crash_attempts for i in crashed},
            hangs={i: 1 for i in hung},
            hang_s=self.hang_s)
        return ShardFaultPlan(crashed=crashed, hung=hung,
                              schedule=schedule)

"""Seeded fault injection for the control plane and the trial runner.

The paper's §V-A deployment story assumes a clean control plane: every
scan report reaches the Central Controller, every directive lands, and
every handoff completes.  Real enterprise PLC deployments are messier —
extenders brown out, clients miss directives, and 802.11k/v-style
steering must tolerate clients that ignore transition requests.  This
module makes that degradation injectable and *reproducible*:

* :class:`FaultModel` — the fault rates (per-message drop
  probabilities, handoff-failure probability, stale-rate-estimate
  noise) plus the retry budget;
* :class:`FaultyTransport` — a seeded :class:`repro.core.Transport`
  that applies the model to every control-plane message;
* :class:`CrashSchedule` / :data:`InjectedCrash` — a picklable fault
  hook that crashes selected Monte-Carlo trials inside
  :func:`repro.sim.runner.run_trials` workers, exercising its
  retry-and-:class:`~repro.sim.dispatch.WorkFailure` path.

Determinism contract: a :class:`FaultyTransport` consumes its generator
in message order, so for a fixed seed and a fixed call sequence every
fault lands identically — including across ``run_trials`` worker
counts (each trial carries its own SeedSequence child).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..core.controller import AssociationDirective, ScanReport, Transport

__all__ = ["FaultModel", "FaultyTransport", "InjectedCrash",
           "CrashSchedule"]


@dataclass(frozen=True)
class FaultModel:
    """Fault rates for one control-plane emulation.

    Attributes:
        report_drop_prob: probability a client's scan report is lost in
            transit (the CC never learns the client's rates).
        directive_drop_prob: probability one directive delivery attempt
            is lost (the CC retries up to ``max_retries`` times).
        handoff_failure_prob: probability a client ignores a delivered
            re-association directive (an 802.11v BTM-style refusal);
            the client stays on its previous extender.
        rate_noise_fraction: relative std-dev of log-normal noise on
            the rates the CC *receives* (stale/quantized estimates);
            zero entries stay zero, so reachability is preserved.
        max_retries: directive retransmissions after a lost send.
    """

    report_drop_prob: float = 0.0
    directive_drop_prob: float = 0.0
    handoff_failure_prob: float = 0.0
    rate_noise_fraction: float = 0.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        for name in ("report_drop_prob", "directive_drop_prob",
                     "handoff_failure_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.rate_noise_fraction < 0:
            raise ValueError("rate_noise_fraction must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


class FaultyTransport(Transport):
    """A seeded lossy control-plane transport.

    Every hook consumes the generator in call order, so a fixed seed
    and call sequence reproduce the exact same fault pattern.

    Args:
        model: the fault rates.
        rng: dedicated generator (spawn a SeedSequence child for it;
            sharing a stream with other components couples them).
    """

    def __init__(self, model: FaultModel,
                 rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self.max_retries = model.max_retries

    def observe_report(self, report: ScanReport) -> Optional[ScanReport]:
        if self.rng.random() < self.model.report_drop_prob:
            return None
        rates = np.asarray(report.wifi_rates, dtype=float)
        noise = self.model.rate_noise_fraction
        if noise > 0:
            sigma = math.sqrt(math.log1p(noise ** 2))
            factors = self.rng.lognormal(-sigma ** 2 / 2, sigma,
                                         rates.shape)
            rates = np.where(rates > 0, rates * factors, 0.0)
        return ScanReport(report.user_id, rates)

    def deliver_directive(self, directive: AssociationDirective) -> bool:
        return bool(self.rng.random() >= self.model.directive_drop_prob)

    def handoff_succeeds(self, directive: AssociationDirective) -> bool:
        return bool(self.rng.random()
                    >= self.model.handoff_failure_prob)


class InjectedCrash(RuntimeError):
    """Raised by :class:`CrashSchedule` to simulate a worker crash."""


@dataclass(frozen=True)
class CrashSchedule:
    """Picklable trial-crash / trial-hang fault hook for ``run_trials``.

    ``crashes`` maps a trial index to the number of attempts that must
    crash before the trial is allowed to succeed; the schedule raises
    :class:`InjectedCrash` on those attempts.  Passing it as
    ``run_trials(..., fault_hook=CrashSchedule({1: 3}), max_retries=2)``
    exhausts trial 1's retry budget and yields a
    :class:`~repro.sim.dispatch.WorkFailure` for it while every other
    trial completes normally.

    ``hangs`` maps a trial index to the number of attempts that must
    *hard-hang* (sleep ``hang_s`` seconds, emulating a wedged worker —
    a deadlocked solver, a stuck I/O syscall) before the trial is
    allowed to proceed.  Pair it with ``run_trials(...,
    timeout_s=...)`` to exercise the supervisor's deadline reaping: the
    hung worker is killed and the trial recorded as a timeout
    :class:`~repro.sim.dispatch.WorkFailure`.
    """

    crashes: Mapping[int, int]
    hangs: Mapping[int, int] = field(default_factory=dict)
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        for name, noun in (("crashes", "crash"), ("hangs", "hang")):
            counts = {int(t): int(n)
                      for t, n in dict(getattr(self, name)).items()}
            if any(n < 0 for n in counts.values()):
                raise ValueError(f"{noun} counts must be non-negative")
            object.__setattr__(self, name, counts)
        if self.hang_s < 0:
            raise ValueError("hang_s must be non-negative")

    def __call__(self, trial_index: int, attempt: int) -> None:
        if attempt < self.crashes.get(trial_index, 0):
            raise InjectedCrash(
                f"injected crash: trial {trial_index}, "
                f"attempt {attempt}")
        if attempt < self.hangs.get(trial_index, 0):
            time.sleep(self.hang_s)

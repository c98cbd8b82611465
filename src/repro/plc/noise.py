"""Time-varying power-line noise and capacity dynamics.

Power-line channels are notoriously non-stationary: appliance
switching, dimmers and motors inject impulsive and cyclo-stationary
noise synchronized to the AC mains cycle (the paper cites Katar et
al.'s cyclo-stationary noise adaptation work [12]).  As a result the
PLC "rate" ``c_j`` a deployment measured offline drifts over time —
one more reason a one-shot association goes stale and WOLT's periodic
re-optimization pays off.

:class:`NoiseProcess` models a link's excess noise as an
Ornstein-Uhlenbeck (mean-reverting) process in dB plus optional
impulsive appliance events; :class:`TimeVaryingPlc` turns the processes
of a whole building into a per-epoch capacity vector for the
association experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .homeplug import Av2Phy, DEFAULT_AV2

__all__ = ["NoiseProcess", "TimeVaryingPlc"]


@dataclass
class NoiseProcess:
    """Mean-reverting excess-noise process of one PLC link (dB).

    The excess noise ``x(t)`` follows a discretized Ornstein-Uhlenbeck
    process ``x' = x + theta*(mu - x) + sigma*W`` with occasional
    impulsive bursts (an appliance turning on) that decay at the same
    mean-reversion rate.

    Attributes:
        mean_db: long-run excess noise level.
        reversion: mean-reversion strength per step, in ``(0, 1]``.
        sigma_db: per-step Gaussian innovation.
        impulse_prob: probability of an appliance burst per step.
        impulse_db: burst magnitude (added to the state).
    """

    mean_db: float = 0.0
    reversion: float = 0.3
    sigma_db: float = 1.5
    impulse_prob: float = 0.05
    impulse_db: float = 10.0
    _state: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.reversion <= 1:
            raise ValueError("reversion must be in (0, 1]")
        if self.sigma_db < 0 or self.impulse_db < 0:
            raise ValueError("noise magnitudes must be non-negative")
        if not 0 <= self.impulse_prob <= 1:
            raise ValueError("impulse_prob must be a probability")
        self._state = self.mean_db

    @property
    def excess_noise_db(self) -> float:
        """Current excess noise above the quiescent floor (>= 0 dB)."""
        return max(self._state, 0.0)

    def step(self, rng: np.random.Generator) -> float:
        """Advance one step and return the new excess noise (dB)."""
        self._state += (self.reversion * (self.mean_db - self._state)
                        + float(rng.normal(0.0, self.sigma_db)))
        if rng.random() < self.impulse_prob:
            self._state += self.impulse_db
        return self.excess_noise_db


class TimeVaryingPlc:
    """Per-epoch PLC capacities of a building under noise dynamics.

    Each link has a static wiring attenuation (fixing its *best-case*
    capacity) plus an independent :class:`NoiseProcess`; stepping the
    model re-derives every link's capacity through the AV2 tone-map
    model with the current noise added to the attenuation budget.

    Args:
        attenuations_db: per-link static wiring attenuation.
        rng: random generator driving every noise process.
        phy: AV2 PHY (defaults to :data:`repro.plc.homeplug.DEFAULT_AV2`).
        noise: optional per-link noise processes (defaults to i.i.d.
            :class:`NoiseProcess` instances).
    """

    def __init__(self, attenuations_db: Sequence[float],
                 rng: np.random.Generator,
                 phy: Optional[Av2Phy] = None,
                 noise: Optional[Sequence[NoiseProcess]] = None) -> None:
        self.attenuations = np.asarray(attenuations_db, dtype=float)
        if self.attenuations.ndim != 1 or self.attenuations.size == 0:
            raise ValueError("need at least one link attenuation")
        if np.any(self.attenuations < 0):
            raise ValueError("attenuations must be non-negative")
        self.rng = rng
        self.phy = phy or DEFAULT_AV2
        if noise is None:
            self.noise: List[NoiseProcess] = [
                NoiseProcess() for _ in range(self.attenuations.size)]
        else:
            self.noise = list(noise)
            if len(self.noise) != self.attenuations.size:
                raise ValueError("one noise process per link is required")

    @property
    def n_links(self) -> int:
        return self.attenuations.size

    def capacities(self) -> np.ndarray:
        """Current per-link capacities (Mbps) under the present noise."""
        return self.phy.rates_for_attenuations(
            self.attenuations + [proc.excess_noise_db for proc in self.noise])

    def best_case_capacities(self) -> np.ndarray:
        """Capacities with zero excess noise (the offline calibration)."""
        return self.phy.rates_for_attenuations(self.attenuations)

    def step(self) -> np.ndarray:
        """Advance every link's noise one epoch; return new capacities."""
        for proc in self.noise:
            proc.step(self.rng)
        return self.capacities()

    def run(self, n_steps: int) -> np.ndarray:
        """Capacity trajectory: ``(n_steps, n_links)`` array."""
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        return np.vstack([self.step() for _ in range(n_steps)])

"""Estimation noise: the inputs an imperfect controller sees.

§V-A of the paper: clients estimate per-extender WiFi rates from the
NIC driver's MCS readout, and the CC measures PLC capacities offline
with iperf.  Both observations are noisy in practice.  This module
holds the noise model the robustness experiment
(``repro.experiments.robustness``, ``wolt robustness``) perturbs
inputs with.
"""

from __future__ import annotations

import numpy as np

from ..core.problem import Scenario

__all__ = ["noisy_scenario"]


def noisy_scenario(scenario: Scenario,
                   rng: np.random.Generator,
                   wifi_noise_fraction: float = 0.0,
                   plc_noise_fraction: float = 0.0) -> Scenario:
    """A scenario as *estimated* by an imperfect controller.

    Multiplies every WiFi rate and PLC capacity by independent
    log-normal factors with the given relative standard deviations —
    the inputs an association policy actually sees.  Reachability is
    preserved (zero rates stay zero).

    Args:
        scenario: the ground-truth snapshot.
        rng: random generator.
        wifi_noise_fraction: relative std-dev of WiFi rate estimates.
        plc_noise_fraction: relative std-dev of PLC capacity estimates.

    Returns:
        A new :class:`Scenario` with perturbed rates.
    """
    if wifi_noise_fraction < 0 or plc_noise_fraction < 0:
        raise ValueError("noise fractions must be non-negative")
    wifi = scenario.wifi_rates.copy()
    if wifi_noise_fraction > 0:
        sigma = np.sqrt(np.log1p(wifi_noise_fraction ** 2))
        factors = rng.lognormal(-sigma ** 2 / 2, sigma, wifi.shape)
        wifi = np.where(wifi > 0, wifi * factors, 0.0)
    plc = scenario.plc_rates.copy()
    if plc_noise_fraction > 0:
        sigma = np.sqrt(np.log1p(plc_noise_fraction ** 2))
        plc = plc * rng.lognormal(-sigma ** 2 / 2, sigma, plc.shape)
    return Scenario(wifi_rates=wifi, plc_rates=plc,
                    capacities=scenario.capacities,
                    user_ids=scenario.user_ids)

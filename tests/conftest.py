"""Shared fixtures and scenario factories for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.problem import Scenario

# Hypothesis profiles.  ``tier1`` (the default) draws the same examples on
# every run and ignores any local ``.hypothesis/`` example database, so a
# property passes or fails the same way on every machine.  ``explore``
# (``HYPOTHESIS_PROFILE=explore``) draws fresh random examples, and
# :func:`max_examples` multiplies each test's budget by
# ``EXPLORE_FACTOR``; every counterexample it finds is pinned with
# ``@example`` so that tier-1 replays it.
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
EXPLORE_FACTOR = 20
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None)
settings.load_profile(HYPOTHESIS_PROFILE)


def max_examples(n: int) -> int:
    """A test's Hypothesis example budget under the active profile."""
    return n * EXPLORE_FACTOR if HYPOTHESIS_PROFILE == "explore" else n


def random_scenario(rng: np.random.Generator,
                    n_users: int,
                    n_extenders: int,
                    reachable_prob: float = 1.0,
                    capacities: bool = False) -> Scenario:
    """A random scenario with paper-plausible rate ranges.

    WiFi PHY rates span 6.5-144 Mbps (802.11n MCS range) and PLC rates
    span 20-200 Mbps (the Fig. 2b measurement range widened a bit).
    """
    wifi = rng.uniform(6.5, 144.0, size=(n_users, n_extenders))
    if reachable_prob < 1.0:
        mask = rng.random((n_users, n_extenders)) < reachable_prob
        # Every user keeps at least one reachable extender.
        for i in range(n_users):
            if not mask[i].any():
                mask[i, rng.integers(n_extenders)] = True
        wifi = np.where(mask, wifi, 0.0)
    plc = rng.uniform(20.0, 200.0, size=n_extenders)
    caps = None
    if capacities:
        caps = rng.integers(max(2, n_users // n_extenders),
                            n_users + 1, size=n_extenders)
    return Scenario(wifi_rates=wifi, plc_rates=plc, capacities=caps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fig3_scenario() -> Scenario:
    """The exact Fig. 3 case study: 2 extenders, 2 users.

    PLC rates: 60 (ext 1) and 20 (ext 2) Mbps.  WiFi rates: user 1 gets
    15/10 Mbps to ext 1/2; user 2 gets 40/20 Mbps.
    """
    return Scenario(wifi_rates=np.array([[15.0, 10.0], [40.0, 20.0]]),
                    plc_rates=np.array([60.0, 20.0]))

"""Workload generators: realistic user placement.

The paper distributes users uniformly on the floor.  Real enterprises
are lumpier: meeting rooms, cafeterias and desk clusters concentrate
users.  :func:`hotspot_positions` draws users from a mixture of
Gaussian hotspots plus a uniform background; hotspot crowding is
exactly the regime where RSSI association collapses onto one extender
and WOLT's load spreading matters most.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["hotspot_positions"]


def hotspot_positions(n_users: int,
                      width_m: float,
                      height_m: float,
                      rng: np.random.Generator,
                      n_hotspots: int = 3,
                      hotspot_fraction: float = 0.7,
                      hotspot_sigma_m: float = 8.0,
                      centers: Optional[np.ndarray] = None) -> np.ndarray:
    """User positions from a hotspot mixture.

    A ``hotspot_fraction`` of users gather around Gaussian hotspots
    (meeting rooms); the rest are uniform background (corridors,
    roamers).  Positions are clipped to the floor.

    Args:
        n_users: number of users to place.
        width_m / height_m: floor dimensions.
        rng: random generator.
        n_hotspots: hotspot count (ignored when ``centers`` given).
        hotspot_fraction: share of users in hotspots, in ``[0, 1]``.
        hotspot_sigma_m: hotspot spread (standard deviation).
        centers: optional ``(k, 2)`` hotspot centres.

    Returns:
        ``(n_users, 2)`` coordinates.
    """
    if n_users < 0:
        raise ValueError("n_users must be non-negative")
    if not 0 <= hotspot_fraction <= 1:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    if hotspot_sigma_m <= 0:
        raise ValueError("hotspot_sigma_m must be positive")
    if centers is None:
        if n_hotspots < 1:
            raise ValueError("need at least one hotspot")
        centers = np.column_stack([
            rng.uniform(0.15 * width_m, 0.85 * width_m, n_hotspots),
            rng.uniform(0.15 * height_m, 0.85 * height_m, n_hotspots)])
    else:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.shape[1] != 2:
            raise ValueError("centers must be a (k, 2) array")
    positions = np.empty((n_users, 2))
    for i in range(n_users):
        if rng.random() < hotspot_fraction:
            centre = centers[rng.integers(centers.shape[0])]
            positions[i] = centre + rng.normal(0.0, hotspot_sigma_m, 2)
        else:
            positions[i] = [rng.uniform(0, width_m),
                            rng.uniform(0, height_m)]
    positions[:, 0] = np.clip(positions[:, 0], 0.0, width_m)
    positions[:, 1] = np.clip(positions[:, 1], 0.0, height_m)
    return positions

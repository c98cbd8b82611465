"""Tests for the hotspot workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.workload import hotspot_positions


class TestHotspotPositions:
    def test_within_bounds(self, rng):
        xy = hotspot_positions(300, 100.0, 60.0, rng)
        assert xy.shape == (300, 2)
        assert np.all(xy[:, 0] >= 0) and np.all(xy[:, 0] <= 100.0)
        assert np.all(xy[:, 1] >= 0) and np.all(xy[:, 1] <= 60.0)

    def test_clustering_is_real(self, rng):
        """Hotspot placement concentrates users more than uniform."""
        hot = hotspot_positions(500, 100.0, 100.0, rng,
                                hotspot_fraction=1.0,
                                hotspot_sigma_m=5.0, n_hotspots=2)
        uniform = np.column_stack([rng.uniform(0, 100, 500),
                                   rng.uniform(0, 100, 500)])
        # Mean nearest-neighbour distance shrinks under clustering.
        def mean_nn(xy):
            d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2
                         ).sum(-1))
            np.fill_diagonal(d, np.inf)
            return d.min(axis=1).mean()

        assert mean_nn(hot) < 0.5 * mean_nn(uniform)

    def test_fraction_zero_is_uniformish(self, rng):
        xy = hotspot_positions(400, 100.0, 100.0, rng,
                               hotspot_fraction=0.0)
        # Quadrant occupancy roughly balanced.
        quadrant = (xy[:, 0] > 50).astype(int) * 2 + (xy[:, 1] > 50)
        counts = np.bincount(quadrant, minlength=4)
        assert counts.min() > 50

    def test_explicit_centers(self, rng):
        centers = np.array([[10.0, 10.0]])
        xy = hotspot_positions(100, 100.0, 100.0, rng,
                               hotspot_fraction=1.0,
                               hotspot_sigma_m=2.0, centers=centers)
        assert np.median(np.hypot(xy[:, 0] - 10, xy[:, 1] - 10)) < 6.0

    def test_zero_users(self, rng):
        assert hotspot_positions(0, 10.0, 10.0, rng).shape == (0, 2)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            hotspot_positions(-1, 10, 10, rng)
        with pytest.raises(ValueError):
            hotspot_positions(5, 10, 10, rng, hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            hotspot_positions(5, 10, 10, rng, hotspot_sigma_m=0.0)
        with pytest.raises(ValueError):
            hotspot_positions(5, 10, 10, rng, n_hotspots=0)
        with pytest.raises(ValueError):
            hotspot_positions(5, 10, 10, rng,
                              centers=np.ones((2, 3)))

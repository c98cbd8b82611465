"""Tests for WiFi channel assignment (the §V-A assumption checker)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wifi.channels import (NON_OVERLAPPING_2_4GHZ, assign_channels,
                                 interference_graph)

from .conftest import max_examples
from .oracles import assign_channels_networkx


class TestInterferenceGraph:
    def test_close_pairs_interfere(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [100.0, 0.0]])
        adjacent = interference_graph(xy, 40.0)
        assert adjacent.dtype == bool
        assert adjacent.tolist() == [[False, True, False],
                                     [True, False, False],
                                     [False, False, False]]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            interference_graph(np.ones((2, 3)), 10.0)
        with pytest.raises(ValueError):
            interference_graph(np.ones((2, 2)), 0.0)


class TestAssignChannels:
    def test_paper_small_deployment_is_conflict_free(self):
        """Three well-spread extenders (the testbed) get distinct
        non-overlapping channels — the paper's assumption holds."""
        xy = np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 30.0]])
        plan = assign_channels(xy, interference_radius_m=50.0)
        assert plan.conflict_free
        assert len(set(plan.channels)) == 3
        assert set(plan.channels) <= set(NON_OVERLAPPING_2_4GHZ)

    def test_isolated_extenders_may_share(self):
        xy = np.array([[0.0, 0.0], [500.0, 0.0]])
        plan = assign_channels(xy, interference_radius_m=40.0)
        assert plan.conflict_free  # no interference even if same channel

    def test_dense_deployment_reports_conflicts(self):
        """Four mutually-interfering extenders cannot fit in 3 channels."""
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        plan = assign_channels(xy, interference_radius_m=10.0)
        assert not plan.conflict_free
        assert len(plan.conflicts) >= 1

    def test_empty_channel_set_rejected(self):
        with pytest.raises(ValueError):
            assign_channels(np.zeros((2, 2)), channel_set=())

    @given(st.integers(1, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=max_examples(50))
    def test_conflicts_reported_iff_same_channel_neighbors(self, n, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 100, (n, 2))
        plan = assign_channels(xy, interference_radius_m=35.0)
        adjacent = interference_graph(xy, 35.0)
        expected = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if adjacent[a, b] and plan.channels[a] == plan.channels[b]]
        assert list(plan.conflicts) == expected
        assert plan.conflict_free == (not expected)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=14),
           st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0, 10.0]),
           st.integers(1, 3))
    @settings(max_examples=max_examples(200), deadline=None)
    def test_matches_networkx_largest_first(self, points, radius,
                                            n_channels):
        # Lattice points make equal degrees common (and coincident
        # points interfere); dense draws need more colors than channels.
        xy = np.array(points, dtype=float)
        channel_set = NON_OVERLAPPING_2_4GHZ[:n_channels]
        assert (assign_channels(xy, radius, channel_set)
                == assign_channels_networkx(xy, radius, channel_set))

    def test_equal_degrees_keep_index_order(self):
        # A 4-cycle: every degree is 2, so nodes color in index order.
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        plan = assign_channels(xy, 1.2, channel_set=(1, 6))
        assert plan.channels == (1, 6, 1, 6)
        assert plan == assign_channels_networkx(xy, 1.2, (1, 6))

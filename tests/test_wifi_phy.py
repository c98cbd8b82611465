"""Tests for the 802.11 PHY / propagation model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wifi.phy import MCS_TABLE_80211N_20MHZ, WifiPhy


def _decode_edge_m(phy: WifiPhy) -> float:
    """Distance at which the link budget just meets the lowest MCS."""
    budget = (phy.tx_power_dbm - phy.noise_floor_dbm
              - phy.mcs_table[0][0] - phy.reference_loss_db)
    return float(10.0 ** (budget / (10.0 * phy.path_loss_exponent)))


class TestPathLoss:
    def test_reference_distance(self):
        phy = WifiPhy()
        assert phy.path_loss_db(1.0) == pytest.approx(
            phy.reference_loss_db)

    def test_sub_metre_clamps_to_reference(self):
        phy = WifiPhy()
        assert phy.path_loss_db(0.1) == phy.path_loss_db(1.0)

    def test_log_distance_slope(self):
        phy = WifiPhy(path_loss_exponent=3.5)
        per_decade = phy.path_loss_db(100.0) - phy.path_loss_db(10.0)
        assert per_decade == pytest.approx(35.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            WifiPhy().path_loss_db(-1.0)

    def test_shadowing_requires_rng(self):
        phy = WifiPhy(shadowing_sigma_db=8.0)
        # Without an rng, shadowing is off (deterministic).
        assert phy.path_loss_db(10.0) == phy.path_loss_db(10.0)
        rng = np.random.default_rng(0)
        draws = {phy.path_loss_db(10.0, rng) for _ in range(5)}
        assert len(draws) > 1

    @given(st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=100)
    def test_monotone_in_distance(self, d1, d2):
        phy = WifiPhy()
        if d1 < d2:
            assert phy.path_loss_db(d1) <= phy.path_loss_db(d2)
        else:
            assert phy.path_loss_db(d1) >= phy.path_loss_db(d2)


class TestRateSelection:
    def test_rate_at_contact_is_top_mcs(self):
        phy = WifiPhy()
        top_rate = phy.mcs_table[-1][1] * phy.spatial_streams
        assert phy.rate_at_distance(1.0) == pytest.approx(top_rate)

    def test_rate_beyond_range_is_zero(self):
        phy = WifiPhy()
        assert phy.rate_at_distance(_decode_edge_m(phy) * 2) == 0.0

    def test_rate_for_snr_ladder(self):
        phy = WifiPhy(spatial_streams=1)
        for threshold, rate in MCS_TABLE_80211N_20MHZ:
            assert phy.rate_for_snr(threshold) == pytest.approx(rate)
            assert phy.rate_for_snr(threshold - 0.5) < rate

    def test_below_lowest_threshold(self):
        phy = WifiPhy(spatial_streams=1)
        lowest_snr = MCS_TABLE_80211N_20MHZ[0][0]
        assert phy.rate_for_snr(lowest_snr - 1.0) == 0.0

    def test_spatial_streams_scale_rates(self):
        one = WifiPhy(spatial_streams=1)
        two = WifiPhy(spatial_streams=2)
        assert two.rate_at_distance(5.0) == pytest.approx(
            2 * one.rate_at_distance(5.0))

    def test_rssi_and_snr_consistency(self):
        phy = WifiPhy()
        d = 20.0
        assert phy.snr_db(d) == pytest.approx(
            phy.rssi_dbm(d) - phy.noise_floor_dbm)

    def test_max_range_decodes_lowest_mcs(self):
        phy = WifiPhy()
        edge = _decode_edge_m(phy)
        assert phy.rate_at_distance(edge * 0.99) > 0.0
        assert phy.rate_at_distance(edge * 1.01) == 0.0

    @given(st.floats(min_value=0.0, max_value=300.0),
           st.floats(min_value=0.0, max_value=300.0))
    @settings(max_examples=100)
    def test_rate_monotone_non_increasing(self, d1, d2):
        phy = WifiPhy()
        lo, hi = sorted((d1, d2))
        assert phy.rate_at_distance(lo) >= phy.rate_at_distance(hi)


class TestRateMatrix:
    def test_shape_and_symmetry(self):
        phy = WifiPhy()
        users = np.array([[0.0, 0.0], [10.0, 0.0]])
        exts = np.array([[0.0, 0.0], [10.0, 0.0], [50.0, 50.0]])
        m = phy.rate_matrix(users, exts)
        assert m.shape == (2, 3)
        # Mirror geometry gives mirror rates.
        assert m[0, 0] == m[1, 1]
        assert m[0, 1] == m[1, 0]

    def test_colocation_gives_top_rate(self):
        phy = WifiPhy()
        m = phy.rate_matrix(np.array([[5.0, 5.0]]),
                            np.array([[5.0, 5.0]]))
        assert m[0, 0] == pytest.approx(
            phy.mcs_table[-1][1] * phy.spatial_streams)

    def test_bad_shapes_rejected(self):
        phy = WifiPhy()
        with pytest.raises(ValueError):
            phy.rate_matrix(np.ones((2, 3)), np.ones((2, 2)))


class TestValidation:
    def test_invalid_spatial_streams(self):
        with pytest.raises(ValueError):
            WifiPhy(spatial_streams=0)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            WifiPhy(path_loss_exponent=0.0)

    def test_unsorted_mcs_table(self):
        with pytest.raises(ValueError):
            WifiPhy(mcs_table=((10.0, 6.5), (5.0, 13.0)))

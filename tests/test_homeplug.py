"""Tests for the HomePlug AV2 PHY (tone map / bit loading) model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plc.homeplug import DEFAULT_AV2, Av2Phy


class TestBitLoading:
    def test_zero_snr_loads_zero_bits(self):
        phy = Av2Phy()
        bits = phy.bit_loading(np.full(phy.n_carriers, -20.0))
        assert np.all(bits == 0)

    def test_high_snr_hits_constellation_cap(self):
        phy = Av2Phy()
        bits = phy.bit_loading(np.full(phy.n_carriers, 80.0))
        assert np.all(bits == phy.max_bits_per_carrier)

    def test_wrong_profile_length_rejected(self):
        with pytest.raises(ValueError):
            Av2Phy().bit_loading(np.zeros(10))

    @given(st.floats(min_value=-20.0, max_value=80.0),
           st.floats(min_value=-20.0, max_value=80.0))
    @settings(max_examples=100)
    def test_monotone_in_snr(self, s1, s2):
        phy = Av2Phy(n_carriers=32)
        lo, hi = sorted((s1, s2))
        bits_lo = phy.bit_loading(np.full(32, lo))
        bits_hi = phy.bit_loading(np.full(32, hi))
        assert np.all(bits_hi >= bits_lo)


class TestRates:
    def test_rate_decreases_with_attenuation(self):
        rates = [DEFAULT_AV2.rate_for_attenuation(a)
                 for a in (10.0, 30.0, 50.0, 70.0)]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] > rates[-1]

    def test_fig2b_range_covered(self):
        """Some attenuation maps to each end of the measured range."""
        best = DEFAULT_AV2.rate_for_attenuation(0.0)
        assert best >= 160.0
        worst = DEFAULT_AV2.rate_for_attenuation(70.0)
        assert worst <= 60.0

    def test_mac_rate_below_phy_rate(self):
        # The PHY rate is the MAC rate at a MAC efficiency of 1.
        phy_rate = Av2Phy(mac_efficiency=1.0).rate_for_attenuation(30.0)
        assert DEFAULT_AV2.rate_for_attenuation(30.0) < phy_rate

    def test_dead_link_has_zero_rate(self):
        assert DEFAULT_AV2.rate_for_attenuation(200.0) == 0.0

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_AV2.snr_profile(-1.0)

    @given(st.floats(min_value=0.0, max_value=120.0),
           st.floats(min_value=0.0, max_value=120.0))
    @settings(max_examples=60)
    def test_rate_monotone_non_increasing(self, a1, a2):
        lo, hi = sorted((a1, a2))
        assert (DEFAULT_AV2.rate_for_attenuation(lo)
                >= DEFAULT_AV2.rate_for_attenuation(hi))


class TestSnrProfile:
    def test_frequency_tilt(self):
        profile = DEFAULT_AV2.snr_profile(20.0, selectivity_db=12.0)
        # SNR decreases toward higher carriers (cable loss grows with f).
        assert profile[0] > profile[-1]
        assert profile[0] - profile[-1] == pytest.approx(12.0)

    def test_flat_profile_without_selectivity(self):
        profile = DEFAULT_AV2.snr_profile(20.0, selectivity_db=0.0)
        assert np.allclose(profile, profile[0])


class TestValidation:
    def test_invalid_carriers(self):
        with pytest.raises(ValueError):
            Av2Phy(n_carriers=0)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            Av2Phy(band_start_mhz=30.0, band_end_mhz=1.8)

    def test_invalid_efficiencies(self):
        with pytest.raises(ValueError):
            Av2Phy(fec_efficiency=0.0)
        with pytest.raises(ValueError):
            Av2Phy(mac_efficiency=1.5)

    def test_carrier_grid(self):
        phy = Av2Phy(n_carriers=5, band_start_mhz=2.0, band_end_mhz=10.0)
        freqs = phy.carrier_frequencies_mhz
        assert freqs[0] == 2.0 and freqs[-1] == 10.0
        assert len(freqs) == 5

"""Tests for the power-line wiring plant model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plc.channel import PowerlineNetwork, random_building


def _tiny_network() -> PowerlineNetwork:
    # One 20 m trunk; outlet-0 hangs 5 m off its junction, outlet-1 30 m.
    return PowerlineNetwork(trunk_m=[20.0], junction=[0, 0],
                            drop_m=[5.0, 30.0])


class TestPowerlineNetwork:
    def test_outlets_sorted(self):
        net = _tiny_network()
        assert net.outlets == ["outlet-0", "outlet-1"]
        wide = PowerlineNetwork(trunk_m=[1.0], junction=[0] * 11,
                                drop_m=[1.0] * 11)
        assert wide.outlets[:3] == ["outlet-0", "outlet-1", "outlet-10"]

    def test_path_attenuation_accumulates(self):
        net = _tiny_network()
        att = net.path_attenuations_db(["outlet-0"])
        expected = (25.0 * net.cable_loss_db_per_m
                    + net.junction_loss_db + 2 * net.outlet_loss_db)
        assert att.tolist() == [pytest.approx(expected)]

    def test_longer_drop_attenuates_more(self):
        near, far = _tiny_network().path_attenuations_db(
            ["outlet-0", "outlet-1"])
        assert far > near

    def test_nearer_outlet_has_better_rate(self):
        near, far = _tiny_network().rates(["outlet-0", "outlet-1"])
        assert near >= far

    def test_rates_vector_matches_scalars(self):
        net = _tiny_network()
        rates = net.rates()
        for k, att in enumerate(net.path_attenuations_db()):
            assert rates[k] == net.phy.rate_for_attenuation(att)

    def test_unknown_outlet_rejected(self):
        with pytest.raises(KeyError, match="outlet-99"):
            _tiny_network().rates(["outlet-99"])

    def test_missing_panel_rejected(self):
        # With no circuit leaving the panel, no outlet reaches it.
        with pytest.raises(ValueError, match="junction"):
            PowerlineNetwork(trunk_m=[], junction=[0], drop_m=[5.0])

    def test_missing_length_rejected(self):
        with pytest.raises(ValueError, match="drop length"):
            PowerlineNetwork(trunk_m=[20.0], junction=[0, 0], drop_m=[5.0])

    @pytest.mark.parametrize("trunk, drop", [
        (-1.0, 5.0), (20.0, -0.5), (np.nan, 5.0), (20.0, np.nan)])
    def test_negative_or_nan_length_rejected(self, trunk, drop):
        with pytest.raises(ValueError, match="non-negative"):
            PowerlineNetwork(trunk_m=[trunk], junction=[0], drop_m=[drop])

    @pytest.mark.parametrize("junction", [-1, 2])
    def test_junction_out_of_range_rejected(self, junction):
        with pytest.raises(ValueError, match="junction"):
            PowerlineNetwork(trunk_m=[20.0, 10.0], junction=[0, junction],
                             drop_m=[5.0, 5.0])


class TestRandomBuilding:
    def test_outlet_count(self, rng):
        building = random_building(12, rng)
        assert len(building.outlets) == 12

    def test_invalid_outlet_count(self, rng):
        with pytest.raises(ValueError):
            random_building(0, rng)

    def test_deterministic_given_seed(self):
        a = random_building(8, np.random.default_rng(5)).rates()
        b = random_building(8, np.random.default_rng(5)).rates()
        assert np.allclose(a, b)

    def test_rates_span_a_realistic_range(self):
        """Across many buildings, outlet rates spread like Fig. 2b."""
        rng = np.random.default_rng(0)
        rates = np.concatenate(
            [random_building(10, rng).rates() for _ in range(10)])
        assert rates.min() >= 0.0
        assert rates.max() <= 250.0
        assert rates.std() > 10.0  # genuine diversity between outlets

    @given(st.integers(1, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_outlet_connected_to_panel(self, n, seed):
        building = random_building(n, np.random.default_rng(seed))
        assert (building.path_attenuations_db() > 0).all()

    def test_custom_circuit_count(self, rng):
        building = random_building(9, rng, n_circuits=3)
        assert building.trunk_m.shape == (3,)
        assert set(building.junction.tolist()) <= {0, 1, 2}

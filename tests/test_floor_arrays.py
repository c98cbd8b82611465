"""As-built floors in array passes, against the per-link loops, bit for bit.

Production scores a floor's links in array passes: ``WifiPhy.rate_matrix``
runs the path-loss, SNR and MCS-ladder arithmetic over the whole
distance matrix, ``Av2Phy.rates_for_attenuations`` loads the bits of
every link's tone map in one ``(links, carriers)`` array, and
``PowerlineNetwork.rates`` sums every outlet's trunk and drop from the
plant's arrays.  The loops they replaced are in :mod:`tests.oracles`;
the properties here compare bytes with them:

* the rate matrix over distances under 1 m, SNRs exactly on an MCS
  threshold, several spatial streams and seeded shadowing (which must
  also leave the generator where the per-link draws leave it);
* the tone map over attenuations on bit-load boundaries, 1 to 3455
  carriers, and non-default coding gap and band tilt;
* ``PowerlineNetwork`` attenuations and rates on ``random_building``
  plants, against a per-outlet ``nx.shortest_path`` over the plant's
  wiring graph.

A spied ``FleetService`` construction checks that every floor of the
smoke fleet has the oracle builder's bytes while no link is scored on
its own and nothing calls into networkx.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.service import FleetService
from repro.fleet.spec import load_fleet_spec
from repro.net.topology import FloorPlan, build_scenario
from repro.plc.channel import PowerlineNetwork, random_building
from repro.plc.homeplug import Av2Phy
from repro.plc.noise import NoiseProcess, TimeVaryingPlc
from repro.wifi.phy import MCS_TABLE_80211N_20MHZ, WifiPhy

from .conftest import max_examples
from .oracles import (PowerlineNetworkScalar, build_building_scenario_scalar,
                      build_scenario_scalar, rate_at_distance_scalar,
                      rate_matrix_scalar,
                      snr_profile_scalar, tone_map_rate_scalar)

SMOKE = Path(__file__).parent / "data" / "fleet_smoke.yaml"

#: User offsets from an extender whose length is exact in floats:
#: under the 1 m reference distance, and on the 1, 10 and 100 m
#: decades, where ``log10`` is exact.
_EXACT_OFFSETS = ((0.0, 0.0), (0.5, 0.0), (0.0, -0.75), (1.0, 0.0),
                  (6.0, 8.0), (-10.0, 0.0), (60.0, -80.0), (0.0, 100.0))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@st.composite
def _wifi_floors(draw):
    """A PHY, extender positions on the integer grid and users placed
    uniformly, within 1 m of an extender or on an exact decade."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_ext = draw(st.integers(1, 6))
    exts = rng.integers(0, 100, size=(n_ext, 2)).astype(float)
    users = [rng.uniform(0.0, 100.0, 2)
             for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 8))):
        offset = draw(st.sampled_from(_EXACT_OFFSETS))
        users.append(exts[draw(st.integers(0, n_ext - 1))] + offset)
    base = WifiPhy(
        tx_power_dbm=draw(st.sampled_from([20.0, 6.0, 13.5])),
        path_loss_exponent=draw(st.sampled_from([3.5, 2.0, 4.25])),
        reference_loss_db=draw(st.sampled_from([40.0, 37.5])),
        noise_floor_dbm=draw(st.sampled_from([-94.0, -90.5])),
        spatial_streams=draw(st.integers(1, 4)),
        shadowing_sigma_db=draw(st.sampled_from([0.0, 0.5, 8.0])))
    # One extra ladder rung exactly on the SNR of a decade distance, so
    # some links sit on a threshold (``>=`` must take the rung).
    decade = draw(st.sampled_from([1.0, 10.0, 100.0]))
    rung = (base.snr_db(decade), 100.0)
    table = tuple(sorted(MCS_TABLE_80211N_20MHZ + (rung,)))
    phy = replace(base, mcs_table=table)
    user_xy = np.array(users).reshape(-1, 2)
    return phy, user_xy, exts, seed


class TestRateMatrix:
    @settings(max_examples=max_examples(120), deadline=None)
    @given(_wifi_floors())
    def test_matches_per_link_rates(self, floor):
        phy, users, exts, seed = floor
        assert _same(phy.rate_matrix(users, exts),
                     rate_matrix_scalar(phy, users, exts))

    @settings(max_examples=max_examples(60), deadline=None)
    @given(_wifi_floors())
    def test_shadowing_takes_the_per_link_stream(self, floor):
        phy, users, exts, seed = floor
        fast, slow = (np.random.default_rng(seed) for _ in range(2))
        assert _same(phy.rate_matrix(users, exts, fast),
                     rate_matrix_scalar(phy, users, exts, slow))
        # Both left the generator at the same point of its stream.
        assert fast.random() == slow.random()

    def test_snr_on_a_threshold_takes_its_rung(self):
        # At 10 m: loss 6 + 40 + 35 = 75 dB below 6 dBm, SNR 25 dB, the
        # MCS7 threshold, exactly.
        phy = WifiPhy(tx_power_dbm=6.0, spatial_streams=3)
        assert phy.snr_db(10.0) == 25.0
        rates = phy.rate_matrix(np.array([[10.0, 0.0], [0.0, 0.5]]),
                                np.zeros((1, 2)))
        assert rates.tolist() == [[65.0 * 3], [65.0 * 3]]

    def test_nan_snr_passes_no_threshold(self):
        phy = WifiPhy()
        assert phy.rate_for_snr(float("nan")) == 0.0
        top = phy.mcs_table[-1][1] * phy.spatial_streams
        assert phy.rate_for_snr(np.array([np.nan, 99.0])).tolist() == [
            0.0, top]

    def test_scores_the_matrix_in_one_call(self, monkeypatch):
        shapes = []
        scored = WifiPhy.rate_at_distance

        def spy(self, distance_m, rng=None):
            shapes.append(np.shape(distance_m))
            return scored(self, distance_m, rng)
        monkeypatch.setattr(WifiPhy, "rate_at_distance", spy)
        rng = np.random.default_rng(3)
        WifiPhy(shadowing_sigma_db=4.0).rate_matrix(
            rng.uniform(0, 100, (20, 2)), rng.uniform(0, 100, (5, 2)), rng)
        assert shapes == [(20, 5)]

    @pytest.mark.parametrize("distance", [-1.0, np.nan])
    def test_rejects_a_bad_distance_in_a_matrix(self, distance):
        with pytest.raises(ValueError, match="non-negative"):
            WifiPhy().rate_at_distance(np.array([[3.0, distance]]))

    @settings(max_examples=max_examples(60), deadline=None)
    @given(st.floats(0.0, 400.0), st.integers(0, 2**32 - 1))
    def test_scalar_calls_match_the_scalar_walk(self, distance, seed):
        phy = WifiPhy(shadowing_sigma_db=6.0)
        fast, slow = (np.random.default_rng(seed) for _ in range(2))
        rate = phy.rate_at_distance(distance, fast)
        assert type(rate) is float
        assert rate == rate_at_distance_scalar(phy, distance, slow)


class TestReachability:
    @settings(max_examples=max_examples(60), deadline=None)
    @given(_wifi_floors())
    def test_build_scenario_matches_per_user_fill(self, floor):
        phy, users, exts, seed = floor
        # A short-range PHY leaves most users hearing nothing, so the
        # nearest-extender fill runs on many rows.
        phy = replace(phy, tx_power_dbm=-40.0)
        plan = FloorPlan(width_m=100.0, height_m=100.0, extender_xy=exts,
                         user_xy=users, plc_rates=np.ones(len(exts)))
        fast = build_scenario(plan, phy, np.random.default_rng(seed))
        slow = build_scenario_scalar(plan, phy, np.random.default_rng(seed))
        for field in ("wifi_rates", "plc_rates", "user_ids"):
            assert _same(getattr(fast, field), getattr(slow, field))


def _boundary_attenuations(phy: Av2Phy, carrier: int, bits: int) -> list:
    """Attenuations that put one carrier's SNR on the edge of ``bits``
    bits (``log2(1 + snr/gap)`` exactly ``bits``), and their float
    neighbours."""
    tilt = np.linspace(0.0, 12.0, phy.n_carriers)[carrier]
    # 83 dB: the default -22 dBm carrier PSD over the -105 dBm floor.
    edge = (83.0 - phy.snr_gap_db - float(tilt)
            - 10.0 * np.log10(2.0 ** bits - 1.0))
    return [max(a, 0.0) for a in
            (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))]


@st.composite
def _tone_maps(draw):
    phy = Av2Phy(
        n_carriers=draw(st.one_of(st.integers(1, 64),
                                  st.sampled_from([917, 1155, 3455]))),
        snr_gap_db=draw(st.sampled_from([6.0, 0.0, 3.7, 9.25])),
        max_bits_per_carrier=draw(st.sampled_from([12, 10])))
    atts = draw(st.lists(st.floats(0.0, 150.0), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        atts += _boundary_attenuations(
            phy, draw(st.integers(0, phy.n_carriers - 1)),
            draw(st.integers(1, 12)))
    return phy, atts


class TestToneMap:
    @settings(max_examples=max_examples(120), deadline=None)
    @given(_tone_maps())
    def test_matches_per_link_tone_maps(self, case):
        phy, atts = case
        slow = np.array([tone_map_rate_scalar(phy, a) for a in atts])
        assert _same(phy.rates_for_attenuations(atts), slow)
        for att, rate in zip(atts, slow):
            assert phy.rate_for_attenuation(att) == rate

    @settings(max_examples=max_examples(60), deadline=None)
    @given(_tone_maps(), st.sampled_from([12.0, 0.0, 3.3, 20.5]))
    def test_profile_rows_match_per_link_profiles(self, case, selectivity):
        phy, atts = case
        rows = phy.snr_profile(np.array(atts), selectivity_db=selectivity)
        assert rows.shape == (len(atts), phy.n_carriers)
        for row, att in zip(rows, atts):
            assert _same(row, snr_profile_scalar(
                phy, att, selectivity_db=selectivity))
        # The cached tilt of another selectivity does not leak in.
        for att in atts:
            assert _same(phy.snr_profile(att),
                         snr_profile_scalar(phy, att))

    def test_profiles_do_not_share_the_cached_tilt(self):
        phy = Av2Phy(n_carriers=77)
        a, b = phy.snr_profile(10.0), phy.snr_profile(10.0)
        a += 1.0  # callers own the profile; the cached tilt is untouched
        assert _same(phy.snr_profile(10.0), b)

    def test_rejects_negative_attenuation_anywhere(self):
        with pytest.raises(ValueError, match="non-negative"):
            Av2Phy().rates_for_attenuations([3.0, -1.0])

    def test_noise_capacities_match_per_link_rates(self):
        atts = [10.0, 35.5, 62.0, 0.0]
        model = TimeVaryingPlc(atts, np.random.default_rng(9),
                               noise=[NoiseProcess(impulse_prob=0.5)
                                      for _ in atts])
        assert _same(model.best_case_capacities(), np.array(
            [tone_map_rate_scalar(model.phy, a) for a in atts]))
        for _ in range(5):
            caps = model.step()
            noisy = [float(a + p.excess_noise_db)
                     for a, p in zip(model.attenuations, model.noise)]
            assert _same(caps, np.array(
                [tone_map_rate_scalar(model.phy, a) for a in noisy]))


class TestWiring:
    @settings(max_examples=max_examples(60), deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.one_of(st.none(), st.integers(1, 6)))
    def test_rates_match_per_outlet_searches(self, seed, n_outlets,
                                             n_circuits):
        net = random_building(n_outlets, np.random.default_rng(seed),
                              n_circuits=n_circuits)
        slow = PowerlineNetworkScalar.of(net)
        assert net.outlets == slow.outlets
        assert _same(net.path_attenuations_db(), slow.path_attenuations_db())
        assert _same(net.rates(), slow.rates())
        picked = list(reversed(net.outlets))[::2]
        assert _same(net.path_attenuations_db(picked),
                     slow.path_attenuations_db(picked))
        assert _same(net.rates(picked), slow.rates(picked))

    def test_unwired_outlet_is_rejected(self):
        # outlet-1 names a circuit the panel does not feed.
        with pytest.raises(ValueError, match="junction"):
            PowerlineNetwork(trunk_m=[10.0], junction=[0, 1],
                             drop_m=[5.0, 5.0])


class TestFleetFloors:
    def _spied_service(self, monkeypatch, **kwargs):
        calls = {"rate_at_distance": [], "networkx": 0}
        scored = WifiPhy.rate_at_distance
        networkx_dir = str(Path(nx.__file__).parent)

        def rate_at_distance(self, distance_m, rng=None):
            calls["rate_at_distance"].append(np.ndim(distance_m))
            return scored(self, distance_m, rng)

        def profile(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename.startswith(networkx_dir)):
                calls["networkx"] += 1

        spec = load_fleet_spec(SMOKE)
        with monkeypatch.context() as m:
            m.setattr(WifiPhy, "rate_at_distance", rate_at_distance)
            sys.setprofile(profile)
            try:
                service = FleetService(spec, **kwargs)
            finally:
                sys.setprofile(None)
        return spec, service, calls

    def _check(self, spec, service, calls) -> None:
        # One matrix call per building, no per-link call, and no call
        # into networkx.
        assert calls == {"rate_at_distance": [2] * spec.n_buildings,
                         "networkx": 0}
        for index, bstate in enumerate(service._buildings):
            oracle = build_building_scenario_scalar(spec, index)
            for field in ("wifi_rates", "plc_rates", "user_ids"):
                assert _same(getattr(bstate.scenario, field),
                             getattr(oracle, field)), (index, field)
            assert bstate.scenario.capacities is None
            assert oracle.capacities is None

    def test_cold_construction_builds_oracle_floors(self, monkeypatch):
        spec, service, calls = self._spied_service(monkeypatch)
        with service:
            self._check(spec, service, calls)

    def test_resume_builds_oracle_floors(self, monkeypatch, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        with FleetService(load_fleet_spec(SMOKE), journal=journal) as cold:
            cold.run(2)
        spec, service, calls = self._spied_service(
            monkeypatch, journal=journal, resume=True)
        with service:
            assert service.epoch == 2
            self._check(spec, service, calls)

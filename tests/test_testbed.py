"""Tests for the emulated hardware testbed and the §III measurements."""

from __future__ import annotations

import numpy as np
import pytest

from repro.testbed.calibration import (FIG2B_ISOLATION_MBPS,
                                       sample_isolation_capacities)
from repro.testbed.devices import EmulatedTestbed, Laptop, PlcExtender
from repro.testbed.measurement import (plc_isolation_study,
                                       plc_sharing_study,
                                       wifi_sharing_study)


def _bench(noise=0.0) -> EmulatedTestbed:
    bench = EmulatedTestbed(noise_fraction=noise,
                            rng=np.random.default_rng(0))
    bench.plug_extender(PlcExtender("ext-1", (0.0, 0.0), 100.0))
    bench.plug_extender(PlcExtender("ext-2", (30.0, 0.0), 50.0))
    bench.place_laptop(Laptop("lap-1", (2.0, 0.0)))
    bench.place_laptop(Laptop("lap-2", (28.0, 0.0)))
    return bench


class TestBenchSetup:
    def test_duplicate_devices_rejected(self):
        bench = _bench()
        with pytest.raises(ValueError):
            bench.plug_extender(PlcExtender("ext-1", (0, 0), 10.0))
        with pytest.raises(ValueError):
            bench.place_laptop(Laptop("lap-1", (0, 0)))

    def test_unknown_devices_rejected(self):
        bench = _bench()
        with pytest.raises(KeyError):
            bench.associate("lap-1", "ext-99")
        with pytest.raises(KeyError):
            bench.associate("lap-99", "ext-1")

    def test_negative_plc_rate_rejected(self):
        with pytest.raises(ValueError):
            PlcExtender("x", (0, 0), -5.0)

    def test_scan_ranks_the_nearest_extender_first(self):
        bench = _bench()
        for laptop, nearest in (("lap-1", "ext-1"), ("lap-2", "ext-2")):
            rates = bench.scan(laptop)
            assert max(rates, key=rates.get) == nearest

    def test_unpowered_extender_not_joinable(self):
        bench = _bench()
        bench.unplug_extender("ext-1")
        with pytest.raises(ValueError):
            bench.associate("lap-1", "ext-1")

    def test_scan_reports_only_powered(self):
        bench = _bench()
        bench.unplug_extender("ext-2")
        scan = bench.scan("lap-1")
        assert set(scan) == {"ext-1"}
        assert scan["ext-1"] > 0


class TestIperf:
    def test_wifi_client_measures_concatenated_link(self):
        bench = _bench()
        bench.associate("lap-1", "ext-1")
        tput = bench.iperf_throughput("lap-1")
        wifi_rate = bench.wifi_rate("lap-1", "ext-1")
        assert tput <= min(wifi_rate, 100.0) + 1e-6

    def test_wired_client_measures_plc_only(self):
        bench = _bench()
        bench.wire("lap-1", "ext-1")
        assert bench.iperf_throughput("lap-1") == pytest.approx(100.0)

    def test_two_wired_clients_time_share(self):
        bench = _bench()
        bench.wire("lap-1", "ext-1")
        bench.wire("lap-2", "ext-2")
        samples = {s.laptop: s.throughput_mbps
                   for s in bench.run_iperf()}
        assert samples["lap-1"] == pytest.approx(50.0, rel=0.01)
        assert samples["lap-2"] == pytest.approx(25.0, rel=0.01)

    def test_noise_perturbs_measurements(self):
        noisy = _bench(noise=0.05)
        noisy.wire("lap-1", "ext-1")
        values = {noisy.iperf_throughput("lap-1") for _ in range(5)}
        assert len(values) > 1

    def test_disconnected_laptop_not_measured(self):
        bench = _bench()
        bench.wire("lap-1", "ext-1")
        with pytest.raises(KeyError):
            bench.iperf_throughput("lap-2")

    def test_invalid_duration(self):
        bench = _bench()
        with pytest.raises(ValueError):
            bench.run_iperf(duration_s=0.0)

    def test_unplugged_extender_drops_clients(self):
        bench = _bench()
        bench.wire("lap-1", "ext-1")
        bench.unplug_extender("ext-1")
        assert bench.run_iperf() == []


class TestCalibration:
    def test_sample_range(self, rng):
        caps = sample_isolation_capacities(500, rng)
        assert np.all(caps >= 60.0) and np.all(caps <= 160.0)
        assert caps.std() > 5.0

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            sample_isolation_capacities(0, rng)
        with pytest.raises(ValueError):
            sample_isolation_capacities(5, rng, low_mbps=100.0,
                                        high_mbps=50.0)


class TestMeasurementStudies:
    def test_wifi_sharing_reproduces_anomaly(self):
        result = wifi_sharing_study(rng=np.random.default_rng(0))
        assert result.user1_mbps[0] > result.user1_mbps[-1]
        assert result.user2_mbps[0] > result.user2_mbps[-1]
        for u1, u2 in zip(result.user1_mbps, result.user2_mbps):
            assert u1 == pytest.approx(u2, rel=0.15)

    def test_isolation_study_matches_calibration(self):
        result = plc_isolation_study(rng=np.random.default_rng(0))
        for measured, expected in zip(result.isolation_mbps,
                                      FIG2B_ISOLATION_MBPS):
            assert measured == pytest.approx(expected, rel=0.1)

    def test_sharing_study_one_over_k(self):
        result = plc_sharing_study(rng=np.random.default_rng(0))
        for k in (2, 3, 4):
            for ratio in result.share_ratio(k):
                assert ratio == pytest.approx(1.0 / k, rel=0.12)

    def test_sharing_study_bounds_checked(self):
        with pytest.raises(ValueError):
            plc_sharing_study(capacities=(60.0,), active_counts=(2,))

"""Integration tests: the per-figure experiment modules reproduce the
paper's shape claims at reduced scale (the benchmarks run full scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fig2, fig3, fig4, fig5, fig6
from repro.experiments.common import format_rows, lab_scenario


class TestCommon:
    def test_lab_scenario_shape(self):
        scenario = lab_scenario(seed=0)
        assert scenario.n_extenders == 3
        assert scenario.n_users == 7
        for i in range(7):
            assert len(scenario.reachable(i)) > 0

    def test_lab_scenario_deterministic(self):
        a, b = lab_scenario(1), lab_scenario(1)
        assert np.allclose(a.wifi_rates, b.wifi_rates)

    def test_format_rows(self):
        out = format_rows(["a", "bb"], [(1, 2.5), ("x", "y")])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.50" in lines[2]


class TestFig2:
    def test_fig2a_shape(self):
        result = fig2.run_fig2a(seed=0, mac_sim_time_us=5e5)
        assert result.testbed.user1_mbps[0] > result.testbed.user1_mbps[-1]

    def test_fig2b_values(self):
        result = fig2.run_fig2b(seed=0)
        assert len(result.isolation_mbps) == 4

    def test_fig2c_ratios(self):
        result = fig2.run_fig2c(seed=0, mac_sim_time_us=2e6)
        assert set(result.testbed.shared_mbps) == {2, 3, 4}

    def test_main_formats(self):
        text = fig2.main(seed=0)
        assert "Fig 2a" in text and "Fig 2c" in text


class TestFig3:
    def test_exact_paper_numbers(self):
        result = fig3.run_fig3()
        assert result.rssi_aggregate == pytest.approx(21.82, abs=0.01)
        assert result.greedy_aggregate == pytest.approx(30.0)
        assert result.optimal_aggregate == pytest.approx(40.0)
        assert result.wolt_matches_optimal

    def test_main_formats(self):
        assert "WOLT matches optimal: True" in fig3.main()


class TestFig4:
    def test_fig4a_reduced_scale(self):
        result = fig4.run_fig4a(n_topologies=6, seed=0)
        assert result.mean_mbps["wolt"] > result.mean_mbps["greedy"]
        assert result.mean_mbps["wolt"] > result.mean_mbps["rssi"]
        assert len(result.per_topology) == 6

    def test_fig4a_solves_each_topology_once(self, monkeypatch):
        """Both scoring laws share one decision per topology."""
        import repro.sim.runner as runner

        calls = []
        real = runner.solve_wolt

        def spy(scenario, plc_mode="redistribute"):
            calls.append(plc_mode)
            return real(scenario, plc_mode=plc_mode)

        monkeypatch.setattr(runner, "solve_wolt", spy)
        fig4.run_fig4a(n_topologies=25, seed=0)
        assert len(calls) == 25

    def test_fig4b_fractions_sane(self):
        result = fig4.run_fig4b(n_topologies=6, seed=0)
        for frac in (result.improved_vs_greedy, result.degraded_vs_greedy,
                     result.improved_vs_rssi, result.degraded_vs_rssi):
            assert 0.0 <= frac <= 1.0

    def test_fig4c_fidelity(self):
        result = fig4.run_fig4c(seed=7)
        assert result.max_relative_error < 0.10
        assert len(result.testbed_user_mbps) == 7


class TestFig5:
    def test_shape(self):
        result = fig5.run_fig5(seed=3)
        assert result.best_total_delta_mbps > 0
        assert len(result.worst_wolt_mbps) == 3
        # Worst users under WOLT are indeed its lowest throughputs.
        assert max(result.worst_wolt_mbps) <= min(result.best_wolt_mbps)

    def test_main_formats(self):
        assert "Fig 5a" in fig5.main(seed=3)


class TestFig6:
    def test_fig6a_reduced_scale(self):
        result = fig6.run_fig6a(n_trials=8, seed=0)
        assert result.wolt_wins_all_trials
        assert result.mean_ratio > 1.5
        xs, ys = result.cdf("wolt")
        assert ys[-1] == pytest.approx(1.0)
        assert np.all(np.diff(xs) >= 0)

    def test_fig6bc_dynamics(self):
        result = fig6.run_fig6bc(n_epochs=2, seed=0)
        wolt = result.histories["wolt"]
        assert len(wolt) == 2
        assert result.reassignment_per_arrival <= 2.5
        assert result.series("wolt", "n_users") == [e.n_users
                                                    for e in wolt]

    def test_fairness_ordering(self):
        # 6 trials is too noisy for the ordering; 12 suffices.
        result = fig6.run_fairness(n_trials=12, seed=0)
        assert result.jain["wolt"] > result.jain["greedy"]
        for value in result.jain.values():
            assert 0.0 < value <= 1.0

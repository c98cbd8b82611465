"""Tests for the extension experiment modules (robustness, sweeps)."""

from __future__ import annotations

import pytest

from repro.experiments.faults import run_fault_sweep
from repro.experiments.robustness import run_robustness
from repro.experiments.sweeps import (load_sweep_result,
                                      save_sweep_result,
                                      sweep_extenders, sweep_plc_quality,
                                      sweep_users)
from repro.experiments import robustness, sweeps
from repro.sim.checkpoint import FingerprintMismatch


class TestRobustness:
    def test_structure(self):
        result = run_robustness(noise_levels=(0.0, 0.2), n_trials=3,
                                n_extenders=5, n_users=12, seed=0)
        assert result.noise_levels == (0.0, 0.2)
        assert set(result.mean_mbps) == {"wolt", "greedy", "rssi"}
        assert len(result.wolt_retention) == 2
        assert result.wolt_retention[0] == pytest.approx(1.0)

    def test_wolt_reasonably_robust(self):
        result = run_robustness(noise_levels=(0.0, 0.3), n_trials=4,
                                n_extenders=8, n_users=20, seed=1)
        assert result.wolt_retention[1] >= 0.7

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            run_robustness(noise_levels=(-0.1,), n_trials=1)

    def test_main_formats(self):
        # Patch a tiny run through the module-level main for coverage.
        text = robustness.main(seed=0, n_trials=2)
        assert "robustness" in text.lower()


class TestSweeps:
    def test_extender_sweep_structure(self):
        result = sweep_extenders(extender_counts=(3, 8), n_users=12,
                                 n_trials=2, seed=0)
        assert result.values == (3.0, 8.0)
        assert len(result.ratio_wolt_greedy) == 2
        assert all(r > 0 for r in result.ratio_wolt_rssi)

    def test_user_sweep_structure(self):
        result = sweep_users(user_counts=(10, 20), n_extenders=5,
                             n_trials=2, seed=0)
        assert result.parameter == "n_users"
        assert len(result.ratio_wolt_greedy) == 2

    def test_plc_quality_crossover_direction(self):
        """Scaling capacities up weakly shrinks the WOLT/Greedy gap."""
        result = sweep_plc_quality(capacity_scales=(0.5, 8.0),
                                   n_extenders=6, n_users=18,
                                   n_trials=3, seed=0)
        assert result.ratio_wolt_greedy[0] >= \
            result.ratio_wolt_greedy[1] - 0.2

    def test_main_formats(self):
        text = sweeps.main(seed=0, n_trials=1)
        assert "Sweep over extender count" in text
        assert "WOLT/Greedy" in text


class TestSweepCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        result = sweep_extenders(extender_counts=(3, 5), n_users=10,
                                 n_trials=1, seed=4)
        path = tmp_path / "sweep.json"
        save_sweep_result(path, result, seed=4, n_trials=1)
        loaded = load_sweep_result(path, "n_extenders", seed=4,
                                   n_trials=1)
        assert loaded == result

    def test_mismatched_parameters_rejected(self, tmp_path):
        result = sweep_extenders(extender_counts=(3,), n_users=10,
                                 n_trials=1, seed=4)
        path = tmp_path / "sweep.json"
        save_sweep_result(path, result, seed=4, n_trials=1)
        with pytest.raises(FingerprintMismatch):
            load_sweep_result(path, "n_extenders", seed=5, n_trials=1)

    def test_main_resume_reuses_persisted_sweeps(self, tmp_path):
        cold = sweeps.main(seed=0, n_trials=1)
        first = sweeps.main(seed=0, n_trials=1,
                            checkpoint_dir=tmp_path)
        assert first == cold
        persisted = sorted(p.name for p in tmp_path.iterdir())
        assert persisted == ["sweep_n_extenders.json",
                             "sweep_n_users.json",
                             "sweep_plc_capacity_scale.json"]
        resumed = sweeps.main(seed=0, n_trials=1,
                              checkpoint_dir=tmp_path, resume=True)
        assert resumed == cold


class TestFaultSweep:
    def test_empty_level_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            run_fault_sweep(fault_levels=(), n_trials=1)
        # Rejected before the checkpoint is opened: no journal is left.
        checkpoint = tmp_path / "faults.jsonl"
        with pytest.raises(ValueError, match="non-empty"):
            run_fault_sweep(fault_levels=(), n_trials=1,
                            checkpoint=checkpoint)
        assert not checkpoint.exists()


class TestFaultSweepCheckpointing:
    PARAMS = dict(fault_levels=(0.0, 0.3), n_trials=3, n_extenders=3,
                  n_users=6, seed=9)

    def test_resumed_sweep_bit_identical_to_cold(self, tmp_path):
        checkpoint = tmp_path / "faults.jsonl"
        cold = run_fault_sweep(**self.PARAMS)
        checkpointed = run_fault_sweep(checkpoint=checkpoint,
                                       **self.PARAMS)
        assert checkpointed == cold
        # Drop the last journaled trial, simulating a crash after two
        # of three trials, then resume: bit-identical again.
        lines = checkpoint.read_text().splitlines()
        # woltlint: disable=W008 — deliberately tearing the journal
        checkpoint.write_text("\n".join(lines[:-1]) + "\n")
        resumed = run_fault_sweep(checkpoint=checkpoint, resume=True,
                                  **self.PARAMS)
        assert resumed == cold

    def test_mismatched_parameters_rejected(self, tmp_path):
        checkpoint = tmp_path / "faults.jsonl"
        run_fault_sweep(checkpoint=checkpoint, **self.PARAMS)
        other = dict(self.PARAMS, seed=10)
        with pytest.raises(FingerprintMismatch):
            run_fault_sweep(checkpoint=checkpoint, resume=True, **other)

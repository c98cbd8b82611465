"""Tests for the extension experiment modules (robustness, sweeps)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.faults import run_fault_sweep
from repro.experiments.robustness import run_robustness
from repro.experiments.sweeps import (SweepResult, sweep_extenders,
                                      sweep_plc_quality, sweep_users)
from repro.experiments import faults, robustness, sweeps
from repro.experiments.common import wolt_retention
from repro.sim.checkpoint import CheckpointExists, FingerprintMismatch


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

    @pytest.mark.parametrize("kwargs", [
        {"noise_levels": ()}, {"n_trials": 0}, {"n_trials": -2}])
    def test_empty_sweep_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            run_robustness(**kwargs)

    def test_levels_above_one_are_valid(self):
        result = run_robustness(noise_levels=(0.0, 1.5), n_trials=1,
                                n_extenders=3, n_users=6, seed=0)
        assert result.noise_levels == (0.0, 1.5)

    @pytest.mark.parametrize("levels, wolt, want", [
        ((0.0, 0.2), (80.0, 60.0), (1.0, 0.75)),
        ((0.2, 0.0, 0.4), (60.0, 80.0, 40.0), (0.75, 1.0, 0.5)),
        ((0.1, 0.3), (50.0, 25.0), (1.0, 0.5))],
        ids=["zero-first", "zero-inside", "no-zero"])
    def test_retention_is_relative_to_level_zero(self, levels, wolt, want):
        assert wolt_retention(levels, wolt) == want

    def test_retention_is_the_fault_sweeps_rule(self):
        result = run_robustness(noise_levels=(0.1, 0.0), n_trials=1,
                                n_extenders=3, n_users=6, seed=0)
        assert faults.wolt_retention is wolt_retention
        assert result.wolt_retention == wolt_retention(
            result.noise_levels, result.mean_mbps["wolt"])
        assert result.wolt_retention[1] == 1.0

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

    @pytest.mark.parametrize("kwargs", [
        {"extender_counts": ()}, {"n_trials": 0}])
    def test_empty_sweep_rejected_up_front(self, kwargs):
        with pytest.raises(ValueError):
            sweep_extenders(**kwargs)

    def test_bad_trial_count_writes_no_journal(self, tmp_path):
        path = tmp_path / "sweeps.jsonl"
        with pytest.raises(ValueError, match="n_trials"):
            sweeps.main(n_trials=0, checkpoint=path)
        assert not path.exists()

    def test_main_formats(self):
        text = sweeps.main(seed=0, n_trials=1)
        assert "Sweep over extender count" in text
        assert "WOLT/Greedy" in text


def _recomputed(**kwargs):
    raise AssertionError("a journaled sweep was recomputed")


def _killed(**kwargs):
    raise RuntimeError("killed mid-sweep")


def _stand_in(**kwargs):
    return SweepResult("n", (1.0,), (2.0,), (3.0,))


class TestSweepCheckpointing:
    def test_each_sweep_is_one_journal_record(self, tmp_path):
        path = tmp_path / "sweeps.jsonl"
        assert sweeps.main(seed=0, n_trials=1, checkpoint=path) == \
            sweeps.main(seed=0, n_trials=1)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["params"] == {"kind": "sweeps", "seed": 0,
                                      "n_trials": 1}
        assert [(entry["index"], entry["payload"]["parameter"])
                for entry in lines[1:]] == [
            (0, "n_extenders"), (1, "n_users"),
            (2, "plc_capacity_scale")]

    def test_main_resume_reuses_persisted_sweeps(self, tmp_path,
                                                monkeypatch):
        cold = sweeps.main(seed=0, n_trials=1)
        path = tmp_path / "sweeps.jsonl"
        sweeps.main(seed=0, n_trials=1, checkpoint=path)
        journal = path.read_bytes()
        for name in ("sweep_extenders", "sweep_users",
                     "sweep_plc_quality"):
            monkeypatch.setattr(sweeps, name, _recomputed)
        assert sweeps.main(seed=0, n_trials=1, checkpoint=path,
                           resume=True) == cold
        assert path.read_bytes() == journal

    def test_killed_run_recomputes_only_unfinished_sweeps(self, tmp_path,
                                                         monkeypatch):
        cold = sweeps.main(seed=0, n_trials=1)
        cold_path = tmp_path / "cold.jsonl"
        sweeps.main(seed=0, n_trials=1, checkpoint=cold_path)
        path = tmp_path / "killed.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "sweep_users", _killed)
            with pytest.raises(RuntimeError, match="killed"):
                sweeps.main(seed=0, n_trials=1, checkpoint=path)
        monkeypatch.setattr(sweeps, "sweep_extenders", _recomputed)
        assert sweeps.main(seed=0, n_trials=1, checkpoint=path,
                           resume=True) == cold
        assert path.read_bytes() == cold_path.read_bytes()

    def test_mismatched_parameters_rejected(self, tmp_path):
        path = tmp_path / "sweeps.jsonl"
        sweeps.main(seed=4, n_trials=1, checkpoint=path)
        with pytest.raises(FingerprintMismatch):
            sweeps.main(seed=5, n_trials=1, checkpoint=path,
                        resume=True)
        with pytest.raises(CheckpointExists):
            sweeps.main(seed=4, n_trials=1, checkpoint=path)

    def test_trial_count_is_in_the_fingerprint(self, tmp_path,
                                               monkeypatch):
        for name in ("sweep_extenders", "sweep_users",
                     "sweep_plc_quality"):
            monkeypatch.setattr(sweeps, name, _stand_in)
        path = tmp_path / "sweeps.jsonl"
        sweeps.main(seed=0, n_trials=1, checkpoint=path)
        journal = path.read_bytes()
        with pytest.raises(FingerprintMismatch):
            sweeps.main(seed=0, n_trials=2, checkpoint=path, resume=True)
        assert path.read_bytes() == journal


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

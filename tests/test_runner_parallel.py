"""Parallel trial runner: worker count must never change the science.

``run_trials(workers=N)`` must return bit-identical results to the
serial run for any ``N`` (per-trial ``SeedSequence`` children make each
trial's stream independent of execution order), and worker exceptions
must propagate to the caller instead of silently dropping trials.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import checkpoint as checkpoint_mod
from repro.sim import runner
from repro.sim.runner import run_trials

from .oracles import SleepSchedule

N_TRIALS = 6
SCALE = dict(n_extenders=4, n_users=8, seed=424242)
POLICIES = ("wolt", "greedy", "rssi", "random")


def _assert_trials_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.scenario.wifi_rates, b.scenario.wifi_rates)
        assert np.array_equal(a.scenario.plc_rates, b.scenario.plc_rates)
        assert set(a.outcomes) == set(b.outcomes)
        for policy in a.outcomes:
            oa, ob = a.outcomes[policy], b.outcomes[policy]
            assert np.array_equal(oa.assignment, ob.assignment), policy
            assert oa.aggregate_throughput == ob.aggregate_throughput
            assert oa.jain_fairness == ob.jain_fairness
            assert np.array_equal(oa.user_throughputs, ob.user_throughputs)


class TestBitIdenticalAcrossWorkerCounts:
    def test_workers_4_matches_serial(self):
        serial = run_trials(N_TRIALS, policies=POLICIES, **SCALE)
        parallel = run_trials(N_TRIALS, policies=POLICIES, workers=4,
                              **SCALE)
        _assert_trials_identical(serial, parallel)

    def test_workers_2_matches_workers_3(self):
        two = run_trials(N_TRIALS, policies=("wolt", "rssi"), workers=2,
                         **SCALE)
        three = run_trials(N_TRIALS, policies=("wolt", "rssi"), workers=3,
                           **SCALE)
        _assert_trials_identical(two, three)

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_degenerate_worker_counts_run_serially(self, workers):
        trials = run_trials(2, policies=("rssi",), workers=workers, **SCALE)
        assert len(trials) == 2

    def test_different_seeds_differ(self):
        a = run_trials(2, n_extenders=4, n_users=8, seed=1,
                       policies=("rssi",))
        b = run_trials(2, n_extenders=4, n_users=8, seed=2,
                       policies=("rssi",))
        assert not np.array_equal(a[0].scenario.wifi_rates,
                                  b[0].scenario.wifi_rates)

    def test_trials_are_statistically_independent(self):
        trials = run_trials(3, policies=("rssi",), **SCALE)
        assert not np.array_equal(trials[0].scenario.wifi_rates,
                                  trials[1].scenario.wifi_rates)
        assert not np.array_equal(trials[1].scenario.wifi_rates,
                                  trials[2].scenario.wifi_rates)


class TestSubmissionOrderIndependence:
    def test_out_of_order_completion_reemits_in_submission_order(
            self, tmp_path, monkeypatch):
        """Chunk completion order must never leak into the results.

        Trial 0 sleeps while trials 1+ finish instantly, so with
        single-trial chunks (six trials on three workers) the
        completions *must* arrive out of submission order (asserted via
        a journal spy) — yet the returned list and the compacted
        journal are identical to the serial run.
        """
        seen = []
        original_append = checkpoint_mod.TrialStore.append

        def spy(self, index, payload):
            seen.append(index)
            return original_append(self, index, payload)

        monkeypatch.setattr(checkpoint_mod.TrialStore, "append", spy)
        serial_path = tmp_path / "serial.jsonl"
        serial = run_trials(N_TRIALS, policies=("rssi",),
                            checkpoint=serial_path, **SCALE)
        assert seen == list(range(N_TRIALS))  # serial: submission order
        seen.clear()
        skewed_path = tmp_path / "skewed.jsonl"
        skewed = run_trials(
            N_TRIALS, policies=("rssi",), workers=3,
            fault_hook=SleepSchedule({0: 1.5}), checkpoint=skewed_path,
            **SCALE)
        assert sorted(seen) == list(range(N_TRIALS))
        assert seen != list(range(N_TRIALS))  # completed out of order
        assert seen[-1] == 0  # the slept trial finished last
        _assert_trials_identical(serial, skewed)  # ...results in order
        assert serial_path.read_bytes() == skewed_path.read_bytes()

    def test_chunked_dispatch_preserves_order_without_checkpoint(self):
        plain = run_trials(N_TRIALS, policies=("rssi",), **SCALE)
        # Six trials on two workers ship as 2-trial chunks.
        skewed = run_trials(N_TRIALS, policies=("rssi",), workers=2,
                            fault_hook=SleepSchedule({1: 0.6}),
                            max_retries=0, **SCALE)
        _assert_trials_identical(plain, skewed)


class TestErrorPropagation:
    def test_unknown_policy_rejected_before_dispatch(self):
        with pytest.raises(ValueError, match="unknown policies"):
            run_trials(2, n_extenders=3, n_users=4,
                       policies=("wolt", "psychic"), workers=4)

    def test_worker_exception_propagates(self):
        # A genuinely invalid trial (negative user count) blows up inside
        # the worker process; pool.map must re-raise it at the caller.
        with pytest.raises(ValueError):
            run_trials(2, n_extenders=3, n_users=-1, policies=("rssi",),
                       workers=2)

    def test_serial_exception_propagates(self, monkeypatch):
        def boom(config, spec):
            raise RuntimeError("trial exploded")

        monkeypatch.setattr(runner, "_run_single_trial", boom)
        with pytest.raises(RuntimeError, match="trial exploded"):
            run_trials(2, n_extenders=3, n_users=4, policies=("rssi",))

"""Durable sweep orchestration: checkpoint/resume, timeouts, signals.

The contract under test (see ``docs/ROBUSTNESS.md``):

* a checkpointed run killed at an arbitrary point (SIGKILL of the whole
  process, SIGKILL of one worker, a truncated journal tail) and then
  resumed is **bit-identical** to an uninterrupted run, across worker
  counts;
* a hung trial is reaped within a bounded wall-clock budget and
  recorded as an explicit :class:`~repro.sim.dispatch.WorkFailure`
  without stalling or losing the other trials;
* SIGINT/SIGTERM drain gracefully: completed trials are returned with
  an explicit ``interrupted`` marker and the journal stays resumable;
* argument validation fails fast (duplicate policies, bad trial
  counts, unknown policy names).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.sim.checkpoint import CheckpointExists, FingerprintMismatch
from repro.sim.faults import CrashSchedule
from repro.sim.dispatch import WorkFailure
from repro.sim.runner import (POOL_ERROR_TYPE, TIMEOUT_ERROR_TYPE,
                              _run_fingerprint, run_online_comparison,
                              run_trials, shutdown_warm_pools)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Small, fast sweep parameters shared by every test in this module.
SCALE = dict(n_extenders=3, n_users=6, seed=11, plc_mode="fixed")
POLICIES = ("wolt", "greedy")
N_TRIALS = 6


def _assert_runs_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert type(ra) is type(rb)
        if isinstance(ra, WorkFailure):
            assert ra == rb
            continue
        assert np.array_equal(ra.scenario.wifi_rates,
                              rb.scenario.wifi_rates)
        assert np.array_equal(ra.scenario.plc_rates,
                              rb.scenario.plc_rates)
        assert set(ra.outcomes) == set(rb.outcomes)
        for policy in ra.outcomes:
            oa, ob = ra.outcomes[policy], rb.outcomes[policy]
            assert oa.aggregate_throughput == ob.aggregate_throughput
            assert oa.jain_fairness == ob.jain_fairness
            assert np.array_equal(oa.user_throughputs,
                                  ob.user_throughputs)
            assert np.array_equal(oa.assignment, ob.assignment)


def _cold_run():
    return run_trials(N_TRIALS, policies=POLICIES, **SCALE)


@dataclass(frozen=True)
class KillWorkerOnce:
    """Fault hook that SIGKILLs its worker process once (flag-gated).

    The flag file carries the once-only state across the pool recycle:
    the retried attempt sees the flag and runs clean.  Must stay
    picklable (module-level dataclass) for the process pool.
    """

    trial: int
    flag: str

    def __call__(self, trial_index: int, attempt: int) -> None:
        if trial_index == self.trial and not os.path.exists(self.flag):
            with open(self.flag, "w") as handle:
                handle.write("killed\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class InterruptAt:
    """Fault hook that delivers a signal to the running process."""

    trial: int
    signum: int

    def __call__(self, trial_index: int, attempt: int) -> None:
        if trial_index == self.trial:
            os.kill(os.getpid(), self.signum)


#: Driver executed in a subprocess and SIGKILLed mid-sweep: the hook
#: kills the *whole process* at the start of trial 3, after trials
#: 0-2 have been journaled.
_KILLED_SWEEP_DRIVER = textwrap.dedent("""
    import os, signal, sys

    from repro.sim.runner import run_trials

    def kill_at_three(trial_index, attempt):
        if trial_index == 3:
            os.kill(os.getpid(), signal.SIGKILL)

    run_trials({n_trials}, n_extenders={n_extenders}, n_users={n_users},
               policies={policies!r}, seed={seed},
               plc_mode={plc_mode!r}, checkpoint=sys.argv[1],
               fault_hook=kill_at_three)
""")


def _run_killed_sweep(checkpoint: Path) -> None:
    """SIGKILL a checkpointed serial sweep mid-run, in a subprocess."""
    script = _KILLED_SWEEP_DRIVER.format(
        n_trials=N_TRIALS, policies=POLICIES, **SCALE)
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(checkpoint)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert checkpoint.exists()


class TestCrashResume:
    def test_sigkilled_sweep_resumes_bit_identical(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        _run_killed_sweep(checkpoint)
        resumed = run_trials(N_TRIALS, policies=POLICIES,
                             checkpoint=checkpoint, resume=True,
                             **SCALE)
        assert resumed.resumed == 3  # trials 0-2 survived the SIGKILL
        assert resumed.interrupted is None
        _assert_runs_identical(_cold_run(), resumed)

    def test_resume_under_workers_matches_cold_serial(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        _run_killed_sweep(checkpoint)
        resumed = run_trials(N_TRIALS, policies=POLICIES, workers=2,
                             checkpoint=checkpoint, resume=True,
                             **SCALE)
        _assert_runs_identical(_cold_run(), resumed)

    def test_resume_tolerates_truncated_tail(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        _run_killed_sweep(checkpoint)
        with open(checkpoint, "ab") as handle:
            handle.write(b'{"kind":"record","index":5,"payl')
        resumed = run_trials(N_TRIALS, policies=POLICIES,
                             checkpoint=checkpoint, resume=True,
                             **SCALE)
        _assert_runs_identical(_cold_run(), resumed)

    def test_resume_of_complete_run_recomputes_nothing(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        first = run_trials(N_TRIALS, policies=POLICIES,
                           checkpoint=checkpoint, **SCALE)
        again = run_trials(
            N_TRIALS, policies=POLICIES, checkpoint=checkpoint,
            resume=True,
            fault_hook=InterruptAt(0, signal.SIGTERM),  # must not run
            **SCALE)
        assert again.resumed == N_TRIALS
        _assert_runs_identical(first, again)

    def test_checkpointed_runs_snapshot_byte_identically(self,
                                                         tmp_path):
        serial, parallel = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=serial,
                   **SCALE)
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=parallel,
                   workers=2, **SCALE)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_warm_pool_reuse_stays_bit_identical(self, tmp_path):
        """Back-to-back pool runs (2nd on a warm pool) match byte-wise."""
        shutdown_warm_pools()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=first,
                   workers=2, **SCALE)
        # The pool survives run_trials; this run leases it warm.
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=second,
                   workers=2, **SCALE)
        assert first.read_bytes() == second.read_bytes()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        params = dict(SCALE)
        run_trials(2, policies=POLICIES, checkpoint=checkpoint,
                   **params)
        params["seed"] = 999
        with pytest.raises(FingerprintMismatch):
            run_trials(2, policies=POLICIES, checkpoint=checkpoint,
                       resume=True, **params)

    def test_existing_checkpoint_without_resume_rejected(self,
                                                         tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        run_trials(2, policies=POLICIES, checkpoint=checkpoint, **SCALE)
        with pytest.raises(CheckpointExists):
            run_trials(2, policies=POLICIES, checkpoint=checkpoint,
                       **SCALE)


class TestWorkerCrashSupervision:
    def test_sigkilled_worker_is_retried_bit_identically(self,
                                                         tmp_path):
        hook = KillWorkerOnce(trial=2, flag=str(tmp_path / "flag"))
        survived = run_trials(N_TRIALS, policies=POLICIES, workers=2,
                              max_retries=1, fault_hook=hook, **SCALE)
        assert not any(isinstance(t, WorkFailure) for t in survived)
        _assert_runs_identical(_cold_run(), survived)

    def test_repeatedly_dying_trial_becomes_explicit_failure(self,
                                                             tmp_path):
        # No flag file is ever written with flag="" ... use a hook that
        # always kills its worker on one trial: the retry budget runs
        # out and the trial is recorded as a pool failure while every
        # other trial survives.
        hook = InterruptAt(2, signal.SIGKILL)
        result = run_trials(N_TRIALS, policies=POLICIES, workers=2,
                            max_retries=1, fault_hook=hook, **SCALE)
        failures = [t for t in result if isinstance(t, WorkFailure)]
        assert [f.index for f in failures] == [2]
        assert failures[0].error_type == POOL_ERROR_TYPE
        cold = _cold_run()
        survivors = [t for t in result
                     if not isinstance(t, WorkFailure)]
        expected = [t for i, t in enumerate(cold) if i != 2]
        _assert_runs_identical(expected, survivors)

    def test_failure_record_keeps_its_journal_line(self, tmp_path):
        # A trial that exhausts its retries journals the line the
        # format has always used (the index under "trial_index") and
        # resumes as the same WorkFailure.
        checkpoint = tmp_path / "run.jsonl"
        run_trials(3, 3, 4, policies=("rssi",), seed=2,
                   checkpoint=checkpoint, max_retries=1,
                   fault_hook=CrashSchedule({1: 5}))
        assert checkpoint.read_text().splitlines()[2] == (
            '{"index":1,"kind":"record","payload":{"attempts":2,'
            '"error":"InjectedCrash(\'injected crash: trial 1, '
            'attempt 1\')","error_type":"InjectedCrash",'
            '"trial_index":1,"type":"failure"}}')
        resumed = run_trials(3, 3, 4, policies=("rssi",), seed=2,
                             checkpoint=checkpoint, resume=True)
        assert resumed[1] == WorkFailure(
            index=1, attempts=2, error_type="InjectedCrash",
            error="InjectedCrash('injected crash: trial 1, attempt 1')")


class TestTimeouts:
    def test_hung_trial_reaped_within_bounded_wallclock(self, tmp_path):
        # Trial 2 hangs hard (a 300 s sleep a SIGKILL can interrupt);
        # with a 1.5 s deadline the whole 5-trial sweep must still end
        # far sooner than the hang, with the hung trial an explicit
        # timeout failure and every other trial bit-identical to cold.
        hang = CrashSchedule(crashes={}, hangs={2: 1}, hang_s=300.0)
        start = time.monotonic()
        result = run_trials(5, policies=POLICIES, workers=2,
                            timeout_s=1.5, fault_hook=hang, **SCALE)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0  # bounded: deadline + reap, not 300 s
        failures = [t for t in result if isinstance(t, WorkFailure)]
        assert [f.index for f in failures] == [2]
        assert failures[0].error_type == TIMEOUT_ERROR_TYPE
        cold = run_trials(5, policies=POLICIES, **SCALE)
        survivors = [t for t in result
                     if not isinstance(t, WorkFailure)]
        expected = [t for i, t in enumerate(cold) if i != 2]
        _assert_runs_identical(expected, survivors)

    def test_timeout_failure_is_journaled_and_not_rerun(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        hang = CrashSchedule(crashes={}, hangs={1: 1}, hang_s=300.0)
        run_trials(3, policies=POLICIES, workers=2, timeout_s=1.5,
                   checkpoint=checkpoint, fault_hook=hang, **SCALE)
        resumed = run_trials(3, policies=POLICIES, checkpoint=checkpoint,
                             resume=True, **SCALE)
        assert resumed.resumed == 3
        failures = [t for t in resumed if isinstance(t, WorkFailure)]
        assert [f.index for f in failures] == [1]
        assert failures[0].error_type == TIMEOUT_ERROR_TYPE

    def test_timeout_requires_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_trials(2, policies=POLICIES, timeout_s=1.0, **SCALE)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout_s"):
            run_trials(2, policies=POLICIES, workers=2, timeout_s=0.0,
                       **SCALE)


class TestGracefulSignals:
    def test_sigint_returns_partial_results_with_marker(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        result = run_trials(N_TRIALS, policies=POLICIES,
                            checkpoint=checkpoint,
                            fault_hook=InterruptAt(2, signal.SIGINT),
                            **SCALE)
        assert result.interrupted == "SIGINT"
        # Trial 2's hook fires before its body; the handler only sets a
        # flag, so trial 2 still completes and the loop stops after it.
        assert len(result) == 3
        _assert_runs_identical(_cold_run()[:3], result)
        # The journal keeps an explicit interruption marker for
        # forensics (dropped by the final snapshot after resume).
        assert '"event":"interrupted"' in checkpoint.read_text()
        assert '"signal":"SIGINT"' in checkpoint.read_text()

    def test_interrupted_run_resumes_to_completion(self, tmp_path):
        checkpoint = tmp_path / "run.jsonl"
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=checkpoint,
                   fault_hook=InterruptAt(2, signal.SIGTERM), **SCALE)
        resumed = run_trials(N_TRIALS, policies=POLICIES,
                             checkpoint=checkpoint, resume=True,
                             **SCALE)
        assert resumed.interrupted is None
        assert resumed.resumed == 3
        _assert_runs_identical(_cold_run(), resumed)
        # The completing run compacted the journal: marker gone.
        assert "interrupted" not in checkpoint.read_text()


@pytest.fixture(scope="module")
def baseline_journal(tmp_path_factory):
    """Canonical snapshot bytes of a cold, serial, clean reference run."""
    path = tmp_path_factory.mktemp("baseline") / "cold.jsonl"
    run_trials(N_TRIALS, policies=POLICIES, checkpoint=path, **SCALE)
    return path.read_bytes()


def _pin_chunk_size(monkeypatch, chunk_size):
    """Make the dispatcher ship ``chunk_size``-trial chunks.

    ``None`` leaves the automatic size (about two waves per worker).
    """
    if chunk_size is not None:
        monkeypatch.setattr("repro.sim.dispatch._auto_chunk_size",
                            lambda n_pending, workers: chunk_size)


class TestDispatchBitIdentityMatrix:
    """Dispatch shape must never leak into the journal bytes.

    The matrix: workers x chunk size x {cold, checkpoint+resume} x
    {clean, fault-injected} all compact to the byte-identical canonical
    snapshot of the serial reference run.  The chunk size is the
    dispatcher's own choice, pinned here to 1 or 3 trials or left
    automatic (six trials ship as 2-trial chunks on two workers and as
    single trials on four; one worker runs in-process).  Chunking, warm
    pools, retries and resume are *operational* concerns; the journal
    is science.
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_cold_clean_runs(self, tmp_path, monkeypatch,
                             baseline_journal, workers, chunk_size):
        _pin_chunk_size(monkeypatch, chunk_size)
        path = tmp_path / "run.jsonl"
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=path,
                   workers=workers, **SCALE)
        assert path.read_bytes() == baseline_journal

    @pytest.mark.parametrize("workers,chunk_size",
                             [(1, 1), (2, 3), (4, None)])
    def test_resumed_runs(self, tmp_path, monkeypatch, baseline_journal,
                          workers, chunk_size):
        _pin_chunk_size(monkeypatch, chunk_size)
        path = tmp_path / "run.jsonl"
        _run_killed_sweep(path)  # journals trials 0-2, then SIGKILL
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=path,
                   resume=True, workers=workers, **SCALE)
        assert path.read_bytes() == baseline_journal

    @pytest.mark.parametrize("workers,chunk_size", [(2, 2), (4, 3)])
    def test_fault_injected_runs(self, tmp_path, monkeypatch,
                                 baseline_journal, workers, chunk_size):
        # Trials 1 and 4 crash once each; the retried attempts rerun
        # with the same SeedSequence children, so the compacted journal
        # still matches the clean serial baseline byte for byte.
        _pin_chunk_size(monkeypatch, chunk_size)
        hook = CrashSchedule(crashes={1: 1, 4: 1})
        path = tmp_path / "run.jsonl"
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=path,
                   workers=workers, max_retries=2, fault_hook=hook,
                   **SCALE)
        assert path.read_bytes() == baseline_journal

    @pytest.mark.parametrize("workers,chunk_size", [(2, 3), (2, None)])
    def test_resumed_fault_injected_runs(self, tmp_path, monkeypatch,
                                         baseline_journal, workers,
                                         chunk_size):
        _pin_chunk_size(monkeypatch, chunk_size)
        hook = CrashSchedule(crashes={4: 1})
        path = tmp_path / "run.jsonl"
        _run_killed_sweep(path)
        run_trials(N_TRIALS, policies=POLICIES, checkpoint=path,
                   resume=True, workers=workers, max_retries=2,
                   fault_hook=hook, **SCALE)
        assert path.read_bytes() == baseline_journal


def test_fingerprint_digest_is_pinned():
    # Every trial draws the paper's 100 m x 100 m floor with the default
    # PHY; the fingerprint still records those values under their old
    # keys, so a checkpoint written while they were settable resumes.
    digest, params = _run_fingerprint(100, 15, 36, ("wolt", "greedy",
                                                    "rssi"), 0, "fixed")
    assert digest == ("78ac2358b09d79451b30f6b6477cd338"
                      "2c946fd74c09ca33beb27253fc7cfcfd")
    assert (params["width_m"], params["height_m"], params["phy"]) == (
        100.0, 100.0, None)


class TestArgumentValidation:
    def test_duplicate_policies_rejected(self):
        with pytest.raises(ValueError, match="duplicate policies"):
            run_trials(2, policies=("wolt", "greedy", "wolt"), **SCALE)

    def test_negative_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(-1, policies=POLICIES, **SCALE)

    def test_zero_trials_is_a_valid_empty_run(self):
        result = run_trials(0, policies=POLICIES, **SCALE)
        assert list(result) == []
        assert result.interrupted is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policies"):
            run_trials(2, policies=("wolt", "nope"), **SCALE)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="resume"):
            run_trials(2, policies=POLICIES, resume=True, **SCALE)

    def test_online_comparison_validates_policies_up_front(self):
        with pytest.raises(ValueError, match="unknown policies"):
            run_online_comparison(n_epochs=1, n_extenders=3,
                                  initial_users=4,
                                  policies=("wolt", "gredy"))

    def test_online_comparison_rejects_offline_only_policy_up_front(
            self, monkeypatch):
        # "random" is a run_trials policy the controller does not
        # implement: it must fail before any floor is sampled, not
        # after the earlier policies' full simulations.
        def no_floor(*args, **kwargs):
            raise AssertionError("a floor was sampled before validation")

        monkeypatch.setattr("repro.sim.runner.sample_floor_plan", no_floor)
        with pytest.raises(ValueError, match="unknown policies"):
            run_online_comparison(n_epochs=1, n_extenders=3,
                                  initial_users=4,
                                  policies=("wolt", "random"))

"""Tests for the campus FleetService: epoch atomicity, dry-run
semantics, journal/resume bit-identity, shard-failure carry-forward,
quarantine masking, and the ``wolt serve`` CLI (golden-file stable)."""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import CHECKPOINT_ERROR_EXIT, main
from repro.core.problem import UNASSIGNED
from repro.fleet import parse_fleet_spec
from repro.fleet.service import FleetService, format_epoch
from repro.sim.checkpoint import CheckpointError
from repro.sim.dispatch import InterruptState, WorkFailure

DATA = Path(__file__).parent / "data"

SMOKE = """
fleet: {name: smoke, seed: 7, plc_mode: redistribute}
buildings:
  - {name: hq, extenders: 4, users: 8, circuits: [a, a, b, b]}
generate:
  - {prefix: b, count: 2, extenders: 3, users: 5}
telemetry: {wifi_jitter: 0.03, plc_jitter: 0.08}
"""


def smoke_spec(**head):
    spec = parse_fleet_spec(SMOKE)
    if not head:
        return spec
    from repro.fleet.spec import FleetSpec
    values = {"name": spec.name, "seed": spec.seed,
              "plc_mode": spec.plc_mode, "buildings": spec.buildings,
              "telemetry": spec.telemetry, "health": spec.health}
    values.update(head)
    return FleetSpec(**values)


class TestEpochLoop:
    def test_epoch_applies_and_advances(self):
        service = FleetService(smoke_spec())
        report = service.run_epoch()
        assert report.epoch == 0
        assert report.applied
        assert service.epoch == 1
        assert report.aggregate_mbps > 0
        assert all((b.assignment != UNASSIGNED).any()
                   for b in service._buildings)
        # Every user got an initial placement directive.
        assert len(report.directives) == service.spec.n_users

    def test_epochs_are_deterministic(self):
        a = FleetService(smoke_spec())
        b = FleetService(smoke_spec())
        for _ in range(3):
            assert (format_epoch(a.run_epoch())
                    == format_epoch(b.run_epoch()))

    def test_parallel_dispatch_is_bit_identical(self):
        serial = FleetService(smoke_spec())
        parallel = FleetService(smoke_spec(), workers=2)
        for _ in range(2):
            assert (format_epoch(serial.run_epoch())
                    == format_epoch(parallel.run_epoch()))

    def test_run_validates_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            FleetService(smoke_spec()).run(0)


class TestDryRun:
    def test_dry_run_applies_nothing(self):
        service = FleetService(smoke_spec())
        before = [b.assignment.copy() for b in service._buildings]
        report = service.run_epoch(dry_run=True)
        assert not report.applied
        for state, old in zip(service._buildings, before):
            np.testing.assert_array_equal(state.assignment, old)

    def test_dry_run_still_advances_the_world(self):
        # The epoch counter and telemetry move; associations do not.
        service = FleetService(smoke_spec())
        first = service.run_epoch(dry_run=True)
        second = service.run_epoch(dry_run=True)
        assert (first.epoch, second.epoch) == (0, 1)
        assert format_epoch(first) != format_epoch(second)

    def test_dry_run_writes_no_journal_records(self, tmp_path):
        journal = os.fspath(tmp_path / "fleet.jsonl")
        with FleetService(smoke_spec(), journal=journal) as service:
            service.run_epoch(dry_run=True)
            assert service._store is not None
            assert service._store.records == {}


class TestJournalResume:
    def test_resume_continues_bit_identically(self, tmp_path):
        journal = os.fspath(tmp_path / "fleet.jsonl")
        straight = FleetService(smoke_spec())
        expected = [format_epoch(straight.run_epoch())
                    for _ in range(4)]
        with FleetService(smoke_spec(), journal=journal) as first:
            got = [format_epoch(first.run_epoch()) for _ in range(2)]
        with FleetService(smoke_spec(), journal=journal,
                          resume=True) as second:
            assert second.epoch == 2
            got += [format_epoch(second.run_epoch())
                    for _ in range(2)]
        assert got == expected

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            FleetService(smoke_spec(), resume=True)

    def test_changed_spec_is_rejected(self, tmp_path):
        journal = os.fspath(tmp_path / "fleet.jsonl")
        with FleetService(smoke_spec(), journal=journal) as service:
            service.run_epoch()
        with pytest.raises(CheckpointError):
            FleetService(smoke_spec(seed=8), journal=journal,
                         resume=True)


class TestInterruption:
    def test_interrupted_epoch_is_discarded_whole(self):
        service = FleetService(smoke_spec())
        service.run_epoch()
        before = [b.assignment.copy() for b in service._buildings]
        state = InterruptState()
        state.signal_name = "SIGINT"
        assert service.run_epoch(state=state) is None
        assert service.epoch == 1  # the discarded epoch will re-run
        for bstate, old in zip(service._buildings, before):
            np.testing.assert_array_equal(bstate.assignment, old)

    def test_run_reports_the_signal_and_journals_it(self, tmp_path):
        journal = os.fspath(tmp_path / "fleet.jsonl")
        state = InterruptState()
        state.signal_name = "SIGTERM"
        with FleetService(smoke_spec(), journal=journal) as service:
            reports, interrupted = service.run(3, state=state)
            assert (reports, interrupted) == ([], "SIGTERM")
            events = [e for e in service._store.events
                      if e.get("event") == "interrupted"]
            assert events and events[-1]["signal"] == "SIGTERM"


class TestShardFailureCarryForward:
    def test_failed_shard_keeps_previous_association(self, monkeypatch):
        import repro.fleet.service as service_mod
        service = FleetService(smoke_spec())
        service.run_epoch()
        before = service._buildings[0].assignment.copy()
        real = service_mod._solve_shard

        def flaky(plc_mode, spec):
            if spec.item.building == 0:
                return WorkFailure(index=spec.index, attempts=1,
                                   error_type="RuntimeError",
                                   error="injected shard failure")
            return real(plc_mode, spec)

        monkeypatch.setattr(service_mod, "_solve_shard", flaky)
        report = service.run_epoch()
        assert report.n_shard_failures >= 1
        hq = report.buildings[0]
        assert hq.n_shard_failures == hq.n_segments
        # Users of the failed building keep their old extenders.
        np.testing.assert_array_equal(
            service._buildings[0].assignment, before)
        assert hq.directives == ()
        # Healthy buildings were settled normally.
        assert report.buildings[1].n_shard_failures == 0


class TestQuarantineMasking:
    def test_dropped_out_extenders_are_masked_from_solves(self):
        # dropout=1.0: every PLC report is NaN, so the monitor
        # quarantines all it can (never the last healthy one) and the
        # effective scenario zeroes those columns.
        spec = smoke_spec()
        from repro.fleet.spec import FleetSpec, TelemetryModel
        spec = FleetSpec(name=spec.name, seed=spec.seed,
                         plc_mode=spec.plc_mode,
                         buildings=spec.buildings[:1],
                         telemetry=TelemetryModel(dropout=1.0),
                         health=spec.health)
        service = FleetService(spec)
        report = service.run_epoch()
        hq = report.buildings[0]
        assert len(hq.quarantined) == 3  # 4 extenders, 1 survivor
        survivors = (set(range(4)) - set(hq.quarantined))
        assignment = service._buildings[0].assignment
        attached = assignment[assignment != UNASSIGNED]
        assert set(attached.tolist()) <= survivors


class TestServeCli:
    def test_dry_run_output_matches_golden_file(self, capsys):
        code = main(["serve", "--spec",
                     os.fspath(DATA / "fleet_smoke.yaml"),
                     "--epochs", "2", "--dry-run"])
        assert code == 0
        golden = (DATA / "fleet_smoke_golden.txt").read_text(
            encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_dry_run_is_repeatable_byte_for_byte(self, capsys):
        argv = ["serve", "--spec",
                os.fspath(DATA / "fleet_smoke.yaml"),
                "--epochs", "2", "--dry-run", "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_quiet_prints_one_line_per_epoch(self, capsys):
        assert main(["serve", "--spec",
                     os.fspath(DATA / "fleet_smoke.yaml"),
                     "--epochs", "2", "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("fleet smoke: 3 buildings")
        assert lines[1].startswith("epoch 0 (applied): 3 buildings")
        assert lines[2].startswith("epoch 1 (applied): 3 buildings")
        assert lines[3].startswith("2 epochs applied")

    def test_journal_roundtrip_via_cli(self, capsys, tmp_path):
        journal = os.fspath(tmp_path / "fleet.jsonl")
        spec = os.fspath(DATA / "fleet_smoke.yaml")
        assert main(["serve", "--spec", spec, "--epochs", "1",
                     "--journal", journal, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert "journal" in first
        assert main(["serve", "--spec", spec, "--epochs", "1",
                     "--journal", journal, "--resume",
                     "--quiet"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed" in resumed and "epoch 1" in resumed

    def test_fingerprint_mismatch_exit_code(self, capsys, tmp_path):
        journal = os.fspath(tmp_path / "fleet.jsonl")
        spec = os.fspath(DATA / "fleet_smoke.yaml")
        assert main(["serve", "--spec", spec, "--epochs", "1",
                     "--journal", journal, "--quiet"]) == 0
        capsys.readouterr()
        other = tmp_path / "other.yaml"
        other.write_text(
            Path(spec).read_text(encoding="utf-8").replace(
                "seed: 42", "seed: 43"), encoding="utf-8")
        code = main(["serve", "--spec", os.fspath(other),
                     "--epochs", "1", "--journal", journal,
                     "--resume", "--quiet"])
        assert code == CHECKPOINT_ERROR_EXIT
        assert "checkpoint error" in capsys.readouterr().err

    def test_resume_without_journal_is_usage_error(self, capsys):
        code = main(["serve", "--spec",
                     os.fspath(DATA / "fleet_smoke.yaml"),
                     "--resume"])
        assert code == 2
        assert "--journal" in capsys.readouterr().err

    def test_bad_epochs_is_usage_error(self, capsys):
        code = main(["serve", "--spec",
                     os.fspath(DATA / "fleet_smoke.yaml"),
                     "--epochs", "0"])
        assert code == 2
        assert "--epochs" in capsys.readouterr().err


def tuned_spec(chaos=None, **health):
    """The smoke spec with its chaos block and health knobs edited."""
    spec = smoke_spec()
    return replace(spec, chaos=chaos,
                   health=replace(spec.health, **health))


class TestDeadlinesAndRetries:
    def test_operational_knobs_come_from_the_spec(self):
        from repro.fleet.chaos import FleetFaultModel
        # A budget of zero turns the one injected crash per shard into
        # a failure; the spec's default budget of one retries through.
        storm = FleetFaultModel(crash_prob=1.0, crash_attempts=1,
                                until_epoch=1)
        strict = FleetService(tuned_spec(chaos=storm, retry_budget=0))
        assert strict.run_epoch().n_shard_failures > 0
        lenient = FleetService(tuned_spec(chaos=storm))
        assert lenient.run_epoch().n_shard_failures == 0

    def test_knob_validation(self):
        from repro.fleet.chaos import FleetFaultModel
        with pytest.raises(ValueError, match="timeout_s"):
            tuned_spec(shard_timeout_s=0.0)
        with pytest.raises(ValueError, match="retry_budget"):
            tuned_spec(retry_budget=-1)
        # Hang faults dispatched to a pool without a deadline would
        # stall the epoch forever: rejected up front.
        with pytest.raises(ValueError, match="timeout_s"):
            FleetService(tuned_spec(chaos=FleetFaultModel(hang_prob=0.5)),
                         workers=2)

    def test_transient_crash_succeeds_on_retry(self):
        # Regression for the previously hardcoded retry budget: a
        # shard that crashes once and a budget of one retry must make
        # the epoch indistinguishable from a clean one.
        from repro.fleet.chaos import FleetFaultModel
        storm = FleetFaultModel(crash_prob=1.0, crash_attempts=1,
                                until_epoch=1)
        clean = FleetService(smoke_spec())
        retried = FleetService(tuned_spec(chaos=storm, retry_budget=1))
        clean_report = clean.run_epoch()
        retried_report = retried.run_epoch()
        assert retried_report.n_shard_failures == 0
        assert format_epoch(retried_report) == format_epoch(
            clean_report)

    def test_exhausted_retry_budget_is_an_explicit_failure(self):
        from repro.fleet.chaos import FleetFaultModel
        storm = FleetFaultModel(crash_prob=1.0, crash_attempts=1,
                                until_epoch=1)
        service = FleetService(tuned_spec(chaos=storm, retry_budget=0))
        report = service.run_epoch()
        assert report.n_shard_failures == report.n_shards
        assert report.n_shard_timeouts == 0  # crashes, not reaps
        assert report.n_degraded_buildings == len(report.buildings)
        assert all(b.staleness == 1 for b in report.buildings)

    def test_hung_shard_no_longer_stalls_the_epoch(self):
        # Before per-shard deadlines, _dispatch had no timeout: a
        # single hung worker made run_epoch() block for the full
        # hang_s (an hour here) — this test then failed by hanging.
        import time
        from repro.fleet.chaos import FleetFaultModel
        storm = FleetFaultModel(hang_prob=1.0, hang_s=3600.0,
                                until_epoch=1)
        service = FleetService(tuned_spec(chaos=storm,
                                          shard_timeout_s=1.0),
                               workers=2)
        started = time.monotonic()
        report = service.run_epoch()
        elapsed = time.monotonic() - started
        assert elapsed < 120
        assert report.n_shard_timeouts == report.n_shards >= 1
        assert report.n_shard_failures == report.n_shard_timeouts
        assert all(b.n_shard_timeouts == b.n_segments
                   for b in report.buildings)
        # The storm clears after epoch 0: the fleet solves again.
        second = service.run_epoch()
        assert second.n_shard_failures == 0
        assert second.n_degraded_buildings == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_hang_synthesis_matches_the_pool(self, workers):
        # The serial path never sleeps: planned hangs are synthesized
        # as the same timeout failure the pool supervisor reaps, so
        # serial and pooled chaos stay bit-identical.  The three shards
        # ship as one-shard chunks on two workers; on one worker the
        # first chunk holds two hung shards, so it overruns and is
        # split first.
        from repro.fleet.chaos import FleetFaultModel
        storm = FleetFaultModel(hang_prob=1.0, hang_s=3600.0,
                                until_epoch=1)
        serial = FleetService(tuned_spec(chaos=storm))
        pooled = FleetService(tuned_spec(chaos=storm, shard_timeout_s=1.0),
                              workers=workers)
        for _ in range(2):
            assert (format_epoch(serial.run_epoch())
                    == format_epoch(pooled.run_epoch()))


class TestCircuitBreaker:
    @staticmethod
    def _fail_building_zero(monkeypatch, switch):
        import repro.fleet.service as service_mod
        real = service_mod._solve_shard

        def flaky(config, spec):
            if switch["failing"] and spec.item.building == 0:
                return WorkFailure(index=spec.index, attempts=1,
                                   error_type="RuntimeError",
                                   error="injected shard failure")
            return real(config, spec)

        monkeypatch.setattr(service_mod, "_solve_shard", flaky)

    def test_breaker_trips_skips_probes_and_closes(self, monkeypatch):
        from repro.fleet.spec import HealthSettings
        spec = smoke_spec(health=HealthSettings(
            breaker_strikes=2, breaker_probation_epochs=2))
        switch = {"failing": True}
        self._fail_building_zero(monkeypatch, switch)
        service = FleetService(spec)

        # Two consecutive failed epochs trip the breaker.
        first = service.run_epoch().buildings[0]
        assert (first.staleness, first.breaker_open) == (1, False)
        assert first.n_segments > 0
        second = service.run_epoch().buildings[0]
        assert (second.staleness, second.breaker_open) == (2, True)

        # Open breaker: the building is skipped (no shards solved)
        # until the probation window elapses.
        for expected_staleness in (3, 4):
            skipped = service.run_epoch().buildings[0]
            assert skipped.n_segments == 0
            assert skipped.breaker_open
            assert skipped.staleness == expected_staleness

        # Probe epoch while still failing: the open window restarts.
        probe = service.run_epoch().buildings[0]
        assert probe.n_segments > 0
        assert probe.breaker_open
        assert probe.staleness == 5

        # Fault cleared: two more idle epochs, then a clean probe
        # closes the breaker and staleness resets.
        switch["failing"] = False
        for expected_staleness in (6, 7):
            skipped = service.run_epoch().buildings[0]
            assert skipped.n_segments == 0
            assert skipped.staleness == expected_staleness
        closed = service.run_epoch().buildings[0]
        assert closed.n_segments > 0
        assert not closed.breaker_open
        assert closed.staleness == 0
        # Healthy buildings never noticed.
        assert all(not b.breaker_open and b.staleness == 0
                   for b in service.run_epoch().buildings[1:])

    def test_breaker_events_are_journaled(self, monkeypatch, tmp_path):
        from repro.fleet.spec import HealthSettings
        spec = smoke_spec(health=HealthSettings(
            breaker_strikes=1, breaker_probation_epochs=1))
        switch = {"failing": True}
        self._fail_building_zero(monkeypatch, switch)
        journal = os.fspath(tmp_path / "fleet.jsonl")
        with FleetService(spec, journal=journal) as service:
            service.run_epoch()   # trip
            service.run_epoch()   # skip
            service.run_epoch()   # probe, still failing
            switch["failing"] = False
            service.run_epoch()   # skip
            service.run_epoch()   # clean probe closes
            names = [e["event"] for e in service._store.events
                     if e["event"].startswith("breaker-")]
        assert names == ["breaker-open", "breaker-probe-failed",
                         "breaker-close"]

    def test_breaker_state_survives_resume_bit_identically(
            self, monkeypatch, tmp_path):
        from repro.fleet.spec import HealthSettings
        health = HealthSettings(breaker_strikes=1,
                                breaker_probation_epochs=2)
        switch = {"failing": True}
        self._fail_building_zero(monkeypatch, switch)

        straight = FleetService(smoke_spec(health=health))
        expected = [format_epoch(straight.run_epoch())
                    for _ in range(6)]

        journal = os.fspath(tmp_path / "fleet.jsonl")
        with FleetService(smoke_spec(health=health),
                          journal=journal) as first:
            got = [format_epoch(first.run_epoch()) for _ in range(3)]
        # Resume mid-breaker-cycle: open/streak/staleness counters
        # must come back exactly, or the probe schedule would shift.
        with FleetService(smoke_spec(health=health), journal=journal,
                          resume=True) as second:
            assert second.epoch == 3
            assert second._buildings[0].breaker_open
            got += [format_epoch(second.run_epoch())
                    for _ in range(3)]
        assert got == expected

    def test_breaker_advances_in_dry_run(self, monkeypatch):
        from repro.fleet.spec import HealthSettings
        spec = smoke_spec(health=HealthSettings(
            breaker_strikes=1, breaker_probation_epochs=2))
        switch = {"failing": True}
        self._fail_building_zero(monkeypatch, switch)
        service = FleetService(spec)
        report = service.run_epoch(dry_run=True)
        assert not report.applied
        assert report.buildings[0].breaker_open
        assert service._buildings[0].breaker_open


class TestServeChaosCli:
    SPEC = os.fspath(DATA / "fleet_smoke.yaml")

    def test_chaos_run_reports_failures(self, capsys):
        assert main(["serve", "--spec", self.SPEC, "--epochs", "2",
                     "--chaos", "1.0", "--retry-budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "chaos: blackout" in out
        assert "shard failures" in out

    def test_nonpositive_timeout_is_usage_error(self, capsys):
        code = main(["serve", "--spec", self.SPEC,
                     "--timeout-s", "0"])
        assert code == 2
        assert "--timeout-s must be positive" in capsys.readouterr().err

    def test_timeout_without_workers_is_usage_error(self, capsys):
        code = main(["serve", "--spec", self.SPEC,
                     "--timeout-s", "5"])
        assert code == 2
        assert "--timeout-s requires --workers" in (
            capsys.readouterr().err)

    def test_negative_retry_budget_is_usage_error(self, capsys):
        code = main(["serve", "--spec", self.SPEC,
                     "--retry-budget", "-1"])
        assert code == 2
        assert "--retry-budget" in capsys.readouterr().err

    def test_chaos_level_out_of_range_is_usage_error(self, capsys):
        code = main(["serve", "--spec", self.SPEC, "--chaos", "1.5"])
        assert code == 2
        assert "--chaos level" in capsys.readouterr().err

    def test_chaos_hangs_with_pool_need_a_deadline(self, capsys):
        code = main(["serve", "--spec", self.SPEC, "--chaos", "0.5",
                     "--workers", "2"])
        assert code == 2
        assert "--timeout-s" in capsys.readouterr().err

    def test_flags_and_spec_blocks_are_one_mechanism(
            self, tmp_path, monkeypatch, capsys):
        # --chaos/--timeout-s/--retry-budget are edits of the loaded
        # spec, so they and the same chaos/health blocks written into
        # the spec must print and journal the same bytes.
        tuned = tmp_path / "tuned.yaml"
        tuned.write_text(
            Path(self.SPEC).read_text().replace(
                "health:\n",
                "health:\n  shard_timeout_s: 10\n  retry_budget: 2\n")
            + "chaos:\n  level: 0.4\n")
        flags = ["--spec", self.SPEC, "--chaos", "0.4",
                 "--timeout-s", "10", "--retry-budget", "2"]
        runs = []
        for name, argv in (("flags", flags),
                           ("spec", ["--spec", os.fspath(tuned)])):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(["serve", *argv, "--epochs", "4", "--workers",
                         "2", "--journal", "journal.jsonl"]) == 0
            runs.append((capsys.readouterr().out,
                         (workdir / "journal.jsonl").read_bytes()))
        assert runs[0] == runs[1]
        out = runs[0][0]
        assert "chaos: blackout" in out
        # Two retries outlast the storm's two-attempt crashes, which
        # the default budget of one does not.
        assert "shard failures" not in out

    def test_spec_declared_hangs_with_pool_need_a_deadline(
            self, tmp_path, capsys):
        # The storm comes from the spec's chaos block, not --chaos: the
        # CLI must still refuse up front instead of crashing later.
        spec = tmp_path / "storm.yaml"
        spec.write_text(Path(self.SPEC).read_text()
                        + "chaos:\n  level: 0.5\n")
        code = main(["serve", "--spec", os.fspath(spec), "--workers",
                     "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--timeout-s" in captured.err
        assert captured.out == ""  # refused before the banner

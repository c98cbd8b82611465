"""Tests for the ``wolt`` command-line interface."""

from __future__ import annotations

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import faults, sweeps
from repro.experiments.sweeps import SweepResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for cmd in ("fig2", "fig3", "fig4", "fig5", "fig6", "all",
                    "solve", "faults"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_fig6_trials_flag(self):
        args = build_parser().parse_args(["fig6", "--trials", "5"])
        assert args.trials == 5

    def test_faults_trials_flag(self):
        args = build_parser().parse_args(["faults", "--trials", "3"])
        assert args.trials == 3
        assert args.seed == 0

    def test_solve_flags(self):
        args = build_parser().parse_args(
            ["solve", "--extenders", "4", "--users", "9",
             "--plc-mode", "fixed"])
        assert args.extenders == 4
        assert args.users == 9
        assert args.plc_mode == "fixed"

    def test_bad_plc_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--plc-mode", "bogus"])

    def test_sim_flags(self):
        args = build_parser().parse_args(
            ["sim", "--trials", "7", "--extenders", "4", "--users", "9",
             "--policies", "wolt,rssi", "--checkpoint", "run.jsonl",
             "--resume", "--timeout-s", "2.5", "--workers", "3",
             "--max-retries", "1"])
        assert args.command == "sim"
        assert args.trials == 7
        assert args.policies == ("wolt", "rssi")
        assert args.checkpoint == "run.jsonl"
        assert args.resume is True
        assert args.timeout_s == 2.5
        assert args.workers == 3
        assert args.max_retries == 1

    def test_sim_defaults(self):
        args = build_parser().parse_args(["sim"])
        assert args.checkpoint is None
        assert args.resume is False
        assert args.timeout_s is None
        assert args.plc_mode == "fixed"

    def test_faults_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["faults", "--checkpoint", "f.jsonl", "--resume"])
        assert args.checkpoint == "f.jsonl"
        assert args.resume is True

    def test_sweeps_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["sweeps", "--checkpoint", "s.jsonl", "--resume"])
        assert args.checkpoint == "s.jsonl"
        assert args.resume is True
        assert main(["sweeps", "--checkpoint-dir", "ckpt"]) == 2


SMOKE_SPEC = "tests/data/fleet_smoke.yaml"


@pytest.mark.parametrize("argv", [
    ["fig6", "--trials", "0"],
    ["all", "--trials", "0"],
    ["chaos", "--trials", "0"],
    ["faults", "--trials", "0"],
    ["sim", "--trials", "0"],
    ["sim", "--extenders", "0"],
    ["sim", "--users", "-1"],
    ["solve", "--extenders", "0"],
    ["solve", "--users", "-2"],
    ["serve", "--spec", SMOKE_SPEC, "--epochs", "0"],
    ["record", "--spec", SMOKE_SPEC, "--out", "t.jsonl", "--epochs", "0"],
    ["record", "--spec", SMOKE_SPEC, "--out", "t.jsonl",
     "--start-epoch", "-1"],
    ["fig6", "--workers", "-2"],
    ["all", "--workers", "-1"],
    ["sim", "--workers", "-2"],
    ["serve", "--spec", SMOKE_SPEC, "--workers", "-2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_bad_count_is_a_usage_error(argv, capsys):
    """Counts are checked at parse time: exit 2 with a usage message."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: wolt {argv[0]}")
    assert "must be >= " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sim", "--trials", "1", "--chunk-size", "2"],
    ["serve", "--spec", SMOKE_SPEC, "--workers", "2", "--chunk-size", "2"],
], ids=lambda argv: argv[0])
def test_chunk_size_is_not_a_flag(argv, capsys):
    """Dispatch sizes its own chunks: ``--chunk-size`` is a usage error."""
    assert main(argv) == 2
    assert "unrecognized arguments: --chunk-size 2" in capsys.readouterr().err


@pytest.mark.parametrize("policies, message", [
    ("wolt,foo", "unknown policies: ['foo']"),
    ("wolt,wolt", "duplicate policies: ['wolt']"),
    (",", "name at least one policy"),
    (" , ", "name at least one policy"),
])
def test_bad_policy_list_is_a_usage_error(policies, message, capsys):
    """``--policies`` is checked at parse time: exit 2, no traceback."""
    assert main(["sim", "--trials", "1", "--policies", policies]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: wolt sim")
    assert message in err and "Traceback" not in err


def test_policy_list_is_parsed_into_names():
    args = build_parser().parse_args(["sim", "--policies", " rssi , wolt"])
    assert args.policies == ("rssi", "wolt")
    assert build_parser().parse_args(["sim"]).policies == (
        "wolt", "greedy", "rssi")


def test_zero_users_is_a_valid_floor(capsys):
    assert main(["solve", "--extenders", "2", "--users", "0"]) == 0
    assert "WOLT assignment: []" in capsys.readouterr().out


class TestExecution:
    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "40.00" in out

    def test_solve(self, capsys):
        assert main(["solve", "--extenders", "3", "--users", "6",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "WOLT   aggregate:" in out
        assert "Greedy aggregate:" in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig 6a" in out and "Jain" in out

    def test_faults_small(self, capsys):
        assert main(["faults", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "Control-plane fault injection" in out
        assert "WOLT" in out and "RSSI" in out


class TestSimCommand:
    SMALL = ["sim", "--trials", "3", "--extenders", "3", "--users", "6",
             "--seed", "5", "--policies", "wolt,rssi"]

    def test_sim_runs_and_reports(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "3/3 finished" in out
        assert "wolt mean aggregate" in out
        assert "rssi mean aggregate" in out

    def test_sim_checkpoint_and_resume(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.jsonl")
        assert main(self.SMALL + ["--checkpoint", checkpoint]) == 0
        first = capsys.readouterr().out
        assert f"checkpoint: {checkpoint}" in first
        assert main(self.SMALL + ["--checkpoint", checkpoint,
                                  "--resume"]) == 0
        second = capsys.readouterr().out
        assert "(3 resumed from checkpoint, 0 failed)" in second

    def test_sim_existing_checkpoint_without_resume_exits_1(
            self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.jsonl")
        assert main(self.SMALL + ["--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        assert main(self.SMALL + ["--checkpoint", checkpoint]) == 1
        err = capsys.readouterr().err
        assert "checkpoint error" in err

    def test_sim_fingerprint_mismatch_exits_1(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.jsonl")
        assert main(self.SMALL + ["--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        assert main(self.SMALL + ["--checkpoint", checkpoint,
                                  "--resume", "--seed", "6"]) == 1
        err = capsys.readouterr().err
        assert "checkpoint error" in err

    def test_faults_checkpoint_resume_round_trip(self, tmp_path,
                                                 capsys):
        checkpoint = str(tmp_path / "faults.jsonl")
        argv = ["faults", "--trials", "2", "--checkpoint", checkpoint]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second  # resumed sweep reproduces the report


class TestSweepsCommand:
    @pytest.fixture
    def journal(self, tmp_path, monkeypatch, capsys):
        """A finished ``wolt sweeps --checkpoint`` journal (seed 0),
        written by stand-in sweeps so the error paths run fast."""
        def fake(**kwargs):
            return SweepResult("n", (1.0,), (2.0,), (3.0,))

        for name in ("sweep_extenders", "sweep_users",
                     "sweep_plc_quality"):
            monkeypatch.setattr(sweeps, name, fake)
        path = tmp_path / "sweeps.jsonl"
        assert main(["sweeps", "--checkpoint", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_mismatched_seed_resume_exits_1(self, journal, capsys):
        assert main(["sweeps", "--checkpoint", str(journal), "--resume",
                     "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("checkpoint error:")

    def test_rerun_without_resume_exits_1(self, journal, capsys):
        before = journal.read_bytes()
        assert main(["sweeps", "--checkpoint", str(journal)]) == 1
        assert capsys.readouterr().err.startswith("checkpoint error:")
        assert journal.read_bytes() == before

    def test_checkpoint_dir_flag_is_gone(self, tmp_path, capsys):
        assert main(["sweeps", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "unrecognized arguments: --checkpoint-dir" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_damaged_journal_exits_1(self, journal, capsys):
        lines = journal.read_bytes().split(b"\n")
        lines[1] = b"{not json"
        journal.write_bytes(b"\n".join(lines))
        assert main(["sweeps", "--checkpoint", str(journal),
                     "--resume"]) == 1
        assert capsys.readouterr().err.startswith("checkpoint error:")


class TestResumeNeedsCheckpoint:
    @pytest.mark.parametrize("argv", [
        ["sim", "--trials", "1", "--extenders", "2", "--users", "2"],
        ["faults", "--trials", "1"],
        ["sweeps"],
    ], ids=["sim", "faults", "sweeps"])
    def test_resume_without_checkpoint_is_usage_error(
            self, argv, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(faults, "main", must_not_run)
        monkeypatch.setattr(sweeps, "main", must_not_run)
        monkeypatch.setattr(cli, "_sim", must_not_run)
        assert main(argv + ["--resume"]) == 2
        captured = capsys.readouterr()
        assert f"{argv[0]}: --resume requires --checkpoint" in captured.err
        assert captured.out == ""


class TestSimUsageErrors:
    """Flag values ``wolt sim`` cannot run with exit 2 at parse time,
    as the same mistakes do for ``wolt serve``."""

    SIM = ["sim", "--trials", "1", "--extenders", "2", "--users", "2"]

    @pytest.mark.parametrize("flags,message", [
        (["--max-retries", "-1"], "--max-retries: must be >= 0"),
        (["--timeout-s", "0", "--workers", "1"],
         "--timeout-s must be positive"),
        (["--timeout-s", "5"], "--timeout-s requires --workers"),
    ], ids=["negative-retries", "zero-timeout", "timeout-no-workers"])
    def test_usage_error(self, flags, message, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "_sim", must_not_run)
        assert main(self.SIM + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestServeFlags:
    def test_serve_chaos_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--spec", "fleet.yaml", "--timeout-s", "30",
             "--retry-budget", "2", "--chaos", "0.4"])
        assert args.timeout_s == 30.0
        assert args.retry_budget == 2
        assert args.chaos == 0.4

    def test_serve_flags_default_to_spec_values(self):
        args = build_parser().parse_args(
            ["serve", "--spec", "fleet.yaml"])
        assert args.timeout_s is None
        assert args.retry_budget is None
        assert args.chaos is None

    def test_serve_ingest_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--spec", "fleet.yaml", "--from", "t.jsonl",
             "--strict", "--dead-letter", "dead.jsonl"])
        assert args.from_stream == "t.jsonl"
        assert args.strict is True
        assert args.dead_letter == "dead.jsonl"

    def test_serve_ingest_flags_default_off(self):
        args = build_parser().parse_args(
            ["serve", "--spec", "fleet.yaml"])
        assert args.from_stream is None
        assert args.strict is False
        assert args.dead_letter is None


class TestRecordCommand:
    SPEC = "tests/data/fleet_smoke.yaml"

    def record(self, tmp_path, epochs=2):
        tmp_path.mkdir(parents=True, exist_ok=True)
        stream = tmp_path / "telemetry.jsonl"
        assert main(["record", "--spec", self.SPEC, "--epochs",
                     str(epochs), "--out", str(stream)]) == 0
        return stream

    def test_record_flags_parse(self):
        args = build_parser().parse_args(
            ["record", "--spec", "fleet.yaml", "--epochs", "5",
             "--start-epoch", "2", "--out", "t.jsonl"])
        assert args.command == "record"
        assert args.epochs == 5
        assert args.start_epoch == 2
        assert args.out == "t.jsonl"

    def test_record_reports_and_writes(self, tmp_path, capsys):
        stream = self.record(tmp_path)
        out = capsys.readouterr().out
        assert "recorded 2 epochs" in out
        assert stream.exists()
        assert stream.read_text().count("\n") >= 3  # header + records

    def test_record_is_bit_reproducible(self, tmp_path, capsys):
        first = self.record(tmp_path / "a")
        second = self.record(tmp_path / "b")
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_record_rejects_bad_epochs(self, tmp_path, capsys):
        assert main(["record", "--spec", self.SPEC, "--epochs", "0",
                     "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "--epochs" in capsys.readouterr().err

    def test_replay_journal_matches_synthetic(self, tmp_path, capsys):
        # The CLI-level identity the crash_resume check also pins:
        # serving --from a clean recording journals byte-identically
        # to the synthetic run it was recorded from.
        stream = self.record(tmp_path)
        synth = tmp_path / "synth.jsonl"
        replay = tmp_path / "replay.jsonl"
        assert main(["serve", "--spec", self.SPEC, "--epochs", "2",
                     "--quiet", "--journal", str(synth)]) == 0
        assert main(["serve", "--spec", self.SPEC, "--epochs", "2",
                     "--quiet", "--journal", str(replay),
                     "--from", str(stream)]) == 0
        capsys.readouterr()
        assert synth.read_bytes() == replay.read_bytes()

    def test_strict_requires_from(self, capsys):
        assert main(["serve", "--spec", self.SPEC, "--strict"]) == 2
        assert "--strict requires --from" in capsys.readouterr().err

    def test_dead_letter_requires_from(self, capsys):
        assert main(["serve", "--spec", self.SPEC,
                     "--dead-letter", "d.jsonl"]) == 2
        assert "requires --from" in capsys.readouterr().err

    def test_from_refuses_chaos(self, tmp_path, capsys):
        stream = self.record(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--spec", self.SPEC, "--from",
                     str(stream), "--chaos", "0.3"]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_epoch_overrun_is_reported(self, tmp_path, capsys):
        stream = self.record(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--spec", self.SPEC, "--epochs", "5",
                     "--from", str(stream)]) == 2
        assert "exceeds the recorded stream" in capsys.readouterr().err

    def test_damaged_stream_is_an_ingest_error(self, tmp_path, capsys):
        stream = tmp_path / "garbage.jsonl"
        stream.write_text("not a telemetry stream\n", encoding="utf-8")
        assert main(["serve", "--spec", self.SPEC, "--from",
                     str(stream)]) == 1
        assert "ingest error" in capsys.readouterr().err

    def test_dirty_stream_notes_and_quarantines(self, tmp_path, capsys):
        stream = self.record(tmp_path)
        lines = stream.read_text().split("\n")
        del lines[1]  # one record lost in transit
        stream.write_text("\n".join(lines), encoding="utf-8")
        dead = tmp_path / "dead.jsonl"
        capsys.readouterr()
        assert main(["serve", "--spec", self.SPEC, "--epochs", "2",
                     "--quiet", "--from", str(stream),
                     "--dead-letter", str(dead)]) == 0
        out = capsys.readouterr().out
        assert "ingest: 1 records rejected" in out
        assert "missing-record=1" in out
        assert str(dead) in out
        assert "missing-record" in dead.read_text()

    def test_strict_mode_fails_fast_on_dirty_stream(self, tmp_path,
                                                    capsys):
        stream = self.record(tmp_path)
        lines = stream.read_text().split("\n")
        del lines[1]
        stream.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["serve", "--spec", self.SPEC, "--epochs", "2",
                     "--strict", "--from", str(stream)]) == 1
        assert "ingest error" in capsys.readouterr().err

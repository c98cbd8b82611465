#!/usr/bin/env python
"""CI integration check: a SIGKILLed run resumes bit-identically.

End-to-end exercise of the durable CLI paths, as a real operator would
hit them — ``wolt sim``, then ``wolt faults``, then ``wolt sweeps``,
then ``wolt serve``, then ``wolt record`` → ``wolt serve --from``:

1. start a checkpointed run via ``python -m repro.cli``;
2. SIGKILL it once a few trials/epochs are journaled (no warning, no
   cleanup);
3. corrupt the journal tail with a torn partial record, as a crash
   mid-``write`` would;
4. resume with ``--resume`` (under a different worker count where the
   command has one, to prove results do not depend on it);
5. run the identical workload uninterrupted into a second journal;
6. require the two journal files to be **byte-identical** (both end
   as canonical snapshots) and the reports to agree (``wolt faults``
   and ``wolt sweeps``: byte-identical stdout).

The record→replay phase then reruns the serve check from a recorded
telemetry stream whose tail was torn (a recorder crash mid-append):
the stream's damage must degrade gracefully, the SIGKILLed replay
must resume byte-identically, and a *clean* recorded replay journal
must be byte-identical to the synthetic serve journal — the CLI-level
proof of ``wolt record``/``--from`` replay identity.

Exits non-zero with a diagnostic on any deviation.  Needs only the
repo + its runtime deps: run as ``PYTHONPATH=src python
scripts/crash_resume_check.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SIM_ARGS = ["sim", "--trials", "12", "--extenders", "3", "--users", "6",
            "--seed", "7", "--policies", "wolt,greedy"]

#: Journal lines (header + records) required before the kill: enough
#: that the resumed run demonstrably merges prior work.
MIN_LINES_BEFORE_KILL = 4

#: A torn partial record, as left by a crash mid-append.
TORN_TAIL = b'{"kind":"record","index":11,"payload":{"type":"res'


#: The faults phase: enough floors that the sweep can be SIGKILLed
#: after a few have been journaled.
FAULTS_TRIALS = 12
FAULTS_ARGS = ["faults", "--trials", str(FAULTS_TRIALS)]

#: ``wolt sweeps`` journals one record per sweep; its three sweeps take
#: roughly 0.8, 1.6 and 0.6 s, so the kill lands during the second.
SWEEPS = 3


#: The serve phase: a fleet big enough that epochs take long enough
#: to SIGKILL the service mid-run (see the fixture's comment).
SERVE_SPEC = "tests/data/fleet_crash.yaml"
SERVE_EPOCHS = 20


def _fail(message: str) -> None:
    print(f"crash_resume_check: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def _wolt_cmd(*args: str, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=REPO_ROOT, **kwargs)


def _wolt(*extra: str, **kwargs):
    return _wolt_cmd(*SIM_ARGS, *extra, **kwargs)


def _kill_group(victim: subprocess.Popen,
                deadline_s: float = 10.0) -> None:
    """SIGKILL a victim's whole process group, pool workers included.

    Killing only the parent would orphan its worker pool under PID 1;
    the victims are started in their own session, so their group id is
    their pid.  Fails the check if any group member outlives the kill.
    """
    pgid = victim.pid
    os.killpg(pgid, signal.SIGKILL)  # no handler, no flush, no goodbye
    victim.wait(timeout=60)
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    _fail(f"process group {pgid} survived SIGKILL")


def _wait_for_journal(path: Path, min_lines: int = MIN_LINES_BEFORE_KILL,
                      deadline_s: float = 120.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if path.exists():
            lines = path.read_bytes().count(b"\n")
            if lines >= min_lines:
                return
        time.sleep(0.02)
    _fail(f"journal {path} never reached {min_lines} lines")


def check_serve(extra: tuple = (), label: str = "serve") -> Path:
    """SIGKILL ``wolt serve`` mid-epoch; torn tail + resume must be
    byte-identical to an uninterrupted service run.

    ``extra`` rides extra flags (e.g. ``--from <stream>``) into every
    serve invocation; returns the uninterrupted journal path so later
    phases can compare against it.
    """
    workdir = Path(tempfile.mkdtemp(prefix=f"crash-resume-{label}-"))
    interrupted = workdir / "interrupted.jsonl"
    uninterrupted = workdir / "uninterrupted.jsonl"
    base = ["serve", "--spec", SERVE_SPEC, "--quiet", *extra]

    # 1-2. Start the epoch loop and SIGKILL it mid-run.
    victim = _wolt_cmd(*base, "--epochs", str(SERVE_EPOCHS),
                       "--journal", str(interrupted), "--workers", "2",
                       start_new_session=True)
    try:
        _wait_for_journal(interrupted, min_lines=3)
    finally:
        _kill_group(victim)
    journaled = interrupted.read_bytes().count(b'"kind":"record"')
    print(f"killed serve with {journaled} epochs journaled")
    if journaled >= SERVE_EPOCHS:
        _fail("service finished before the kill; grow the fixture "
              f"({SERVE_SPEC}) or raise SERVE_EPOCHS")

    # 3. Tear the journal tail, as a crash mid-write would.
    with open(interrupted, "ab") as handle:
        handle.write(TORN_TAIL)

    # 4. Resume the remaining epochs under a different worker count.
    resumed = _wolt_cmd(*base, "--epochs",
                        str(SERVE_EPOCHS - journaled),
                        "--journal", str(interrupted), "--resume",
                        "--workers", "3")
    out, err = resumed.communicate(timeout=600)
    if resumed.returncode != 0:
        _fail(f"serve resume exited {resumed.returncode}: {err}")
    if "resumed from" not in out:
        _fail(f"serve resume missing replay marker:\n{out}")
    print("resumed service completed")

    # 5. The same epochs, uninterrupted and serial.
    cold = _wolt_cmd(*base, "--epochs", str(SERVE_EPOCHS),
                     "--journal", str(uninterrupted))
    cold_out, cold_err = cold.communicate(timeout=600)
    if cold.returncode != 0:
        _fail(f"uninterrupted serve exited {cold.returncode}: "
              f"{cold_err}")

    # 6. Byte-identical snapshots.
    if interrupted.read_bytes() != uninterrupted.read_bytes():
        _fail(f"resumed {label} journal differs from the "
              f"uninterrupted one ({interrupted} vs {uninterrupted})")
    print(f"crash_resume_check[{label}]: OK — kill + torn tail + "
          "resume is byte-identical to an uninterrupted service run")
    return uninterrupted


def check_sim() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="crash-resume-"))
    interrupted = workdir / "interrupted.jsonl"
    uninterrupted = workdir / "uninterrupted.jsonl"

    # 1-2. Start a checkpointed sweep and SIGKILL it mid-run.
    victim = _wolt("--checkpoint", str(interrupted), "--workers", "2",
                   start_new_session=True)
    try:
        _wait_for_journal(interrupted)
    finally:
        _kill_group(victim)
    n_before = interrupted.read_bytes().count(b"\n")
    print(f"killed sweep with {n_before} journal lines on disk")

    # 3. Tear the journal tail, as a crash mid-write would.
    with open(interrupted, "ab") as handle:
        handle.write(TORN_TAIL)

    # 4. Resume under a different worker count.
    resumed = _wolt("--checkpoint", str(interrupted), "--resume",
                    "--workers", "3")
    out, err = resumed.communicate(timeout=600)
    if resumed.returncode != 0:
        _fail(f"resume exited {resumed.returncode}: {err}")
    if "resumed from checkpoint" not in out:
        _fail(f"resume report missing merge marker:\n{out}")
    print("resumed run completed")

    # 5. The same sweep, uninterrupted and serial.
    cold = _wolt("--checkpoint", str(uninterrupted))
    cold_out, cold_err = cold.communicate(timeout=600)
    if cold.returncode != 0:
        _fail(f"uninterrupted run exited {cold.returncode}: {cold_err}")

    # 6. Byte-identical snapshots, matching per-policy reports.
    if interrupted.read_bytes() != uninterrupted.read_bytes():
        _fail("resumed checkpoint differs from the uninterrupted one "
              f"({interrupted} vs {uninterrupted})")
    resumed_stats = [line for line in out.splitlines()
                     if "mean aggregate" in line]
    cold_stats = [line for line in cold_out.splitlines()
                  if "mean aggregate" in line]
    if not resumed_stats or resumed_stats != cold_stats:
        _fail("reports disagree:\n"
              f"resumed: {resumed_stats}\ncold: {cold_stats}")
    print("crash_resume_check[sim]: OK — kill + torn tail + resume "
          "is byte-identical to an uninterrupted run")


def check_faults() -> None:
    """SIGKILL ``wolt faults`` mid-sweep; torn tail + resume must
    journal and print byte-identically to an uninterrupted sweep."""
    workdir = Path(tempfile.mkdtemp(prefix="crash-resume-faults-"))
    interrupted = workdir / "interrupted.jsonl"
    uninterrupted = workdir / "uninterrupted.jsonl"

    # 1-2. Start a checkpointed sweep and SIGKILL it mid-run.
    victim = _wolt_cmd(*FAULTS_ARGS, "--checkpoint", str(interrupted),
                       start_new_session=True)
    try:
        _wait_for_journal(interrupted)
    finally:
        _kill_group(victim)
    journaled = interrupted.read_bytes().count(b'"kind":"record"')
    print(f"killed faults with {journaled} trials journaled")
    if journaled >= FAULTS_TRIALS:
        _fail("fault sweep finished before the kill")

    # 3. Tear the journal tail, as a crash mid-write would.
    with open(interrupted, "ab") as handle:
        handle.write(TORN_TAIL)

    # 4. Resume the sweep.
    resumed = _wolt_cmd(*FAULTS_ARGS, "--checkpoint", str(interrupted),
                        "--resume")
    out, err = resumed.communicate(timeout=600)
    if resumed.returncode != 0:
        _fail(f"faults resume exited {resumed.returncode}: {err}")
    print("resumed fault sweep completed")

    # 5. The same sweep, uninterrupted.
    cold = _wolt_cmd(*FAULTS_ARGS, "--checkpoint", str(uninterrupted))
    cold_out, cold_err = cold.communicate(timeout=600)
    if cold.returncode != 0:
        _fail(f"uninterrupted faults exited {cold.returncode}: "
              f"{cold_err}")

    # 6. Byte-identical snapshots and stdout.
    if interrupted.read_bytes() != uninterrupted.read_bytes():
        _fail("resumed faults journal differs from the uninterrupted "
              f"one ({interrupted} vs {uninterrupted})")
    if out != cold_out:
        _fail(f"fault reports disagree:\nresumed:\n{out}\n"
              f"cold:\n{cold_out}")
    print("crash_resume_check[faults]: OK — kill + torn tail + resume "
          "is byte-identical to an uninterrupted sweep")


def check_sweeps() -> None:
    """SIGKILL ``wolt sweeps`` after its first sweep is journaled; torn
    tail + resume must journal and print byte-identically to a cold
    run."""
    workdir = Path(tempfile.mkdtemp(prefix="crash-resume-sweeps-"))
    interrupted = workdir / "interrupted.jsonl"
    uninterrupted = workdir / "uninterrupted.jsonl"

    # 1-2. Start the sweeps and SIGKILL them after the first record.
    victim = _wolt_cmd("sweeps", "--checkpoint", str(interrupted),
                       start_new_session=True)
    try:
        _wait_for_journal(interrupted, min_lines=2)
    finally:
        _kill_group(victim)
    journaled = interrupted.read_bytes().count(b'"kind":"record"')
    print(f"killed sweeps with {journaled} sweeps journaled")
    if journaled >= SWEEPS:
        _fail("sweeps finished before the kill")

    # 3. Tear the journal tail, as a crash mid-write would.
    with open(interrupted, "ab") as handle:
        handle.write(TORN_TAIL)

    # 4. Resume the sweeps.
    resumed = _wolt_cmd("sweeps", "--checkpoint", str(interrupted),
                        "--resume")
    out, err = resumed.communicate(timeout=600)
    if resumed.returncode != 0:
        _fail(f"sweeps resume exited {resumed.returncode}: {err}")
    print("resumed sweeps completed")

    # 5. The same sweeps, uninterrupted.
    cold = _wolt_cmd("sweeps", "--checkpoint", str(uninterrupted))
    cold_out, cold_err = cold.communicate(timeout=600)
    if cold.returncode != 0:
        _fail(f"uninterrupted sweeps exited {cold.returncode}: "
              f"{cold_err}")

    # 6. Byte-identical snapshots and stdout.
    if interrupted.read_bytes() != uninterrupted.read_bytes():
        _fail("resumed sweeps journal differs from the uninterrupted "
              f"one ({interrupted} vs {uninterrupted})")
    if out != cold_out:
        _fail(f"sweep reports disagree:\nresumed:\n{out}\n"
              f"cold:\n{cold_out}")
    print("crash_resume_check[sweeps]: OK — kill + torn tail + resume "
          "is byte-identical to an uninterrupted run")


def check_record_replay(synthetic_journal: Path) -> None:
    """``wolt record`` → SIGKILLed ``wolt serve --from`` → resume.

    Tears the *stream* tail too (a recorder crash mid-append): the
    damage must classify gracefully — not crash the service — and the
    torn-stream replays must still resume byte-identically.  Finally
    a clean-stream replay journal is byte-compared against the
    synthetic serve journal from the previous phase.
    """
    workdir = Path(tempfile.mkdtemp(prefix="crash-resume-record-"))
    stream = workdir / "telemetry.jsonl"
    recorder = _wolt_cmd("record", "--spec", SERVE_SPEC, "--epochs",
                         str(SERVE_EPOCHS), "--out", str(stream))
    out, err = recorder.communicate(timeout=600)
    if recorder.returncode != 0:
        _fail(f"wolt record exited {recorder.returncode}: {err}")
    print(f"recorded {SERVE_EPOCHS} epochs of telemetry")

    # Clean-stream CLI identity: replaying the recording must journal
    # byte-identically to the synthetic run of the same spec.
    clean_journal = workdir / "clean-replay.jsonl"
    replay = _wolt_cmd("serve", "--spec", SERVE_SPEC, "--quiet",
                       "--from", str(stream), "--epochs",
                       str(SERVE_EPOCHS), "--journal",
                       str(clean_journal))
    out, err = replay.communicate(timeout=600)
    if replay.returncode != 0:
        _fail(f"clean replay exited {replay.returncode}: {err}")
    if clean_journal.read_bytes() != synthetic_journal.read_bytes():
        _fail("clean recorded replay journal differs from the "
              f"synthetic serve journal ({clean_journal} vs "
              f"{synthetic_journal})")
    print("clean recorded replay is byte-identical to the synthetic "
          "serve journal")

    # Tear the stream tail (recorder crash mid-append) and run the
    # full kill/torn-journal/resume drill against the damaged stream.
    torn_stream = workdir / "telemetry-torn.jsonl"
    torn_stream.write_bytes(stream.read_bytes() + TORN_TAIL)
    check_serve(extra=("--from", str(torn_stream)),
                label="record-replay")


def main() -> None:
    check_sim()
    check_faults()
    check_sweeps()
    synthetic_journal = check_serve()
    check_record_replay(synthetic_journal)


if __name__ == "__main__":
    main()

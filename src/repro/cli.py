"""``wolt`` command-line interface.

Runs any of the paper's experiments from a shell::

    wolt fig2            # medium-sharing measurements
    wolt fig3            # the case study (22 / 30 / 40 Mbps)
    wolt fig4            # testbed comparison
    wolt fig5            # per-user fairness drill-down
    wolt fig6            # large-scale simulation suite
    wolt faults          # control-plane fault-injection sweep
    wolt chaos           # composed-fault chaos sweep (self-healing)
    wolt sim --checkpoint run.jsonl --workers 4   # durable sweep
    wolt sim --checkpoint run.jsonl --resume      # continue after a crash
    wolt solve --extenders 15 --users 36 --seed 1
    wolt serve --spec fleet.yaml --epochs 10      # campus fleet service
    wolt serve --spec fleet.yaml --epochs 2 --dry-run   # preview only
    wolt record --spec fleet.yaml --epochs 10 --out telemetry.jsonl
    wolt serve --spec fleet.yaml --epochs 10 --from telemetry.jsonl
    wolt all             # every figure, paper-scale

All experiments are deterministic for a given ``--seed``; a
checkpointed ``wolt sim``, ``wolt faults`` or ``wolt sweeps`` resumed
after a crash is bit-identical to an uninterrupted run, and ``wolt
serve --from`` replaying a clean ``wolt record`` stream is
byte-identical (journal included) to the synthetic run of the same
spec.  Worker pools size their own chunks (about two waves per
worker), and ``--workers`` never changes a result.  Exit codes: 0
success, 1 on checkpoint or telemetry-ingest errors (fingerprint
mismatch, corruption, an existing checkpoint without ``--resume``,
damaged stream header, ``--strict`` integrity failures), 2 on a usage
error (such as a count below its minimum or an unknown flag), 130/143
when a run was interrupted by SIGINT/SIGTERM after flushing its
checkpoint.
"""

from __future__ import annotations

import argparse
import signal
import sys
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .experiments import (chaos, faults, fig2, fig3, fig4, fig5, fig6,
                          robustness, sweeps)
from .sim.runner import check_policies

__all__ = ["main", "build_parser"]

#: Exit codes for a gracefully interrupted durable run (128 + signum).
INTERRUPT_EXIT_CODES = {"SIGINT": 128 + signal.SIGINT,
                        "SIGTERM": 128 + signal.SIGTERM}

#: Exit code for checkpoint-layer failures (mismatch, corruption).
CHECKPOINT_ERROR_EXIT = 1


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` for an integer count of at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return count


def _policy_list(text: str) -> Tuple[str, ...]:
    """An argparse ``type=`` for ``--policies``: known names, each once."""
    policies = tuple(p.strip() for p in text.split(",") if p.strip())
    if not policies:
        raise argparse.ArgumentTypeError("name at least one policy")
    try:
        check_policies(policies)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return policies


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="wolt",
        description="Reproduce the WOLT (ICDCS 2020) experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
            ("fig2", "medium sharing in the PLC and WiFi domains"),
            ("fig3", "the two-user / two-extender case study"),
            ("fig4", "testbed comparison (3 extenders, 7 laptops)"),
            ("fig5", "per-user fairness drill-down"),
            ("fig6", "large-scale simulation suite"),
            ("sweeps", "scalability sweeps (extension)"),
            ("robustness", "estimation-noise robustness (extension)"),
            ("faults", "control-plane fault-injection sweep "
                       "(extension)"),
            ("chaos", "composed-fault chaos sweep for the "
                      "self-healing control loop (extension)"),
            ("all", "run every figure")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0,
                       help="master random seed (default 0)")
        if name in ("fig6", "all"):
            p.add_argument("--trials", type=_at_least(1), default=100,
                           help="Fig 6a Monte-Carlo trials (default 100)")
            p.add_argument("--workers", type=_at_least(0), default=None,
                           help="worker processes for the Monte-Carlo "
                                "trials (default: serial; results are "
                                "bit-identical for any worker count)")
        elif name == "chaos":
            p.add_argument("--trials", type=_at_least(1), default=10,
                           help="floors per chaos level (default 10)")
        elif name == "faults":
            p.add_argument("--trials", type=_at_least(1), default=10,
                           help="floors per fault level (default 10)")
        if name in ("faults", "sweeps"):
            p.add_argument("--checkpoint", type=str, default=None,
                           help="journal each finished floor (faults) "
                                "or sweep (sweeps) to this "
                                "crash-consistent JSONL file")
            p.add_argument("--resume", action="store_true",
                           help="continue an interrupted run from its "
                                "checkpoint")

    sim = sub.add_parser(
        "sim",
        help="durable Monte-Carlo sweep (checkpoint/resume/timeouts)")
    sim.add_argument("--trials", type=_at_least(1), default=100,
                     help="Monte-Carlo trials (default 100)")
    sim.add_argument("--extenders", type=_at_least(1), default=15)
    sim.add_argument("--users", type=_at_least(0), default=36)
    sim.add_argument("--policies", type=_policy_list,
                     default="wolt,greedy,rssi",
                     help="comma-separated policy list "
                          "(default wolt,greedy,rssi)")
    sim.add_argument("--seed", type=int, default=0,
                     help="master random seed (default 0)")
    sim.add_argument("--plc-mode",
                     choices=("redistribute", "active", "fixed"),
                     default="fixed",
                     help="PLC sharing law for scoring (default fixed, "
                          "the paper's simulator model)")
    sim.add_argument("--workers", type=_at_least(0), default=None,
                     help="worker processes (default: serial; trials "
                          "ship in chunks of about two waves per "
                          "worker; results are bit-identical for any "
                          "worker count)")
    sim.add_argument("--checkpoint", type=str, default=None,
                     help="journal every completed trial to this "
                          "crash-consistent JSONL file")
    sim.add_argument("--resume", action="store_true",
                     help="continue from the checkpoint: completed "
                          "trials are merged, not recomputed")
    sim.add_argument("--timeout-s", type=float, default=None,
                     help="per-trial wall-clock deadline; a hung trial "
                          "is reaped and recorded as a WorkFailure "
                          "(requires --workers)")
    sim.add_argument("--max-retries", type=_at_least(0), default=None,
                     help="retry budget for crashed trials before an "
                          "explicit WorkFailure is recorded")

    serve = sub.add_parser(
        "serve",
        help="campus fleet association service (sharded epochs, "
             "dry-run previews, journal/resume)")
    serve.add_argument("--spec", type=str, required=True,
                       help="YAML fleet spec (see docs/FLEET.md)")
    serve.add_argument("--epochs", type=_at_least(1), default=1,
                       help="epochs to run before exiting (default 1)")
    serve.add_argument("--dry-run", action="store_true",
                       help="preview every directive without applying "
                            "anything or writing the journal")
    serve.add_argument("--workers", type=_at_least(0), default=None,
                       help="worker processes for shard solves "
                            "(default: serial; results are "
                            "bit-identical for any worker count)")
    serve.add_argument("--timeout-s", type=float, default=None,
                       help="per-shard solve deadline in seconds "
                            "(requires --workers: a hung in-process "
                            "solve cannot be reaped); a shard past it "
                            "is reaped and its users carry their "
                            "previous association forward; overrides "
                            "the spec's health.shard_timeout_s")
    serve.add_argument("--retry-budget", type=_at_least(0),
                       default=None,
                       help="retries per crashed shard solve before "
                            "an explicit failure (default: the spec's "
                            "health.retry_budget, itself 1)")
    serve.add_argument("--chaos", type=float, default=None,
                       metavar="LEVEL",
                       help="inject a seeded composed fault storm at "
                            "LEVEL in [0, 1]: telemetry blackouts, "
                            "shard crashes and shard hangs (see "
                            "docs/ROBUSTNESS.md); overrides the "
                            "spec's chaos block")
    serve.add_argument("--journal", type=str, default=None,
                       help="append each applied epoch to this "
                            "crash-consistent JSONL journal")
    serve.add_argument("--resume", action="store_true",
                       help="restore every building from the "
                            "journal's last record and continue from "
                            "the next epoch, bit-identically "
                            "(requires --journal)")
    serve.add_argument("--from", dest="from_stream", type=str,
                       default=None, metavar="STREAM",
                       help="serve from a recorded telemetry stream "
                            "(wolt record) instead of synthesizing "
                            "telemetry; a clean stream replays "
                            "byte-identically to the synthetic run "
                            "(incompatible with --chaos)")
    serve.add_argument("--strict", action="store_true",
                       help="fail fast on the first dirty stream "
                            "record instead of degrading gracefully "
                            "(requires --from)")
    serve.add_argument("--dead-letter", type=str, default=None,
                       metavar="PATH",
                       help="quarantine rejected stream records into "
                            "this append-only bounded JSONL journal "
                            "(requires --from)")
    serve.add_argument("--quiet", action="store_true",
                       help="print only each epoch's headline line "
                            "(no per-building or per-directive "
                            "detail)")

    record = sub.add_parser(
        "record",
        help="record a fleet spec's telemetry as a versioned, "
             "checksummed JSONL stream for wolt serve --from")
    record.add_argument("--spec", type=str, required=True,
                        help="YAML fleet spec (see docs/FLEET.md)")
    record.add_argument("--epochs", type=_at_least(1), default=1,
                        help="epochs of telemetry to record "
                             "(default 1)")
    record.add_argument("--start-epoch", type=_at_least(0), default=0,
                        help="first epoch of the recorded window "
                             "(default 0)")
    record.add_argument("--out", type=str, required=True,
                        help="stream output path (written atomically)")

    solve = sub.add_parser(
        "solve", help="run WOLT on a random enterprise floor")
    solve.add_argument("--extenders", type=_at_least(1), default=15)
    solve.add_argument("--users", type=_at_least(0), default=36)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--plc-mode", choices=("redistribute", "active",
                                              "fixed"),
                       default="redistribute",
                       help="PLC sharing law for scoring")
    return parser


def _solve(args: argparse.Namespace) -> str:
    from .net.topology import enterprise_floor
    from .sim.runner import COMPARED_POLICIES, run_policy

    rng = np.random.default_rng(args.seed)
    scenario = enterprise_floor(args.extenders, args.users, rng)
    wolt, greedy, rssi = (run_policy(scenario, policy, rng, args.plc_mode)
                          for policy in COMPARED_POLICIES)
    lines = [
        f"scenario: {args.extenders} extenders, {args.users} users, "
        f"seed {args.seed}, plc_mode={args.plc_mode}",
        f"WOLT   aggregate: {wolt.aggregate_throughput:8.2f} Mbps",
        f"Greedy aggregate: {greedy.aggregate_throughput:8.2f} Mbps",
        f"RSSI   aggregate: {rssi.aggregate_throughput:8.2f} Mbps",
        f"WOLT assignment: {wolt.assignment.tolist()}",
    ]
    return "\n".join(lines)


def _sim(args: argparse.Namespace) -> Tuple[str, int]:
    """The durable ``wolt sim`` sweep; returns (report, exit code)."""
    from .sim.dispatch import WorkFailure
    from .sim.runner import run_trials

    result = run_trials(args.trials, args.extenders, args.users,
                        policies=args.policies, seed=args.seed,
                        plc_mode=args.plc_mode, workers=args.workers,
                        max_retries=args.max_retries,
                        checkpoint=args.checkpoint, resume=args.resume,
                        timeout_s=args.timeout_s)
    completed = [t for t in result if not isinstance(t, WorkFailure)]
    failures = [t for t in result if isinstance(t, WorkFailure)]
    lines = [f"sim: {args.extenders} extenders, {args.users} users, "
             f"seed {args.seed}, plc_mode={args.plc_mode}",
             f"trials: {len(result)}/{args.trials} finished "
             f"({result.resumed} resumed from checkpoint, "
             f"{len(failures)} failed)"]
    for policy in args.policies:
        values = [t.aggregate(policy) for t in completed]
        mean = float(np.mean(values)) if values else float("nan")
        lines.append(f"{policy:>8s} mean aggregate: {mean:8.2f} Mbps "
                     f"over {len(values)} trials")
    for failure in failures:
        lines.append(f"  trial {failure.index} failed: "
                     f"{failure.error_type} ({failure.error})")
    if result.checkpoint is not None:
        lines.append(f"checkpoint: {result.checkpoint}")
    if result.interrupted is not None:
        lines.append(f"interrupted by {result.interrupted} after "
                     f"{len(result)} trials; checkpoint flushed — "
                     "re-run with --resume to finish")
        return ("\n".join(lines),
                INTERRUPT_EXIT_CODES.get(result.interrupted, 1))
    return "\n".join(lines), 0


def _record(args: argparse.Namespace) -> Tuple[str, int]:
    """The ``wolt record`` stream writer; returns (report, exit code)."""
    from .fleet.ingest import write_stream
    from .fleet.spec import load_fleet_spec

    spec = load_fleet_spec(args.spec)
    n_records = write_stream(args.out, spec, args.epochs,
                             start_epoch=args.start_epoch)
    return (f"recorded {args.epochs} epochs of fleet {spec.name} "
            f"({n_records} records, {spec.n_buildings} buildings) "
            f"to {args.out}", 0)


def _serve(args: argparse.Namespace) -> Tuple[str, int]:
    """The ``wolt serve`` fleet service; returns (report, exit code)."""
    from .fleet.chaos import FleetFaultModel
    from .fleet.ingest import RecordedTelemetry
    from .fleet.service import FleetService, format_epoch
    from .fleet.spec import load_fleet_spec
    from .sim.dispatch import InterruptState, SignalGuard

    # The flags are edits of the spec: the service reads only the spec.
    spec = load_fleet_spec(args.spec)
    knobs = {name: value for name, value in (
        ("shard_timeout_s", args.timeout_s),
        ("retry_budget", args.retry_budget)) if value is not None}
    spec = replace(spec, health=replace(spec.health, **knobs))
    if args.chaos is not None:
        spec = replace(spec, chaos=FleetFaultModel.from_level(args.chaos))
    storm = spec.chaos
    if (storm is not None and storm.hang_prob > 0
            and args.workers is not None and args.workers > 1
            and spec.health.shard_timeout_s is None):
        return ("serve: chaos hang faults with --workers need "
                "--timeout-s or health.shard_timeout_s (a hang needs a "
                "deadline to reap)", 2)
    source = None
    if args.from_stream is not None:
        if storm is not None and not storm.trivial:
            return ("serve: --from cannot run under the spec's chaos "
                    "block (the recorded stream already is the fault "
                    "surface); drop the block or the flag", 2)
        source = RecordedTelemetry.load(
            args.from_stream, spec, strict=args.strict,
            dead_letter=args.dead_letter)
        if (not args.resume and source.end_epoch is not None
                and args.epochs > source.end_epoch):
            return (f"serve: --epochs {args.epochs} exceeds the "
                    f"recorded stream (window ends at epoch "
                    f"{source.end_epoch}); record a longer stream",
                    2)
    print(f"fleet {spec.name}: {spec.n_buildings} buildings, "
          f"{spec.n_users} users, plc_mode={spec.plc_mode}, "
          f"seed {spec.seed}")
    if source is not None:
        if source.n_rejected:
            counts = " ".join(
                f"{cls}={n}"
                for cls, n in sorted(source.stream.counts.items()))
            note = (f"ingest: {source.n_rejected} records rejected "
                    f"({counts}); degrading gracefully")
            if args.dead_letter is not None:
                note += f"; dead-letter: {args.dead_letter}"
            print(note)
    if storm is not None and not storm.trivial:
        print(f"chaos: blackout {storm.blackout_prob:.4f}, "
              f"crash {storm.crash_prob:.4f} "
              f"(x{storm.crash_attempts}), hang "
              f"{storm.hang_prob:.4f}")
    state = InterruptState()
    with SignalGuard(state), FleetService(
            spec, workers=args.workers, journal=args.journal,
            resume=args.resume, source=source) as service:
        if args.resume and service.epoch:
            print(f"resumed from {args.journal} at epoch "
                  f"{service.epoch}")
        reports, interrupted = service.run(
            args.epochs, dry_run=args.dry_run, state=state,
            on_epoch=lambda r: print(
                format_epoch(r).partition("\n")[0] if args.quiet
                else format_epoch(r)))
    if interrupted is not None:
        note = (f"interrupted by {interrupted} after "
                f"{len(reports)} epochs")
        if args.journal:
            note += ("; journal flushed — re-run with --resume to "
                     "continue")
        return note, INTERRUPT_EXIT_CODES.get(interrupted, 1)
    total_directives = sum(len(r.directives) for r in reports)
    mode = "previewed" if args.dry_run else "applied"
    summary = (f"{len(reports)} epochs {mode}, {total_directives} "
               "directives")
    total_failures = sum(r.n_shard_failures for r in reports)
    if total_failures:
        total_timeouts = sum(r.n_shard_timeouts for r in reports)
        summary += (f", {total_failures} shard failures "
                    f"({total_timeouts} timed out)")
    if args.journal and not args.dry_run:
        summary += f"; journal: {args.journal}"
    return summary, 0


def _usage_problem(args: argparse.Namespace) -> Optional[str]:
    """The first flag combination ``args`` cannot run with, if any."""
    options = vars(args)
    if args.command == "serve":
        if args.resume and args.journal is None:
            return "--resume requires --journal"
        if args.from_stream is None and args.strict:
            return "--strict requires --from"
        if args.from_stream is None and args.dead_letter is not None:
            return "--dead-letter requires --from"
        if args.from_stream is not None and args.chaos is not None:
            return ("--from and --chaos are incompatible (the recorded "
                    "stream already is the fault surface)")
        if args.chaos is not None and not 0.0 <= args.chaos <= 1.0:
            return "--chaos level must be in [0, 1]"
    elif options.get("resume") and options.get("checkpoint") is None:
        return "--resume requires --checkpoint"
    if options.get("timeout_s") is not None:
        if args.timeout_s <= 0:
            return "--timeout-s must be positive"
        if args.workers is None or args.workers < 1:
            return ("--timeout-s requires --workers (a hung in-process "
                    "solve cannot be reaped)")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from .fleet.ingest import IngestError
    from .sim.checkpoint import CheckpointError

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        problem = _usage_problem(args)
        if problem is not None:
            parser.error(f"{args.command}: {problem}")
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return _run(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
    return CHECKPOINT_ERROR_EXIT


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command; checkpoint and ingest errors propagate."""
    if args.command == "fig2":
        print(fig2.main(args.seed))
    elif args.command == "fig3":
        print(fig3.main())
    elif args.command == "fig4":
        print(fig4.main(args.seed))
    elif args.command == "fig5":
        print(fig5.main(args.seed + 3))
    elif args.command == "fig6":
        print(fig6.main(args.seed, n_trials=args.trials,
                        workers=args.workers))
    elif args.command == "sweeps":
        print(sweeps.main(args.seed, checkpoint=args.checkpoint,
                          resume=args.resume))
    elif args.command == "robustness":
        print(robustness.main(args.seed))
    elif args.command == "chaos":
        report = chaos.main(args.seed, n_trials=args.trials)
        print(report)
        if "ACCEPTANCE: FAIL" in report:
            return 1
    elif args.command == "faults":
        print(faults.main(args.seed, n_trials=args.trials,
                          checkpoint=args.checkpoint, resume=args.resume))
    elif args.command == "sim":
        text, code = _sim(args)
        print(text)
        return code
    elif args.command in ("serve", "record"):
        text, code = (_serve if args.command == "serve" else _record)(args)
        print(text, file=sys.stderr if code == 2 else sys.stdout)
        return code
    elif args.command == "all":
        print(fig2.main(args.seed))
        print()
        print(fig3.main())
        print()
        print(fig4.main(args.seed))
        print()
        print(fig5.main(args.seed + 3))
        print()
        print(fig6.main(args.seed, n_trials=args.trials,
                        workers=args.workers))
    elif args.command == "solve":
        print(_solve(args))
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

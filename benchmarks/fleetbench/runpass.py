"""One fleetbench pass: serve a workload in this process and measure it.

    python -m benchmarks.fleetbench.runpass '<json request>'

runs :func:`run_pass` with the request's keyword arguments and prints
its result as one JSON line.  The pass drives the production path of
``wolt serve``: ``FleetService(...).run(1 + epochs, on_epoch=...)``,
where the callback renders each epoch with ``format_epoch``.  Epoch 0
is the bootstrap that places every user; the epochs after it are the
timed steady state.  An epoch is the interval between two successive
``on_epoch`` callbacks.

Times are reported in *reference seconds*.  On a shared host the speed
at which this process runs Python swings by tens of percent over
phases of several seconds, and wall time follows.  So every timed
interval is bracketed by a fixed calibration kernel that belongs to the
benchmark, not the program, and the interval is divided by how much
slower than on the reference box the kernel ran around it.  The
calibration runs outside the intervals it scales.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.phase1 as phase1_module
import repro.core.wolt as wolt_module
import repro.fleet.ingest as ingest_module
import repro.fleet.service as service_module
from repro.core.guard import DecisionGuard
from repro.core.health import HealthMonitor
from repro.fleet.ingest import RecordedTelemetry
from repro.fleet.service import EpochReport, FleetService
from repro.fleet.spec import parse_fleet_spec
from repro.net.engine import EngineCallStats, count_engine_calls
from repro.sim.checkpoint import TrialStore, atomic_write_text
from repro.sim.dispatch import shutdown_warm_pools

from .tracer import Tracer
from .workloads import spec_text, workload, workload_seeds, write_wings_stream

__all__ = ["epoch_violations", "run_pass"]

#: Spans whose self time is reported per epoch as ``<name>_ms``.
EPOCH_SPANS = ("ingest.observe", "health.observe", "sharding.split",
               "dispatch.wall", "solve.wolt", "solve.phase1",
               "solve.hungarian", "solve.final_evaluate", "solve.phase2",
               "directives.evaluate", "guard.repair", "journal.append",
               "render.format")

#: Resumes are timed until they add up to this much wall time (and at
#: least the requested count), but never more than ``MAX_RESUMES``.
RESUME_SAMPLE_NS = 2_000_000_000
MAX_RESUMES = 20

#: Median time of :func:`_reference_kernel` on the reference box (a
#: 2-CPU VM, Python 3.11, numpy 2.4) in a quiet phase.
REFERENCE_KERNEL_NS = 4_000_000


def _reference_kernel() -> int:
    """Time a fixed mix of interpreter and small-array numpy work."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(60_000):
        total += i * i
    values = np.arange(64.0)
    for _ in range(600):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter_ns() - start


def slowdown() -> float:
    """How many times slower than the reference box Python runs now."""
    return statistics.median(
        _reference_kernel() for _ in range(3)) / REFERENCE_KERNEL_NS


def _scaled_s(interval_ns: int, before: float, after: float) -> float:
    """An interval in reference seconds, given the slowdowns around it."""
    return interval_ns / 1e9 / ((before + after) / 2)


def epoch_violations(report: EpochReport) -> List[str]:
    """The fleet invariants one epoch report breaks (empty: none).

    Shard failures are counted per shard by the caller, not here.
    """
    problems: List[str] = []
    total = sum(b.aggregate_mbps for b in report.buildings)
    if report.aggregate_mbps != total:
        problems.append(
            f"epoch {report.epoch}: aggregate {report.aggregate_mbps!r} "
            f"!= sum of building aggregates {total!r}")
    for b in report.buildings:
        moved = sum(d.delta_mbps for d in b.directives)
        if not math.isclose(moved, b.delta_mbps, rel_tol=1e-9,
                            abs_tol=1e-9 * max(1.0, b.aggregate_mbps)):
            problems.append(
                f"epoch {report.epoch} {b.building}: directive deltas "
                f"sum to {moved!r}, building delta is {b.delta_mbps!r}")
        onto = sorted({d.new_extender for d in b.directives
                       if d.new_extender in b.quarantined})
        if onto:
            problems.append(
                f"epoch {report.epoch} {b.building}: directives target "
                f"quarantined extenders {onto}")
    return problems


def _tally(reports: Sequence[EpochReport],
           violations: List[str]) -> Tuple[int, int]:
    """``(attempted, failed)`` over shards and epochs; notes violations.

    A failed or timed-out shard fails once, an epoch that breaks an
    invariant once more.
    """
    attempted = len(reports) + sum(r.n_shards for r in reports)
    failed = sum(r.n_shard_failures for r in reports)
    for report in reports:
        problems = epoch_violations(report)
        failed += bool(problems)
        violations.extend(problems)
        if report.n_shard_failures:
            violations.append(f"epoch {report.epoch}: "
                              f"{report.n_shard_failures} shard failures")
    return attempted, failed


class _EpochClock:
    """The ``on_epoch`` callback: render, stamp, calibrate, advance.

    Epoch ``k`` runs from the end of the calibration after tick
    ``k - 1`` (for epoch 0: set-up start) to tick ``k``.
    """

    def __init__(self, tracer: Optional[Tracer],
                 engine: Optional[EngineCallStats]) -> None:
        self.tracer = tracer
        self.engine = engine
        self.starts: List[int] = []
        self.ticks: List[int] = []
        self.slowdowns: List[float] = []
        self.texts: List[str] = []
        self.engine_marks: List[Tuple[int, int, int]] = []

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.spans.clear()
            self.tracer.epoch = 0
        self._calibrate()

    def tick(self, report: EpochReport) -> None:
        # Looked up on the module so the traced pass times it too.
        self.texts.append(service_module.format_epoch(report))
        self.ticks.append(time.perf_counter_ns())
        if self.tracer is not None:
            self.tracer.epoch = len(self.ticks)
        self._calibrate()

    def _calibrate(self) -> None:
        self.slowdowns.append(slowdown())
        self._mark_engine()
        self.starts.append(time.perf_counter_ns())

    def stop(self) -> None:
        if self.tracer is not None:
            self.tracer.epoch = None

    def _mark_engine(self) -> None:
        if self.engine is not None:
            self.engine_marks.append((self.engine.scalar_calls,
                                      self.engine.batch_rows,
                                      self.engine.delta_moves))

    def intervals_ns(self) -> List[int]:
        """Wall-clock epoch lengths; epoch 0 is the set-up."""
        return [end - begin for begin, end in zip(self.starts, self.ticks)]

    def scaled_s(self) -> List[float]:
        """Epoch lengths in reference seconds."""
        return [_scaled_s(ns, before, after) for ns, before, after in zip(
            self.intervals_ns(), self.slowdowns, self.slowdowns[1:])]


def _install(tracer: Tracer, serial: bool) -> None:
    """Wrap every traced layer (solve layers only when they run here)."""
    last: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def unchanged(args: Tuple[Any, ...], result: Any) -> Dict[str, float]:
        building = args[1]
        before = last.get(building)
        same = (result is not None and before is not None
                and all(np.array_equal(x, y, equal_nan=True)
                        for x, y in zip(result, before)))
        if result is not None:
            last[building] = result
        return {"unchanged": float(same)}

    tracer.patch(service_module, "split_segments", "sharding.split")
    tracer.patch(service_module, "evaluate", "directives.evaluate")
    tracer.patch(service_module, "dispatch_chunked", "dispatch.wall")
    tracer.patch(service_module, "format_epoch", "render.format")
    tracer.patch(HealthMonitor, "observe", "health.observe")
    tracer.patch(DecisionGuard, "repair_assignment", "guard.repair")
    tracer.patch(TrialStore, "append", "journal.append")
    tracer.patch(TrialStore, "snapshot", "journal.snapshot")
    tracer.patch(TrialStore, "__init__", "journal.open")
    tracer.patch(ingest_module, "read_stream", "ingest.load")
    for source_class in (ingest_module.SyntheticTelemetry,
                         ingest_module.RecordedTelemetry):
        tracer.patch(source_class, "observe", "ingest.observe",
                     note=unchanged)
    if serial:
        tracer.patch(service_module, "solve_wolt", "solve.wolt",
                     note=lambda args, _: {"users": args[0].n_users})
        tracer.patch(wolt_module, "solve_phase1", "solve.phase1")
        tracer.patch(wolt_module, "solve_phase2", "solve.phase2",
                     note=lambda _, result: {"rounds": result.iterations})
        tracer.patch(wolt_module, "evaluate", "solve.final_evaluate")
        tracer.patch(phase1_module, "solve_assignment", "solve.hungarian")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(tracer: Tracer, clock: _EpochClock,
                   reports: Sequence[EpochReport],
                   journal_bytes: int) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced steady-state epochs."""
    intervals = clock.intervals_ns()
    by_epoch: Dict[Optional[int], List[Any]] = defaultdict(list)
    for span in tracer.spans:
        by_epoch[span.epoch].append(span)
    rows: List[Dict[str, float]] = []
    for k in range(1, len(intervals)):
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        counters: Dict[str, float] = defaultdict(float)
        top_ns = 0
        for span in by_epoch[k]:
            self_ns[span.name] += span.self_ns
            calls[span.name] += 1
            for key, value in span.counters.items():
                counters[key] += value
            if span.parent is None:
                top_ns += span.duration_ns
        report = reports[k]
        row = {f"{name}_ms": self_ns[name] / 1e6 for name in EPOCH_SPANS}
        row["service.self_ms"] = (intervals[k] - top_ns) / 1e6
        # Every span name an epoch holds must map to a reported layer,
        # or the layers would not add up to the epoch.
        row["trace.balance"] = abs(
            sum(row[f"{name}_ms"] for name in EPOCH_SPANS)
            + row["service.self_ms"] - intervals[k] / 1e6) / (
                intervals[k] / 1e6)
        row.update({
            "ingest.rejected_per_epoch": report.n_rejected_records,
            "ingest.unchanged_share": _ratio(counters["unchanged"],
                                             calls["ingest.observe"]),
            "health.quarantined_per_epoch": sum(
                len(b.quarantined) for b in report.buildings),
            "sharding.segments_per_building": _ratio(
                report.n_shards, len(report.buildings)),
            "dispatch.shards_per_epoch": report.n_shards,
            "dispatch.failed_per_epoch": report.n_shard_failures,
            "solve.users_per_shard": _ratio(counters["users"],
                                            calls["solve.wolt"]),
            "solve.phase2_rounds_per_shard": _ratio(
                counters["rounds"], calls["solve.phase2"]),
            "directives.evaluate_calls_per_epoch":
                calls["directives.evaluate"],
            "directives.evals_per_directive": _ratio(
                calls["directives.evaluate"], len(report.directives)),
        })
        marks = clock.engine_marks
        for i, name in enumerate(("scalar_calls", "batch_rows",
                                  "delta_moves")):
            row[f"engine.{name}_per_epoch"] = (
                marks[k + 1][i] - marks[k][i] if marks else 0)
        rows.append(row)
    layers = {key: float(statistics.median(row[key] for row in rows))
              for key in rows[0]}
    layers["trace.balance"] = max(row["trace.balance"] for row in rows)

    def median_ns(name: str, epoch: Optional[int]) -> float:
        return statistics.median([s.duration_ns for s in by_epoch[epoch]
                                  if s.name == name] or [0])

    # Set-up spans carry epoch 0, the end-of-run snapshot the label
    # after the last epoch, and the crash-recovery resumes None.
    layers["ingest.load_s"] = median_ns("ingest.load", 0) / 1e9
    layers["journal.snapshot_ms"] = median_ns("journal.snapshot",
                                              len(intervals)) / 1e6
    layers["journal.recover_ms"] = median_ns("journal.open", None) / 1e6
    layers["journal.bytes_per_epoch"] = journal_bytes / len(reports)
    return layers


def run_pass(workload_name: str, seed: int, epochs: int, tmp: str, *,
             setups: int = 3, resumes: int = 5, traced: bool = False,
             twin_epochs: int = 0, buildings: Optional[int] = None,
             trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Serve one workload for ``1 + epochs`` epochs and measure it.

    Args:
        workload_name: ``campus``, ``towers`` or ``wings``.
        seed: the benchmark seed the workload inputs derive from.
        epochs: timed steady-state epochs after the bootstrap.
        tmp: an empty directory for the journal and the stream.
        setups: set-ups timed (each from spec parse to the end of
            epoch 0); the last one continues into the timed epochs.
        resumes: the fewest timed crash-recovery constructions over
            the journal; short ones repeat up to ``RESUME_SAMPLE_NS``.
        traced: rebind the layer entry points and report per-layer
            metrics (the result then carries ``layers``).
        twin_epochs: leading epochs re-served by a serial twin that
            must render byte-identically (pooled workloads).
        buildings: scale the workload down to this many buildings.
        trace_out: write the spans here as JSONL (traced passes).

    Returns:
        A JSON-serializable result: samples (in reference seconds, with
        the median slowdown they were scaled by), checks and digests.
    """
    load = workload(workload_name)
    spec_seed, stream_seq = workload_seeds(seed, workload_name)
    text = spec_text(load, spec_seed, buildings)
    workdir = Path(tmp)
    stream = workdir / "stream.jsonl"
    result: Dict[str, Any] = {"workload": load.name, "seed": seed,
                              "spec_seed": spec_seed}
    if load.recorded:
        stats = write_wings_stream(parse_fleet_spec(text), stream,
                                   epochs + 1, stream_seq)
        result["stream"] = stats.as_dict()
    workers = (min(2, len(os.sched_getaffinity(0))) if load.pooled
               else None)
    violations: List[str] = []
    tracer = Tracer() if traced else None
    with ExitStack() as cleanup:
        cleanup.callback(shutdown_warm_pools)
        engine: Optional[EngineCallStats] = None
        if tracer is not None:
            _install(tracer, serial=not load.pooled)
            cleanup.callback(tracer.restore)
            if not load.pooled:
                engine = cleanup.enter_context(count_engine_calls())
        setup_s: List[float] = []
        first_epochs: List[str] = []
        for k in range(setups):
            shutdown_warm_pools()  # every set-up pays the pool start
            gc.collect()  # and none inherits the last one's garbage
            journal = workdir / f"journal-{k}.jsonl"
            clock = _EpochClock(tracer, engine)
            clock.start()
            spec = parse_fleet_spec(text)
            source = (RecordedTelemetry.load(stream, spec)
                      if load.recorded else None)
            final = k == setups - 1
            with FleetService(spec, workers=workers, journal=str(journal),
                              source=source) as service:
                reports, _ = service.run(1 + epochs if final else 1,
                                         on_epoch=clock.tick)
            clock.stop()
            setup_s.append(clock.scaled_s()[0])
            first_epochs.append(clock.texts[0])
            if not final:
                journal.unlink()
        if len(set(first_epochs)) != 1:
            violations.append("repeated set-ups rendered different "
                              "bootstrap epochs")
        resume_s: List[float] = []
        resume_ns = 0
        # A crashed service recovers in a fresh process, so this run's
        # own heap is kept out of the collector while resumes are timed.
        gc.collect()
        gc.freeze()
        cleanup.callback(gc.unfreeze)
        # A resume can take tens of milliseconds; sample those until
        # their median is as steady as that of a long resume.
        while len(resume_s) < resumes or (
                resume_ns < RESUME_SAMPLE_NS
                and len(resume_s) < MAX_RESUMES):
            before = slowdown()
            start = time.perf_counter_ns()
            resumed = FleetService(spec, workers=workers,
                                   journal=str(journal), resume=True,
                                   source=source)
            elapsed = time.perf_counter_ns() - start
            resume_ns += elapsed
            resume_s.append(_scaled_s(elapsed, before, slowdown()))
            resumed.close()
            if resumed.epoch != len(reports):
                violations.append(f"resume restored epoch "
                                  f"{resumed.epoch}, expected "
                                  f"{len(reports)}")
        attempted, failed = _tally(reports, violations)
        if twin_epochs:
            with FleetService(spec, source=source) as twin:
                twin_reports, _ = twin.run(twin_epochs)
            for report, text_k in zip(twin_reports, clock.texts):
                if service_module.format_epoch(report) != text_k:
                    failed += 1
                    violations.append(f"epoch {report.epoch} differs "
                                      "from its serial twin")
        journal_bytes = journal.stat().st_size
        if tracer is not None:
            result["layers"] = _layer_metrics(tracer, clock, reports,
                                              journal_bytes)
            if result["layers"]["trace.balance"] > 0.02:
                violations.append("layer self times do not add up to "
                                  "the epoch")
            if trace_out is not None:
                atomic_write_text(trace_out, "".join(
                    json.dumps(s.as_dict()) + "\n" for s in tracer.spans))
    timed = reports[1:]
    result.update({
        "n_users": spec.n_users,
        "n_buildings": spec.n_buildings,
        "setup_s": setup_s,
        "epoch_s": clock.scaled_s()[1:],
        "slowdown": statistics.median(clock.slowdowns),
        "resume_s": resume_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "aggregate_mbps": statistics.fmean(r.aggregate_mbps for r in timed),
        "directives_per_epoch": statistics.fmean(
            len(r.directives) for r in timed),
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "epoch_digests": [hashlib.sha256(t.encode("utf-8")).hexdigest()
                          for t in clock.texts],
    })
    return result


def main(argv: Sequence[str]) -> int:
    request = json.loads(argv[0])
    print(json.dumps(run_pass(**request)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

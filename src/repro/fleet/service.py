"""The fleet association service behind ``wolt serve``.

:class:`FleetService` runs the paper's epoch-driven reconfiguration
loop (Fig. 6b) across a whole campus.  Each epoch:

1. **Telemetry** — every building's scan/capacity report comes from
   the service's :class:`~repro.fleet.ingest.TelemetrySource` seam:
   by default :class:`~repro.fleet.ingest.SyntheticTelemetry` drifts
   the ground-truth rates under the spec's
   :class:`~repro.fleet.spec.TelemetryModel` (seeded per
   ``(building, epoch)``, so any epoch is reproducible in isolation);
   ``wolt serve --from`` swaps in
   :class:`~repro.fleet.ingest.RecordedTelemetry`, replaying a
   validated recorded stream — dirty records surface as *missing*
   reports the service degrades around (last-known-good fallback),
   with the per-class reject counts carried into the epoch report
   and journal.  Either way the building's
   :class:`~repro.core.health.HealthMonitor` folds in the PLC
   reports, and quarantined extenders are masked out of the solve
   exactly like dead ones
   (:func:`repro.core.problem.fail_extenders` semantics).
2. **Sharding** — the effective scenario is split into independent PLC
   segments (:func:`repro.fleet.sharding.split_segments`); all shards
   of all buildings form one work batch.  A building whose effective
   scenario is bit-identical to the one of its last fully clean solve
   reuses that solve's segments and shard results instead: WOLT is a
   pure function of its snapshot, so re-solving would re-derive the
   same association.  Its shards keep their batch indices (and still
   count in ``n_shards``), but only the ones the epoch's chaos plan
   crashes or hangs are dispatched.  A building whose PLC side moved
   but whose WiFi rates and capacities did not keeps its segments
   (the partition depends on the WiFi side only) with each segment's
   PLC rates sliced afresh.  Each of its shards carries that
   segment's :class:`~repro.core.phase2.Phase2Memo`: the last
   :data:`PHASE2_ENTRIES` Phase-II results since the WiFi side last
   changed, keyed by their Phase-I anchors.  Phase I re-runs and a
   stored result stands in for Phase II when its anchors match.  Any
   WiFi-side change (a quarantine change included) starts the memos
   afresh.  A shard failure clears both levels; neither is journaled,
   so a resumed service re-solves once.
3. **Dispatch** — shard solves run through the chunked warm-pool
   dispatch layer (:func:`repro.sim.dispatch.dispatch_chunked`, the
   machinery behind ``run_trials``), bit-identical to the serial
   reference for any worker/chunk count.  Every shard runs under the
   spec's deadline (``health.shard_timeout_s``) and worker retry
   budget: a hung solve is *reaped* past its deadline and a crashed
   one retried up to ``retry_budget`` times, after which either
   becomes an explicit :class:`~repro.sim.dispatch.WorkFailure` whose
   users simply keep their previous association — degraded, never
   stalled.  One poisoned building cannot take the campus down.

   A building whose shards keep failing trips its **circuit breaker**
   (``breaker_strikes`` consecutive bad epochs, mirroring
   :class:`~repro.core.health.HealthMonitor` quarantine): while the
   breaker is open the building skips solving entirely and carries its
   association forward cheaply; after ``breaker_probation_epochs`` it
   gets one probe solve — clean closes the breaker, failed re-opens
   it.  Per-building ``staleness`` counts epochs since the last fully
   clean solve, and breaker state is journaled so resume is
   bit-identical.
4. **Directives** — the per-building diff old → new is emitted as
   :class:`Directive` records with per-move expected aggregate deltas
   (one :class:`~repro.net.engine.DeltaEvaluator` seeded per building
   with its old association, then one incremental commit per move);
   ``dry_run`` previews them without applying anything.
5. **Journal** — applied epochs append one crash-consistent record to
   the :class:`~repro.sim.checkpoint.TrialStore` journal.  Each
   building's entry carries everything a restart needs: the
   assignment, the breaker state, the health monitor's state
   (:meth:`~repro.core.health.HealthMonitor.state`, with the
   ``quarantined`` field as its mask) and ``observed_epoch``, the epoch
   its last real telemetry came from.  Resume restores from the last
   record alone and rebuilds that telemetry from the (pure) source:
   one report per building instead of one per building and journaled
   epoch, and the resumed service continues bit-identically.

Dry-run semantics: the world keeps turning (telemetry is ingested,
health state advances, the epoch counter increments) but **nothing is
applied** — associations stay as they were and the journal is not
written.  Repeated ``--dry-run`` epochs therefore preview what each
successive epoch *would* do against the frozen association state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..core.health import HealthMonitor
from ..core.phase2 import Phase2Memo, Phase2Result
from ..core.problem import (UNASSIGNED, Scenario, fail_extenders,
                            same_bits, servable)
from ..core.wolt import solve_wolt
from ..net.engine import DeltaEvaluator
# Not called here.  fleetbench's tracer rebinds ``service.evaluate``
# by name, so it stays importable until ROADMAP item 2 retires that
# tracer.
from ..net.engine import evaluate  # noqa: F401
from ..sim.checkpoint import CorruptCheckpoint, TrialStore, fingerprint
from ..sim.dispatch import (TIMEOUT_ERROR_TYPE, InterruptState,
                            WorkFailure, WorkSpec, dispatch_chunked,
                            timeout_failure, uses_pool)
from ..sim.faults import InjectedCrash
from .chaos import ShardFaultPlan
from .ingest import StreamExhausted, SyntheticTelemetry, TelemetrySource
from .sharding import Segment, split_segments
from .spec import FleetSpec, build_building_scenario

__all__ = ["BuildingEpoch", "Directive", "EpochReport", "FleetService",
           "format_epoch"]

#: Phase-II results a segment keeps while its WiFi side is unchanged.
#: PLC jitter moves ``c_j/|A|`` across the ``r_ij`` thresholds, so a
#: campus building (``plc_jitter`` only) sees 3.9 distinct anchor sets
#: on average over 60 epochs, and at most 10.  Measured hit rates:
#: 1 entry 51%, 2 76%, 3 87%, 4 92%, 8 95%.
PHASE2_ENTRIES = 4


@dataclass(frozen=True)
class Directive:
    """One association change the service wants to apply.

    Attributes:
        building: building name.
        user: building-local user index.
        old_extender: current extender
            (:data:`~repro.core.problem.UNASSIGNED` for a new
            placement).
        new_extender: target extender
            (:data:`~repro.core.problem.UNASSIGNED` detaches the
            user).
        delta_mbps: expected building-aggregate change from applying
            this directive, in the epoch's directive order.
    """

    building: str
    user: int
    old_extender: int
    new_extender: int
    delta_mbps: float


@dataclass(frozen=True)
class BuildingEpoch:
    """One building's slice of an epoch.

    ``delta_mbps`` compares the directives' outcome against keeping
    the previous association, both scored under *this* epoch's
    effective scenario (telemetry moved between epochs, so comparing
    against last epoch's aggregate would conflate drift with
    decisions).

    ``staleness`` counts epochs since the building last completed a
    fully clean solve (0 = this epoch was clean): it grows while
    shards fail or time out and while the circuit breaker holds the
    building in carry-forward, and is the measure of how degraded the
    building's association is.  ``n_shard_timeouts`` is the subset of
    ``n_shard_failures`` reaped past the deadline.
    """

    building: str
    n_segments: int
    n_shard_failures: int
    n_shard_timeouts: int
    quarantined: Tuple[int, ...]
    aggregate_mbps: float
    delta_mbps: float
    directives: Tuple[Directive, ...]
    staleness: int = 0
    breaker_open: bool = False


@dataclass(frozen=True)
class EpochReport:
    """Everything one epoch decided, across the fleet.

    ``n_degraded_buildings`` counts buildings whose association is
    stale this epoch (``staleness > 0``: failed/timed-out shards or an
    open circuit breaker kept some carry-forward in place).

    ``n_rejected_records``/``rejected`` quantify the ingest boundary:
    how many telemetry records feeding this epoch were classified
    dirty (and per reject class, sorted by class name).  Always zero
    for synthetic telemetry and clean recorded streams — which is
    what keeps their journals byte-identical.
    """

    epoch: int
    buildings: Tuple[BuildingEpoch, ...]
    n_shards: int
    n_shard_failures: int
    n_shard_timeouts: int
    n_degraded_buildings: int
    aggregate_mbps: float
    delta_mbps: float
    applied: bool
    n_rejected_records: int = 0
    rejected: Tuple[Tuple[str, int], ...] = ()

    @property
    def directives(self) -> Tuple[Directive, ...]:
        return tuple(d for b in self.buildings for d in b.directives)


@dataclass(frozen=True)
class _ShardWork:
    """One shard solve: a building index, its segment and the segment's
    Phase-II memo (``None`` when the building's WiFi side changed)."""

    building: int
    segment: Segment
    phase2: Optional[Phase2Memo] = None


class _ShardSolve(NamedTuple):
    """A solved shard: its Phase-I anchors and its Phase-II result,
    whose assignment is the shard's."""

    anchors: np.ndarray
    phase2: Phase2Result


@dataclass(frozen=True)
class _ShardConfig:
    """The batch config for shard solves, shipped in every chunk.

    ``fault_hook`` is the epoch's planned chaos
    (:class:`~repro.sim.faults.CrashSchedule`), called as
    ``hook(shard_index, attempt)`` before each solve attempt.
    """

    plc_mode: str
    retry_budget: int = 0
    fault_hook: Optional[Callable[[int, int], None]] = None


def _solve_shard(config: _ShardConfig, spec: WorkSpec) -> Any:
    """Worker-side shard solve (module-level, picklable).

    Returns a :class:`_ShardSolve`, whose anchors and Phase-II result
    feed the parent's memo; an empty segment (every serving extender
    quarantined away) short-circuits to ``None`` without a solve.
    An :class:`~repro.sim.faults.InjectedCrash` is retried up to
    ``config.retry_budget`` times, then surfaces as an explicit
    :class:`~repro.sim.dispatch.WorkFailure` (real exceptions still
    propagate — this is fault-injection plumbing, not a bug shield).
    """
    work = spec.item
    if work.segment.scenario.n_users == 0:
        return None
    attempts = max(config.retry_budget, 0) + 1
    error = ""
    for attempt in range(attempts):
        try:
            if config.fault_hook is not None:
                config.fault_hook(spec.index, attempt)
            result = solve_wolt(work.segment.scenario,
                                plc_mode=config.plc_mode,
                                reuse=work.phase2)
            return _ShardSolve(result.phase1.assignment, result.phase2)
        except InjectedCrash as exc:
            error = str(exc)
    return WorkFailure(index=spec.index, attempts=attempts,
                       error_type="InjectedCrash", error=error)


def _same_scenario(a: Scenario, b: Scenario) -> bool:
    """Whether two scenarios are bit for bit the same solve input."""
    return (same_bits(a.plc_rates, b.plc_rates)
            and same_bits(a.wifi_rates, b.wifi_rates)
            and same_bits(a.capacities, b.capacities)
            and same_bits(a.user_ids, b.user_ids))


def _same_wifi_side(a: Scenario, b: Scenario) -> bool:
    """Whether two scenarios give Phase II the same input, bit for bit.

    Quarantine masks extenders out of the WiFi rates too, so a
    quarantine change is a WiFi-side change.
    """
    return (same_bits(a.wifi_rates, b.wifi_rates)
            and same_bits(a.capacities, b.capacities))


def _resliced(segments: Sequence[Segment],
              scenario: Scenario) -> Tuple[Segment, ...]:
    """``segments``, split from a scenario with ``scenario``'s WiFi
    side, over ``scenario``'s PLC rates.

    The partition and each segment's WiFi rates and capacities depend
    on the WiFi side alone, so only the PLC slices are taken afresh.
    Effective scenarios carry no ``user_ids``.  A whole-building
    segment takes ``scenario`` itself, as in :func:`split_segments`.
    """
    if len(segments) == 1 and len(segments[0].users) == scenario.n_users:
        return (replace(segments[0], scenario=scenario),)
    return tuple(
        replace(segment, scenario=replace(
            segment.scenario,
            plc_rates=scenario.plc_rates[list(segment.extenders)]))
        for segment in segments)


@dataclass(frozen=True)
class _CleanSolve:
    """A building's last solve in which every shard succeeded.

    ``results`` holds one shard result per segment, in segment order.
    ``phase2`` holds each segment's Phase-II memo (``None`` for an
    empty segment): up to :data:`PHASE2_ENTRIES` results from every
    clean solve since the building's WiFi side last changed.
    """

    scenario: Scenario
    segments: Tuple[Segment, ...]
    results: Tuple[Any, ...]
    phase2: Tuple[Optional[Phase2Memo], ...]


def _remember(segments: Sequence[Segment], results: Sequence[Any],
              memos: Tuple[Optional[Phase2Memo], ...]
              ) -> Tuple[Optional[Phase2Memo], ...]:
    """Each segment's Phase-II memo with this solve's result first.

    ``memos`` are the memos the solve was handed, or ``()`` after a
    WiFi-side change, which starts every segment afresh.
    """
    remembered: List[Optional[Phase2Memo]] = []
    for s, (segment, result) in enumerate(zip(segments, results)):
        if result is None:
            remembered.append(None)
            continue
        memo = (memos[s] if memos else None) or Phase2Memo(
            segment.scenario.wifi_rates, segment.scenario.capacities)
        remembered.append(memo.remember(result.anchors, result.phase2,
                                        PHASE2_ENTRIES))
    return tuple(remembered)


def score_directives(scenario: Scenario, old: np.ndarray,
                     new: np.ndarray, plc_mode: str, building: str
                     ) -> Tuple[float, float, Tuple[Directive, ...]]:
    """The directives of ``old -> new`` and the aggregates around them.

    A :class:`~repro.net.engine.DeltaEvaluator` is seeded with ``old``
    as servable this epoch (users whose extender vanished contribute
    nothing); its aggregate is the baseline, bit-identical to a full
    ``evaluate`` of that assignment.  Moved users are then committed in
    ascending user order; each commit recomputes only the two cells it
    touches and is bit-identical to a full ``evaluate`` of the
    intermediate assignment.  Unlike ``evaluate``, a commit does not
    re-check constraint (8); none is lost, because the effective
    scenarios :meth:`FleetService._observe` builds carry no capacities.

    Returns:
        ``(baseline, aggregate, directives)`` — the aggregate before
        the first and after the last move, and one
        :class:`Directive` per moved user carrying its delta.
    """
    scorer = DeltaEvaluator(scenario, servable(scenario, old),
                            plc_mode=plc_mode)
    baseline = running = scorer.aggregate
    directives: List[Directive] = []
    for user in np.flatnonzero(new != old).tolist():
        moved = scorer.commit(user, int(new[user]))
        directives.append(Directive(
            building=building, user=user, old_extender=int(old[user]),
            new_extender=int(new[user]),
            delta_mbps=float(moved - running)))
        running = moved
    return baseline, running, tuple(directives)


class _BuildingState:
    """Mutable per-building service state (one per spec building)."""

    def __init__(self, spec: FleetSpec, index: int) -> None:
        building = spec.buildings[index]
        self.index = index
        self.name = building.name
        self.circuits = building.circuits
        self.scenario = build_building_scenario(spec, index)
        self.health = HealthMonitor(
            building.n_extenders,
            flap_band=spec.health.flap_band,
            flap_strikes=spec.health.flap_strikes,
            probation_epochs=spec.health.probation_epochs)
        self.assignment = np.full(building.n_users, UNASSIGNED,
                                  dtype=int)
        # The last telemetry actually received — what the service
        # re-decides from when a chaos blackout eats an epoch's report
        # — and the epoch it came from (journaled; see _restore).
        self.last_observed: Optional[
            Tuple[Scenario, Tuple[int, ...]]] = None
        self.observed_epoch = 0
        # Degraded-mode bookkeeping (journaled; see _encode_epoch).
        self.staleness = 0
        self.fail_streak = 0
        self.breaker_open = False
        self.breaker_open_epochs = 0
        # Memo of the last fully clean solve (never journaled).
        self.clean_solve: Optional[_CleanSolve] = None

    def report_or_as_built(
            self, report: Optional[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``report``, or the building's as-built rates when it is None."""
        if report is not None:
            return report
        return (self.scenario.wifi_rates,
                self.scenario.plc_rates.astype(float, copy=True))

    def effective(self, wifi_obs: np.ndarray, plc_obs: np.ndarray
                  ) -> Tuple[Scenario, Tuple[int, ...]]:
        """The solve input of a report under the monitor's current state.

        Last-known-good capacities stand in for bad reports, and the
        quarantined extenders are masked out like dead ones.
        """
        scenario = Scenario(wifi_rates=wifi_obs,
                            plc_rates=self.health.effective_rates(plc_obs))
        quarantined = self.health.quarantined_extenders()
        if quarantined:
            scenario = fail_extenders(scenario, quarantined)
        return scenario, quarantined


class FleetService:
    """Campus-scale association service (the engine of ``wolt serve``).

    Args:
        spec: the parsed fleet specification.
        workers: worker processes for shard dispatch (``None``/0/1 =
            serial in-process; results are bit-identical either way).
        chunk_size: shards per dispatched chunk (``None`` = auto).
        journal: optional path of a crash-consistent JSONL epoch
            journal (:class:`~repro.sim.checkpoint.TrialStore`).
        resume: recover the journal and restore the state its last
            record holds, so the service continues exactly where it
            stopped (requires ``journal``).
        source: where telemetry comes from
            (:class:`~repro.fleet.ingest.TelemetrySource`); ``None``
            synthesizes it in-process
            (:class:`~repro.fleet.ingest.SyntheticTelemetry`).  A
            bounded (recorded) source caps how many epochs can run
            and refuses to combine with a non-trivial chaos model —
            recorded telemetry already is the fault surface, and
            synthetic blackouts would silently shadow real records.

    Every other setting comes from the spec: the per-shard deadline
    and retry budget from ``spec.health`` (a hung in-process solve
    cannot be reaped, so the deadline needs worker processes; planned
    chaos hangs are still honored serially by synthesizing the timeout
    failure parent-side), and the chaos storm from ``spec.chaos``.  A
    non-trivial storm joins the journal fingerprint
    (:meth:`FleetSpec.params`), so a journal written under chaos cannot
    be silently resumed without it.
    """

    def __init__(self, spec: FleetSpec,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 journal: Optional[str] = None,
                 resume: bool = False,
                 source: Optional[TelemetrySource] = None) -> None:
        if resume and journal is None:
            raise ValueError("resume requires a journal path")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.spec = spec
        self.workers = workers
        self.chunk_size = chunk_size
        chaos = spec.chaos
        if (chaos is not None and chaos.hang_prob > 0
                and workers is not None and workers > 1
                and spec.health.shard_timeout_s is None):
            raise ValueError(
                "a chaos model with hang faults needs "
                "health.shard_timeout_s when dispatching to worker "
                "processes (an un-reaped hang stalls the epoch — which "
                "is what the deadline is for)")
        self.source: TelemetrySource = (SyntheticTelemetry(spec)
                                        if source is None else source)
        if (self.source.end_epoch is not None
                and chaos is not None and not chaos.trivial):
            raise ValueError(
                "a recorded telemetry stream cannot run under a chaos "
                "model: the recorded stream already is the fault "
                "surface, and synthetic blackouts would silently "
                "shadow real records")
        self.epoch = 0
        self._buildings = [_BuildingState(spec, i)
                           for i in range(spec.n_buildings)]
        if isinstance(self.source, SyntheticTelemetry):
            # Share the already-built topologies: the source would
            # otherwise rebuild each one (identically) on first use.
            for bstate in self._buildings:
                self.source.prime(bstate.index, bstate.scenario)
        self._store: Optional[TrialStore] = None
        if journal is not None:
            params = spec.params()
            self._store = TrialStore(journal, fingerprint(params),
                                     params=params, resume=resume)
            if resume and self._store.records:
                try:
                    self._restore(self._store.records)
                except BaseException:
                    self._store.close()
                    raise

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # telemetry

    def _observe(self, state: _BuildingState,
                 epoch: int) -> Tuple[Scenario, Tuple[int, ...]]:
        """Ingest one epoch of telemetry for one building.

        Pulls the building's scan/capacity report from the telemetry
        source, folds the PLC reports into the health monitor, and
        returns the *effective* scenario (last-known-good capacities,
        quarantined extenders masked out like dead ones) plus the
        quarantine set.

        A chaos blackout means the epoch's report was lost in transit:
        the service re-decides from the building's previous report
        (health state untouched — the monitor never saw anything).  A
        blackout on the very first epoch has nothing to fall back to
        and degrades to a normal observation.  Blackouts are drawn
        from their own seed stream, so replay sees the same ones.

        A recorded source returning ``None`` (its record for this
        slot was rejected at the ingest boundary, or never arrived)
        degrades the same way: last-known-good when there is one; on
        the very first epoch there is nothing to fall back to, so the
        service decides from the as-built rates — a pristine,
        drift-free report, the least-wrong stand-in that keeps the
        epoch alive.
        """
        chaos = self.spec.chaos
        if (chaos is not None and state.last_observed is not None
                and chaos.blackout(self.spec.seed, state.index, epoch)):
            return state.last_observed
        report = self.source.observe(state.index, epoch)
        if report is None and state.last_observed is not None:
            return state.last_observed
        wifi_obs, plc_obs = state.report_or_as_built(report)
        carrying = np.zeros(state.scenario.n_extenders, dtype=bool)
        attached = state.assignment[state.assignment != UNASSIGNED]
        carrying[attached] = True
        state.health.observe(plc_obs, carrying_traffic=carrying)
        state.last_observed = state.effective(wifi_obs, plc_obs)
        state.observed_epoch = epoch
        return state.last_observed

    # ------------------------------------------------------------------
    # the epoch

    def run_epoch(self, dry_run: bool = False,
                  state: Optional[InterruptState] = None
                  ) -> Optional[EpochReport]:
        """Run one epoch; ``None`` when interrupted mid-dispatch.

        An interrupted epoch is discarded whole (nothing applied,
        nothing journaled) — epochs are atomic.
        """
        epoch = self.epoch
        end_epoch = self.source.end_epoch
        if end_epoch is not None and epoch >= end_epoch:
            raise StreamExhausted(
                f"recorded telemetry stream ends before epoch {epoch} "
                f"(window ends at {end_epoch}); record a longer "
                "stream or run fewer epochs")
        health = self.spec.health
        observed: List[Tuple[Scenario, Tuple[int, ...]]] = [
            self._observe(b, epoch) for b in self._buildings]
        # Circuit-breaker gate: an open breaker skips the solve and
        # carries the association forward cheaply, except on its
        # probation epoch (one probe solve decides re-admission).
        solving = [
            not b.breaker_open
            or b.breaker_open_epochs >= health.breaker_probation_epochs
            for b in self._buildings]
        segments_of: List[Tuple[Segment, ...]] = []
        memos_of: List[Tuple[Optional[Phase2Memo], ...]] = []
        reused: Dict[int, Any] = {}
        n_shards = 0
        for solve, bstate, (scenario, _) in zip(
                solving, self._buildings, observed):
            memo = bstate.clean_solve
            segments: Tuple[Segment, ...] = ()
            memos: Tuple[Optional[Phase2Memo], ...] = ()
            if solve and memo is not None and _same_scenario(
                    memo.scenario, scenario):
                segments, memos = memo.segments, memo.phase2
                reused.update(enumerate(memo.results, start=n_shards))
            elif solve and memo is not None and _same_wifi_side(
                    memo.scenario, scenario):
                segments = _resliced(memo.segments, scenario)
                memos = memo.phase2
            elif solve:
                segments = tuple(
                    split_segments(scenario, circuits=bstate.circuits))
            segments_of.append(segments)
            memos_of.append(memos)
            n_shards += len(segments)
        specs = tuple(
            WorkSpec(index=i, item=work) for i, work in enumerate(
                _ShardWork(building=b, segment=segment,
                           phase2=memos_of[b][s] if memos_of[b] else None)
                for b, segments in enumerate(segments_of)
                for s, segment in enumerate(segments)))
        shard_results = self._dispatch(specs, state, epoch, reused)
        if state is not None and state.interrupted:
            # The epoch is discarded whole, so the counter must not
            # advance: journal resume will re-run this same epoch.
            return None
        cursor = 0
        building_reports: List[BuildingEpoch] = []
        for b, bstate in enumerate(self._buildings):
            segments = segments_of[b]
            results = [shard_results[cursor + s]
                       for s in range(len(segments))]
            cursor += len(segments)
            scenario, quarantined = observed[b]
            if solving[b]:
                building_report = self._settle_building(
                    bstate, scenario, quarantined, segments, results,
                    apply=not dry_run)
                bstate.clean_solve = (
                    None if building_report.n_shard_failures
                    else _CleanSolve(
                        scenario, segments, tuple(results),
                        _remember(segments, results, memos_of[b])))
            else:
                building_report = self._carry_building(
                    bstate, scenario, quarantined, apply=not dry_run)
            building_reports.append(self._update_breaker(
                bstate, building_report, solved=solving[b],
                apply=not dry_run))
        epoch_rejects = self.source.epoch_rejects(epoch)
        report = EpochReport(
            epoch=epoch,
            buildings=tuple(building_reports),
            n_shards=len(specs),
            n_shard_failures=sum(b.n_shard_failures
                                 for b in building_reports),
            n_shard_timeouts=sum(b.n_shard_timeouts
                                 for b in building_reports),
            n_degraded_buildings=sum(
                1 for b in building_reports if b.staleness > 0),
            aggregate_mbps=sum(b.aggregate_mbps
                               for b in building_reports),
            delta_mbps=sum(b.delta_mbps for b in building_reports),
            applied=not dry_run,
            n_rejected_records=sum(epoch_rejects.values()),
            rejected=tuple(sorted(epoch_rejects.items())))
        if not dry_run and self._store is not None:
            self._store.append(epoch, self._encode_epoch(report))
        self.epoch += 1
        return report

    def run(self, epochs: int, dry_run: bool = False,
            state: Optional[InterruptState] = None,
            on_epoch: Optional[Callable[[EpochReport], None]] = None
            ) -> Tuple[List[EpochReport], Optional[str]]:
        """Run ``epochs`` epochs, draining gracefully on interruption.

        Returns ``(reports, interrupted_signal_name)``; on interrupt
        the in-flight epoch is discarded, an ``interrupted`` event is
        journaled, and the service can be resumed later.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        reports: List[EpochReport] = []
        interrupted: Optional[str] = None
        for _ in range(epochs):
            if state is not None and state.interrupted:
                interrupted = state.signal_name
                break
            report = self.run_epoch(dry_run=dry_run, state=state)
            if report is None:  # interrupted mid-epoch
                interrupted = None if state is None else state.signal_name
                break
            reports.append(report)
            if on_epoch is not None:
                on_epoch(report)
        if interrupted is not None and self._store is not None:
            self._store.append_event("interrupted", signal=interrupted,
                                     epoch=self.epoch)
        elif self._store is not None and not dry_run and reports:
            # Clean completion: compact to the canonical snapshot
            # (drops transient events, orders records), so any two
            # services that applied the same epochs leave
            # byte-identical journals regardless of crash/resume
            # history — the property the crash/resume checks diff.
            self._store.snapshot()
        return reports, interrupted

    # ------------------------------------------------------------------
    # internals

    def _dispatch(self, specs: Sequence[WorkSpec],
                  state: Optional[InterruptState],
                  epoch: int, reused: Dict[int, Any]) -> Dict[int, Any]:
        """Solve every shard; per-index results keyed by spec index.

        ``reused`` maps the indices of shards whose building hit its
        clean-solve memo to their memoised results; those are recorded
        as they are, unless the epoch's chaos plan crashes or hangs
        the shard, which then runs (or is reaped) like any other.

        The spec's deadline (``health.shard_timeout_s``) and retry
        budget ride into :func:`~repro.sim.dispatch.dispatch_chunked`,
        so a hung shard is reaped as a timeout :class:`WorkFailure`
        instead of stalling the epoch.  Chaos shard faults for the epoch are
        drawn parent-side (:meth:`FleetFaultModel.shard_plan`) and
        shipped to workers as the batch config's fault hook; when the
        batch runs in-process, planned hangs are recorded as reaped
        here and only the other shards are dispatched.
        """
        results: Dict[int, Any] = {}

        def record(index: int, result: Any) -> None:
            results[index] = result

        health = self.spec.health
        plan: Optional[ShardFaultPlan] = None
        if self.spec.chaos is not None:
            plan = self.spec.chaos.shard_plan(self.spec.seed, epoch,
                                              len(specs))
        config = _ShardConfig(
            plc_mode=self.spec.plc_mode,
            retry_budget=health.retry_budget,
            fault_hook=None if plan is None else plan.schedule)
        if plan is not None and not uses_pool(self.workers,
                                              health.shard_timeout_s):
            # A planned hang cannot be reaped without a process
            # boundary, so the in-process path synthesizes its reaping
            # — same index, same error_type, no sleeping — keeping
            # serial and pooled chaos runs bit-identical.
            for index in plan.hung:
                record(index, timeout_failure(index,
                                              health.shard_timeout_s))
        planned = frozenset(() if plan is None
                            else plan.crashed + plan.hung)
        for index, result in reused.items():
            if index not in planned:
                record(index, result)
        specs = [spec for spec in specs if spec.index not in results]
        dispatch_chunked(specs, config, _solve_shard,
                         workers=self.workers,
                         chunk_size=self.chunk_size,
                         retry_budget=health.retry_budget,
                         timeout_s=health.shard_timeout_s,
                         record=record, state=state)
        return results

    def _settle_building(self, bstate: _BuildingState,
                         scenario: Scenario,
                         quarantined: Tuple[int, ...],
                         segments: Sequence[Segment],
                         results: Sequence[Any],
                         apply: bool) -> BuildingEpoch:
        """Scatter shard results, diff directives, optionally apply."""
        old = bstate.assignment
        n_users = old.shape[0]
        new = np.full(n_users, UNASSIGNED, dtype=int)
        shard_failures = 0
        shard_timeouts = 0
        for segment, result in zip(segments, results):
            if isinstance(result, WorkFailure):
                # Shard quarantine: its users keep their previous
                # association (when still reachable) instead of taking
                # the building down with the failed solve.
                shard_failures += 1
                if result.error_type == TIMEOUT_ERROR_TYPE:
                    shard_timeouts += 1
                if apply and self._store is not None:
                    self._store.append_event(
                        "shard-failure", epoch=self.epoch,
                        building=bstate.name, segment=segment.index,
                        error_type=result.error_type)
                users = list(segment.users)
                new[users] = servable(scenario, old)[users]
                continue
            if result is None:  # an empty segment: nobody to place
                continue
            local = result.phase2.assignment
            users = np.asarray(segment.users, dtype=int)
            keep = local != UNASSIGNED
            new[users[keep]] = np.asarray(segment.extenders,
                                          dtype=int)[local[keep]]
        return self._compose_building_epoch(
            bstate, scenario, quarantined, new,
            n_segments=len(segments), shard_failures=shard_failures,
            shard_timeouts=shard_timeouts, apply=apply)

    def _carry_building(self, bstate: _BuildingState,
                        scenario: Scenario,
                        quarantined: Tuple[int, ...],
                        apply: bool) -> BuildingEpoch:
        """An open-breaker epoch: carry the association forward.

        No shards are solved; users whose extender is no longer usable
        under this epoch's effective scenario are detached — a breaker
        protects the campus from a sick building's solve cost, not from
        invariants.
        """
        return self._compose_building_epoch(
            bstate, scenario, quarantined,
            servable(scenario, bstate.assignment), n_segments=0,
            shard_failures=0, shard_timeouts=0, apply=apply)

    def _compose_building_epoch(self, bstate: _BuildingState,
                                scenario: Scenario,
                                quarantined: Tuple[int, ...],
                                new: np.ndarray, n_segments: int,
                                shard_failures: int,
                                shard_timeouts: int,
                                apply: bool) -> BuildingEpoch:
        """Score ``new``'s directives, optionally apply it.

        Scoring is :func:`score_directives`: one ``DeltaEvaluator``
        seeded with the old association per building (its aggregate is
        the baseline), then one commit per move.
        """
        baseline, aggregate, directives = score_directives(
            scenario, bstate.assignment, new, self.spec.plc_mode,
            bstate.name)
        if apply:
            bstate.assignment = new
        return BuildingEpoch(building=bstate.name,
                             n_segments=n_segments,
                             n_shard_failures=shard_failures,
                             n_shard_timeouts=shard_timeouts,
                             quarantined=quarantined,
                             aggregate_mbps=float(aggregate),
                             delta_mbps=float(aggregate - baseline),
                             directives=directives)

    def _update_breaker(self, bstate: _BuildingState,
                        report: BuildingEpoch, solved: bool,
                        apply: bool) -> BuildingEpoch:
        """Advance one building's breaker/staleness state machine.

        Mirrors :class:`~repro.core.health.HealthMonitor`:
        ``breaker_strikes`` consecutive epochs with shard
        failures/timeouts trip the breaker; an open breaker idles
        toward its probation epoch; a clean probe closes it, a failed
        probe re-opens it.  Like health state, the machine advances in
        dry-run too (``apply`` only gates journal events) — previews
        keep previewing what the next epoch would actually do.

        Returns the building report stamped with the post-update
        staleness and breaker state.
        """
        health = self.spec.health
        if not solved:
            bstate.breaker_open_epochs += 1
            bstate.staleness += 1
        elif report.n_shard_failures > 0:
            bstate.staleness += 1
            if bstate.breaker_open:
                # Failed probe: the open window restarts.
                bstate.breaker_open_epochs = 0
                self._breaker_event("breaker-probe-failed", bstate,
                                    apply)
            else:
                bstate.fail_streak += 1
                if bstate.fail_streak >= health.breaker_strikes:
                    bstate.breaker_open = True
                    bstate.breaker_open_epochs = 0
                    self._breaker_event("breaker-open", bstate, apply)
        else:
            bstate.staleness = 0
            bstate.fail_streak = 0
            if bstate.breaker_open:
                bstate.breaker_open = False
                bstate.breaker_open_epochs = 0
                self._breaker_event("breaker-close", bstate, apply)
        return replace(report, staleness=bstate.staleness,
                       breaker_open=bstate.breaker_open)

    def _breaker_event(self, event: str, bstate: _BuildingState,
                       apply: bool) -> None:
        if apply and self._store is not None:
            self._store.append_event(event, epoch=self.epoch,
                                     building=bstate.name)

    # ------------------------------------------------------------------
    # journaling and resume

    def _encode_epoch(self, report: EpochReport) -> Dict[str, Any]:
        return {
            "aggregate_mbps": report.aggregate_mbps,
            "delta_mbps": report.delta_mbps,
            "n_shards": report.n_shards,
            "n_shard_failures": report.n_shard_failures,
            "n_shard_timeouts": report.n_shard_timeouts,
            "n_degraded_buildings": report.n_degraded_buildings,
            "n_rejected_records": report.n_rejected_records,
            "rejected": {cls: n for cls, n in report.rejected},
            "buildings": [
                {"name": b.building,
                 "assignment": self._buildings[i].assignment.tolist(),
                 "aggregate_mbps": b.aggregate_mbps,
                 "delta_mbps": b.delta_mbps,
                 "n_segments": b.n_segments,
                 "n_shard_timeouts": b.n_shard_timeouts,
                 "quarantined": list(b.quarantined),
                 # State *after* this epoch, so resume restores it
                 # exactly from this record alone (see _restore).
                 "health": self._buildings[i].health.state(),
                 "observed_epoch": self._buildings[i].observed_epoch,
                 "staleness": self._buildings[i].staleness,
                 "fail_streak": self._buildings[i].fail_streak,
                 "breaker_open": self._buildings[i].breaker_open,
                 "breaker_open_epochs":
                     self._buildings[i].breaker_open_epochs,
                 "directives": [[d.user, d.old_extender,
                                 d.new_extender, d.delta_mbps]
                                for d in b.directives]}
                for i, b in enumerate(report.buildings)],
        }

    def _restore(self, records: Mapping[int, Any]) -> None:
        """Restore service state from the last record of an epoch journal.

        Each building entry holds the state after its epoch: the
        assignment, the breaker machine, the health monitor (its mask
        is the ``quarantined`` field) and ``observed_epoch``.  The last
        observation is rebuilt by asking the source for that epoch's
        report again and composing it under the restored monitor, as
        :meth:`_observe` did: blackouts and missing reports never touch
        the monitor, so its state has not moved since.  Only the last
        record is decoded; the continuation is bit-identical to a run
        that was never interrupted (``tests/test_fleet_resume.py``).

        Raises:
            CorruptCheckpoint: the epochs are not contiguous from 0, or
                the last record does not carry a building's state.
        """
        epochs = sorted(records)
        if epochs != list(range(len(epochs))):
            raise CorruptCheckpoint(
                f"fleet journal epochs {epochs} are not contiguous "
                "from 0; refusing to resume")
        last = epochs[-1]
        entries = records[last].get("buildings", [])
        if len(entries) != len(self._buildings):
            raise CorruptCheckpoint(
                f"fleet journal epoch {last} covers {len(entries)} "
                f"buildings, spec has {len(self._buildings)}")
        for bstate, entry in zip(self._buildings, entries):
            try:
                bstate.health.restore(entry["health"],
                                      entry["quarantined"])
                bstate.observed_epoch = int(entry["observed_epoch"])
                bstate.assignment = np.asarray(entry["assignment"],
                                               dtype=int)
                bstate.staleness = int(entry["staleness"])
                bstate.fail_streak = int(entry["fail_streak"])
                bstate.breaker_open = bool(entry["breaker_open"])
                bstate.breaker_open_epochs = int(
                    entry["breaker_open_epochs"])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise CorruptCheckpoint(
                    f"fleet journal epoch {last}, building "
                    f"{bstate.name}: no resumable state ({exc!r}); the "
                    "journal was written by an older version or is "
                    "damaged") from exc
            report = self.source.observe(bstate.index,
                                         bstate.observed_epoch)
            if report is None and bstate.observed_epoch > 0:
                raise CorruptCheckpoint(
                    f"fleet journal says building {bstate.name} was "
                    f"observed at epoch {bstate.observed_epoch}, but "
                    "the telemetry source has no report for it")
            bstate.last_observed = bstate.effective(
                *bstate.report_or_as_built(report))
        self.epoch = last + 1


# ---------------------------------------------------------------------------
# rendering (byte-stable: the dry-run preview is golden-file tested)


def _ext_label(extender: int) -> str:
    return "none" if extender == UNASSIGNED else str(extender)


def format_epoch(report: EpochReport) -> str:
    """Render one epoch as a stable, diff-friendly text block.

    The format is deliberately deterministic — fixed float precision,
    spec ordering, no timestamps — so ``wolt serve --dry-run`` output
    can be diffed against a golden file in CI.
    """
    mode = "preview" if not report.applied else "applied"
    lines = [
        f"epoch {report.epoch} ({mode}): "
        f"{len(report.buildings)} buildings, {report.n_shards} shards"
        f" ({report.n_shard_failures} failed, "
        f"{report.n_shard_timeouts} timed out), "
        f"{report.n_degraded_buildings} degraded, "
        f"{report.n_rejected_records} rejected, "
        f"{len(report.directives)} directives, aggregate "
        f"{report.aggregate_mbps:.6f} Mbps "
        f"({report.delta_mbps:+.6f})"]
    if report.rejected:
        lines.append("  rejected: " + " ".join(
            f"{cls}={n}" for cls, n in report.rejected))
    for building in report.buildings:
        notes = ""
        if building.staleness:
            notes += f" staleness={building.staleness}"
        if building.breaker_open:
            notes += " breaker=open"
        if building.quarantined:
            notes += " quarantined=" + ",".join(
                str(j) for j in building.quarantined)
        lines.append(
            f"  [{building.building}] segments "
            f"{building.n_segments}, aggregate "
            f"{building.aggregate_mbps:.6f} Mbps "
            f"({building.delta_mbps:+.6f}){notes}")
        for d in building.directives:
            lines.append(
                f"    user {d.user}: {_ext_label(d.old_extender)}"
                f" -> {_ext_label(d.new_extender)} "
                f"({d.delta_mbps:+.6f} Mbps)")
    return "\n".join(lines)

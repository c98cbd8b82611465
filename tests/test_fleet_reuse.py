"""Tests for the fleet service's clean-solve memo and its Phase-II level.

A building whose effective scenario is bit-identical to the one of its
last fully clean solve reuses that solve instead of re-splitting and
re-dispatching it.  A building whose PLC side moved but whose WiFi
side did not ships each shard its segment's Phase-II memo, so Phase II
is skipped whenever Phase I repeats the anchors.  The differential
wall runs every case twice, once as shipped and once with both levels
defeated (their key comparisons patched to always miss), and requires
byte-identical epoch text and journals.  The semantics tests count the
work a hit skips, and the fleet invariant is checked over seeded specs
and chaos levels, memo-served epochs included.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.wolt as wolt_module
import repro.fleet.service as service_module
from repro.core.phase2 import Phase2Memo
from repro.core.problem import (MIN_USABLE_RATE, UNASSIGNED, Scenario,
                                same_bits)
from repro.fleet import load_fleet_spec
from repro.fleet.chaos import FleetFaultModel, ShardFaultPlan
from repro.fleet.ingest import (RecordedTelemetry, SyntheticTelemetry,
                                TelemetryRecord, TelemetrySource,
                                read_stream, record_stream)
from repro.fleet.service import FleetService, format_epoch
from repro.fleet.sharding import Segment, split_segments
from repro.fleet.spec import (BuildingSpec, FleetSpec, HealthSettings,
                              TelemetryModel)
from repro.sim.faults import CrashSchedule
from scripts.gates.fleet_chaos import tear_journal_tail
from .conftest import max_examples

#: Telemetry models the specs draw from: ``steady`` repeats every
#: report bit for bit, ``dropout`` loses PLC probes (so quarantine
#: comes and goes between repeats), ``plc`` repeats the scans but
#: never the PLC capacities (the Phase-II level's workload),
#: ``jitter`` never repeats.
TELEMETRY = {
    "steady": TelemetryModel(),
    "dropout": TelemetryModel(dropout=0.3),
    "plc": TelemetryModel(plc_jitter=0.08),
    "jitter": TelemetryModel(wifi_jitter=0.03, plc_jitter=0.08),
}

#: The service's memo keys, each patched to always miss to defeat it.
MEMO_KEYS = ("_same_scenario", "_same_wifi_side")

#: The lookup (see :func:`memo_lookups`) a serial run of each
#: repeating telemetry model must hit for its wall not to be vacuous.
HIT_BY = {"steady": "_same_scenario", "dropout": "_same_scenario",
          "plc": "phase2"}

#: The chaos levels of the fleet invariant.
CHAOS_LEVELS = (0.0, 0.4)

#: The PLC-only smoke fleet whose serial and pooled journals CI compares.
PLC_SMOKE = Path(__file__).parent / "data" / "fleet_smoke_plc.yaml"


def fleet_spec(seed: int, telemetry: str = "steady") -> FleetSpec:
    """A small fleet with one two-segment building."""
    return FleetSpec(
        name="reuse", seed=seed, plc_mode="redistribute",
        buildings=(
            BuildingSpec(name="hq", n_extenders=4, n_users=8,
                         circuits=("a", "a", "b", "b")),
            BuildingSpec(name="lab", n_extenders=3, n_users=6),
            BuildingSpec(name="dorm", n_extenders=3, n_users=5),
        ),
        telemetry=TELEMETRY[telemetry],
        health=HealthSettings(probation_epochs=2, retry_budget=1))


Run = Callable[[Path], Tuple[List[str], Optional[bytes]]]


def _serve(spec: FleetSpec, epochs: int, workdir: Path,
           dry_run: bool = False, **kwargs: Any
           ) -> Tuple[List[str], Optional[bytes]]:
    """Epoch texts and (unless dry-run) the final journal bytes."""
    journal = workdir / "journal.jsonl"
    with FleetService(spec, journal=None if dry_run else str(journal),
                      **kwargs) as service:
        reports, _ = service.run(epochs, dry_run=dry_run)
    texts = [format_epoch(report) for report in reports]
    return texts, None if dry_run else journal.read_bytes()


@contextmanager
def memo_lookups() -> Iterator[Dict[str, List[bool]]]:
    """Record whether each memo lookup hit, per kind of lookup.

    ``_same_scenario`` is the clean-solve memo, ``_same_wifi_side``
    ships a building's Phase-II memos, and ``phase2`` is each
    in-process :meth:`Phase2Memo.lookup` (pooled ones run in workers).
    """
    hits: Dict[str, List[bool]] = {name: [] for name in MEMO_KEYS}
    hits["phase2"] = []

    def spy(name: str, real: Callable[..., Any]) -> Callable[..., Any]:
        def spied(*args: Any) -> Any:
            found = real(*args)
            hits[name].append(bool(found))
            return found
        return spied

    with mock.patch.multiple(service_module, **{
            name: spy(name, getattr(service_module, name))
            for name in MEMO_KEYS}), \
            mock.patch.object(Phase2Memo, "lookup",
                              spy("phase2", Phase2Memo.lookup)):
        yield hits


def memo_is_invisible(run: Run) -> Dict[str, int]:
    """Assert ``run`` is byte-identical with both memo levels defeated.

    Returns how many lookups of each kind hit in the shipped run (see
    :func:`memo_lookups`), so a caller can check the wall is not
    vacuous.
    """
    with tempfile.TemporaryDirectory() as tmp:
        shipped_dir, defeated_dir = Path(tmp, "memo"), Path(tmp, "none")
        shipped_dir.mkdir()
        defeated_dir.mkdir()
        with memo_lookups() as hits:
            shipped = run(shipped_dir)
        with mock.patch.multiple(service_module, **{
                name: lambda a, b: False for name in MEMO_KEYS}):
            defeated = run(defeated_dir)
    assert shipped[0] == defeated[0]
    assert shipped[1] == defeated[1]
    return {name: sum(found) for name, found in hits.items()}


@contextmanager
def counting(*names: str) -> Iterator[Dict[str, int]]:
    """Count calls to ``repro.fleet.service`` module names."""
    calls = {name: 0 for name in names}

    def wrap(name: str) -> Callable[..., Any]:
        real = getattr(service_module, name)

        def counted(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    with mock.patch.multiple(service_module,
                             **{name: wrap(name) for name in names}):
        yield calls


def _same_segment(a: Segment, b: Segment) -> bool:
    """Whether two segments match field for field, arrays bit for bit."""
    for field in fields(Segment):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name != "scenario":
            if x != y:
                return False
        elif not all(same_bits(getattr(x, f.name), getattr(y, f.name))
                     for f in fields(Scenario)):
            return False
    return True


# ---------------------------------------------------------------------------
# the differential wall


class TestMemoIsInvisible:
    @given(seed=st.integers(0, 2**16),
           telemetry=st.sampled_from(sorted(TELEMETRY)),
           level=st.sampled_from(CHAOS_LEVELS),
           dry_run=st.booleans())
    @settings(max_examples=max_examples(6), deadline=None)
    def test_serial_runs_match(self, seed: int, telemetry: str,
                               level: float, dry_run: bool) -> None:
        spec = fleet_spec(seed, telemetry)
        model = FleetFaultModel.from_level(level)
        hits = memo_is_invisible(lambda workdir: _serve(
            replace(spec, chaos=model), 5, workdir, dry_run=dry_run))
        if telemetry == "steady" and level == 0.0:
            assert hits["_same_scenario"] == 4 * spec.n_buildings

    @pytest.mark.parametrize("seed, telemetry", [
        (3, "steady"), (11, "steady"), (3, "plc")])
    def test_pooled_runs_match(self, seed: int, telemetry: str) -> None:
        # Crashes only: a planned hang on the pool costs a real
        # deadline, and the serial wall above covers hang synthesis.
        # Pooled Phase-II lookups run in the workers, so a PLC-only
        # fleet counts the memos the parent ships.
        storm = FleetFaultModel(blackout_prob=0.1, crash_prob=0.3,
                                crash_attempts=2)
        spec = fleet_spec(seed, telemetry)
        key = "_same_wifi_side" if telemetry == "plc" else "_same_scenario"
        assert memo_is_invisible(lambda workdir: _serve(
            spec, 4, workdir, workers=2))[key] > 0
        assert memo_is_invisible(lambda workdir: _serve(
            replace(spec, chaos=storm), 4, workdir, workers=2))[key] > 0

    @pytest.mark.parametrize("seed, telemetry, level, dry_run", [
        (5, "steady", 0.4, False),
        (8, "dropout", 0.0, True),
        (2, "plc", 0.0, False),
        (5, "plc", 0.4, False),
        (8, "plc", 0.0, True),
    ], ids=["chaos-storm", "dry-run", "plc", "plc-chaos-storm",
            "plc-dry-run"])
    def test_seeded_runs_hit_and_match(self, seed: int, telemetry: str,
                                       level: float,
                                       dry_run: bool) -> None:
        spec = fleet_spec(seed, telemetry)
        model = FleetFaultModel.from_level(level)
        assert memo_is_invisible(lambda workdir: _serve(
            replace(spec, chaos=model), 6, workdir,
            dry_run=dry_run))[HIT_BY[telemetry]] > 0

    @pytest.mark.parametrize("telemetry", ["steady", "plc"])
    @pytest.mark.parametrize("level", CHAOS_LEVELS)
    def test_crash_and_resume_matches_a_straight_run(
            self, level: float, telemetry: str) -> None:
        # The memo is never journaled: the resumed service starts
        # empty and re-solves once, and still writes the same bytes.
        spec = replace(fleet_spec(13, telemetry),
                       chaos=FleetFaultModel.from_level(level))

        def crash_and_resume(workdir: Path
                             ) -> Tuple[List[str], Optional[bytes]]:
            journal = str(workdir / "journal.jsonl")
            with FleetService(spec, journal=journal) as first:
                texts = [format_epoch(first.run_epoch())
                         for _ in range(3)]
            tear_journal_tail(journal)
            with FleetService(spec, journal=journal,
                              resume=True) as second:
                assert second.epoch == 3
                assert all(b.clean_solve is None
                           for b in second._buildings)
                reports, _ = second.run(3)
            texts += [format_epoch(report) for report in reports]
            return texts, Path(journal).read_bytes()

        assert memo_is_invisible(crash_and_resume)[HIT_BY[telemetry]] > 0
        with tempfile.TemporaryDirectory() as tmp:
            resumed, straight = Path(tmp, "resumed"), Path(tmp, "straight")
            resumed.mkdir()
            straight.mkdir()
            assert crash_and_resume(resumed) == _serve(spec, 6, straight)

    def test_recorded_replay_of_repeating_reports_matches(self) -> None:
        spec = fleet_spec(21, "jitter")
        epochs = 5
        source = SyntheticTelemetry(spec)
        lines = [record_stream(spec, epochs).split("\n", 1)[0]]
        last: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for epoch in range(epochs):
            for b, building in enumerate(spec.buildings):
                # Buildings 0 and 2 re-send their epoch-0 report.
                if epoch == 0 or b == 1:
                    last[b] = source.observe(b, epoch)
                wifi, plc = last[b]
                lines.append(TelemetryRecord(
                    building=building.name, epoch=epoch, wifi=wifi,
                    plc=plc).encode())
        stream = read_stream("\n".join(lines) + "\n", spec)
        assert not stream.counts
        hits = memo_is_invisible(lambda workdir: _serve(
            spec, epochs, workdir,
            source=RecordedTelemetry(stream, spec)))
        assert hits["_same_scenario"] == 2 * (epochs - 1)


# ---------------------------------------------------------------------------
# what a hit skips, and what makes a miss


class _EditedTelemetry(TelemetrySource):
    """The spec's synthetic telemetry with ``edit(building, epoch, wifi,
    plc)`` applied in place to a copy of each report."""

    def __init__(self, spec: FleetSpec,
                 edit: Callable[[int, int, np.ndarray, np.ndarray],
                                None]) -> None:
        self.inner = SyntheticTelemetry(spec)
        self.edit = edit

    def observe(self, building: int, epoch: int
                ) -> Tuple[np.ndarray, np.ndarray]:
        wifi, plc = self.inner.observe(building, epoch)
        wifi, plc = wifi.copy(), plc.copy()
        self.edit(building, epoch, wifi, plc)
        return wifi, plc


class TestReuseSemantics:
    def test_steady_fleet_solves_each_building_once(self) -> None:
        service = FleetService(fleet_spec(2))
        with counting("solve_wolt", "split_segments") as calls:
            first = service.run_epoch()
            solved = calls["solve_wolt"]
            later = [service.run_epoch() for _ in range(4)]
        assert calls["split_segments"] == service.spec.n_buildings
        assert calls["solve_wolt"] == solved == first.n_shards
        # Reused shards still count, and reuse changes no decision.
        assert all(r.n_shards == first.n_shards for r in later)
        assert all(r.directives == () and r.delta_mbps == 0.0
                   for r in later)

    def test_shard_failure_clears_the_slot_and_redispatches(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        service = FleetService(replace(fleet_spec(2),
                                       chaos=FleetFaultModel()))
        service.run_epoch()
        assert all(b.clean_solve is not None for b in service._buildings)

        def plan(model: FleetFaultModel, seed: int, epoch: int,
                 n_shards: int) -> ShardFaultPlan:
            # Shard 0 (building hq) crashes past the retry budget in
            # epoch 1, although hq hits the memo then.
            if epoch != 1:
                return ShardFaultPlan(crashed=(), hung=(), schedule=None)
            return ShardFaultPlan(crashed=(0,), hung=(),
                                  schedule=CrashSchedule(crashes={0: 2}))

        monkeypatch.setattr(FleetFaultModel, "shard_plan", plan)
        hq = service._buildings[0]
        assert hq.clean_solve is not None
        hq_solves = sum(1 for segment in hq.clean_solve.segments
                        if segment.scenario.n_users)
        with counting("solve_wolt", "split_segments") as calls:
            crashed = service.run_epoch()
            assert crashed.n_shard_failures == 1
            assert calls == {"solve_wolt": 0, "split_segments": 0}
            assert hq.clean_solve is None
            assert all(b.clean_solve is not None
                       for b in service._buildings[1:])
            service.run_epoch()
            redispatched = {"solve_wolt": hq_solves, "split_segments": 1}
            assert calls == redispatched
            assert hq.clean_solve is not None
            service.run_epoch()
            assert calls == redispatched

    def test_quarantine_change_is_a_miss(self) -> None:
        spec = fleet_spec(2)

        def drop_probe(building: int, epoch: int, wifi: np.ndarray,
                       plc: np.ndarray) -> None:
            if building == 1 and epoch == 2:
                plc[1] = np.nan

        service = FleetService(spec, source=_EditedTelemetry(
            spec, drop_probe))
        with counting("split_segments") as calls:
            reports = [service.run_epoch() for _ in range(3)]
        assert reports[2].buildings[1].quarantined == (1,)
        # Epoch 0 splits all three; epoch 2 re-splits the lab only.
        assert calls["split_segments"] == spec.n_buildings + 1

    def test_signed_zero_flip_is_a_miss(self) -> None:
        spec = fleet_spec(2)

        def sign_flip(building: int, epoch: int, wifi: np.ndarray,
                      plc: np.ndarray) -> None:
            if building == 2:
                wifi[0, 0] = -0.0 if epoch == 1 else 0.0

        service = FleetService(spec, source=_EditedTelemetry(
            spec, sign_flip))
        with counting("split_segments") as calls:
            for _ in range(4):
                service.run_epoch()
        # Epochs 1 and 2 each flip dorm's sign; epoch 3 repeats 2.
        assert calls["split_segments"] == spec.n_buildings + 2

    @pytest.mark.parametrize("telemetry", [
        TELEMETRY["plc"], TelemetryModel(plc_jitter=0.08, dropout=0.3)],
        ids=["plc", "plc-quarantine"])
    def test_unchanged_partition_is_resliced_not_resplit(
            self, telemetry: TelemetryModel) -> None:
        spec = replace(fleet_spec(4), telemetry=telemetry)
        service = FleetService(spec)
        quarantines = set()
        with counting("split_segments", "_resliced") as calls:
            for _ in range(8):
                report = service.run_epoch()
                quarantines |= {b.quarantined for b in report.buildings}
                for bstate in service._buildings:
                    memo = bstate.clean_solve
                    assert memo is not None
                    scenario = memo.scenario
                    assert scenario is bstate.last_observed[0]
                    want = split_segments(scenario, bstate.circuits)
                    assert len(memo.segments) == len(want)
                    for got, ref in zip(memo.segments, want):
                        assert _same_segment(got, ref)
                        assert ((got.scenario is scenario)
                                == (ref.scenario is scenario))
        assert calls["_resliced"] > 0
        # Epoch 0 splits every building; a quarantine change (a WiFi
        # side change) splits one again.
        assert (calls["split_segments"] > spec.n_buildings) == (
            len(quarantines) > 1)
        if telemetry.dropout:
            assert len(quarantines) > 1

    @pytest.mark.parametrize("change", [
        "wifi_sign", "plc_sign", "quarantine", "shape", "capacities",
        "user_ids"])
    def test_key_is_bitwise(self, change: str) -> None:
        wifi = np.array([[0.0, 12.0], [30.0, 0.0]])
        plc = np.array([40.0, 0.0])
        base = Scenario(wifi_rates=wifi, plc_rates=plc)
        assert service_module._same_scenario(
            base, Scenario(wifi_rates=wifi.copy(), plc_rates=plc.copy()))
        if change == "wifi_sign":
            other = Scenario(wifi_rates=np.where(wifi == 0, -0.0, wifi),
                             plc_rates=plc)
        elif change == "plc_sign":
            other = Scenario(wifi_rates=wifi,
                             plc_rates=np.array([40.0, -0.0]))
        elif change == "quarantine":
            masked = wifi.copy()
            masked[:, 0] = 0.0
            other = Scenario(wifi_rates=masked,
                             plc_rates=np.array([0.0, 0.0]))
        elif change == "shape":
            other = Scenario(wifi_rates=wifi[:1], plc_rates=plc)
        elif change == "capacities":
            other = Scenario(wifi_rates=wifi, plc_rates=plc,
                             capacities=np.array([2, 2]))
        else:
            other = Scenario(wifi_rates=wifi, plc_rates=plc,
                             user_ids=np.array([0, 1]))
        assert not service_module._same_scenario(base, other)
        assert not service_module._same_scenario(other, base)


class TestPhase2Reuse:
    def test_plc_only_fleet_runs_phase2_less_often(self) -> None:
        service = FleetService(fleet_spec(2, "plc"))
        phase2 = [0]
        real = wolt_module.solve_phase2

        def counted(*args: Any, **kwargs: Any) -> Any:
            phase2[0] += 1
            return real(*args, **kwargs)

        with counting("solve_wolt", "split_segments") as calls, \
                mock.patch.object(wolt_module, "solve_phase2", counted):
            for _ in range(8):
                service.run_epoch()
        # Only epoch 0 splits (the WiFi side never moves) and every
        # epoch re-runs Phase I (the PLC side does), but Phase II runs
        # only on anchors not seen before.
        assert calls["split_segments"] == service.spec.n_buildings
        assert 0 < phase2[0] < calls["solve_wolt"]

    def test_plc_smoke_spec_reuses_phase2(self) -> None:
        spec = load_fleet_spec(str(PLC_SMOKE))
        assert spec.telemetry == TelemetryModel(plc_jitter=0.05)
        with memo_lookups() as hits:
            FleetService(spec).run(8)
        assert any(hits["phase2"])

    @staticmethod
    def _memos(service: FleetService) -> List[Tuple[Any, ...]]:
        return [() if b.clean_solve is None else b.clean_solve.phase2
                for b in service._buildings]

    def test_memos_stay_bounded_and_feed_from_workers(self) -> None:
        keys: Dict[Optional[int], List[List[Any]]] = {}
        for workers in (None, 2):
            with FleetService(fleet_spec(2, "plc"),
                              workers=workers) as service:
                service.run(10)
                keys[workers] = [
                    [None if m is None
                     else [anchors.tobytes() for anchors, _ in m.entries]
                     for m in memos] for memos in self._memos(service)]
        # Pooled shards return their anchors and Phase-II results, so
        # the parent's memos hold the same keys as serial ones.
        assert keys[2] == keys[None]
        sizes = [len(k) for memos in keys[None] for k in memos if k]
        assert max(sizes) > 1
        assert all(n <= service_module.PHASE2_ENTRIES for n in sizes)

    @pytest.mark.parametrize("change", ["wifi", "quarantine"])
    def test_wifi_side_change_starts_the_memos_afresh(
            self, change: str) -> None:
        spec = fleet_spec(2, "plc")

        def edit(building: int, epoch: int, wifi: np.ndarray,
                 plc: np.ndarray) -> None:
            if building != 1 or epoch != 5:
                return
            if change == "wifi":
                wifi[0, 0] = np.nextafter(wifi[0, 0], np.inf)
            else:
                plc[1] = np.nan

        service = FleetService(spec, source=_EditedTelemetry(spec, edit))
        for _ in range(5):
            service.run_epoch()
        before = self._memos(service)
        # The lab's one segment has met more than one anchor set.
        assert [len(m.entries) for m in before[1]] == [2]
        report = service.run_epoch()
        if change == "quarantine":
            assert report.buildings[1].quarantined == (1,)
        after = self._memos(service)
        lab = service._buildings[1].clean_solve
        assert lab is not None
        assert [len(m.entries) for m in after[1]] == [1]
        assert lab.phase2[0].wifi_rates is lab.segments[0].scenario.wifi_rates
        # The other buildings kept theirs.
        for b in (0, 2):
            assert all(len(m.entries) >= len(o.entries)
                       for m, o in zip(after[b], before[b]) if m)


# ---------------------------------------------------------------------------
# the fleet invariant


@given(seed=st.integers(0, 2**16),
       telemetry=st.sampled_from(sorted(TELEMETRY)),
       level=st.sampled_from(CHAOS_LEVELS))
@settings(max_examples=max_examples(8), deadline=None)
def test_no_user_is_applied_onto_an_unusable_extender(
        seed: int, telemetry: str, level: float) -> None:
    """No applied association uses a quarantined or dead link.

    Checked after every epoch against that epoch's effective scenario,
    including epochs whose buildings were served from the memo.
    """
    service = FleetService(replace(fleet_spec(seed, telemetry),
                                   chaos=FleetFaultModel.from_level(level)))
    with memo_lookups() as hits:
        for _ in range(6):
            report = service.run_epoch()
            for bstate, building in zip(service._buildings,
                                        report.buildings):
                assert bstate.last_observed is not None
                scenario, quarantined = bstate.last_observed
                assert building.quarantined == quarantined
                users = np.flatnonzero(bstate.assignment != UNASSIGNED)
                extenders = bstate.assignment[users]
                assert not set(extenders.tolist()) & set(quarantined)
                assert np.all(scenario.wifi_rates[users, extenders]
                              > MIN_USABLE_RATE)
    if telemetry == "steady" and level == 0.0:
        assert sum(hits["_same_scenario"]) == 5 * service.spec.n_buildings

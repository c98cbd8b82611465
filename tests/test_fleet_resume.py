"""Resume of the fleet service from the last journal record.

A resumed :class:`~repro.fleet.service.FleetService` restores each
building's state from the last epoch record alone.  The reference is
:func:`tests.oracles.replay_fleet_journal`, which re-observes every
building at every journaled epoch.  The property: after a crash at any
epoch, over random specs, chaos levels and synthetic or recorded
streams with rejected records, the restored state equals the replayed
one bit for bit, and the continuation prints and journals what a run
that never crashed does.
"""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import CHECKPOINT_ERROR_EXIT, main
from repro.fleet import load_fleet_spec
from repro.fleet.chaos import FleetFaultModel
from repro.fleet.ingest import (RecordedTelemetry, TelemetrySource,
                                read_stream, record_stream)
from repro.fleet.service import FleetService, _same_scenario, format_epoch
from repro.fleet.spec import (BuildingSpec, FleetSpec, HealthSettings,
                              TelemetryModel)
from repro.sim.checkpoint import CorruptCheckpoint, atomic_write_text
from scripts.gates.fleet_chaos import tear_journal_tail
from .conftest import max_examples
from .oracles import replay_fleet_journal

DATA = Path(__file__).parent / "data"

TELEMETRY = {
    "steady": TelemetryModel(),
    "dropout": TelemetryModel(dropout=0.3),
    "jitter": TelemetryModel(wifi_jitter=0.03, plc_jitter=0.3,
                             dropout=0.1),
}

CHAOS_LEVELS = (0.0, 0.4)

#: ``make_source()`` builds a fresh telemetry source (``None``:
#: synthetic) for each service of one case.
SourceFactory = Callable[[], Optional[TelemetrySource]]


def fleet_spec(seed: int, telemetry: str = "jitter", level: float = 0.0,
               sizes: Sequence[Tuple[int, int]] = ((4, 8), (3, 5)),
               probation: int = 2) -> FleetSpec:
    """A small fleet; a four-extender building has two circuits."""
    buildings = tuple(
        BuildingSpec(name=f"b{i}", n_extenders=ext, n_users=users,
                     circuits=("a", "a", "b", "b") if ext == 4 else None)
        for i, (ext, users) in enumerate(sizes))
    return FleetSpec(
        name="resume", seed=seed, plc_mode="redistribute",
        buildings=buildings, telemetry=TELEMETRY[telemetry],
        health=HealthSettings(flap_strikes=1, probation_epochs=probation,
                              breaker_strikes=1,
                              breaker_probation_epochs=1),
        chaos=FleetFaultModel.from_level(level) if level else None)


def recorded(spec: FleetSpec, epochs: int,
             dropped: Sequence[Tuple[int, int]],
             garbled: Sequence[Tuple[int, int]] = ()) -> SourceFactory:
    """A stream of ``spec``'s telemetry with some records rejected.

    ``dropped`` ``(building, epoch)`` slots are missing; ``garbled``
    ones are replaced by a line that fails its checksum.
    """
    header, *lines = record_stream(spec, epochs).rstrip("\n").split("\n")
    kept = [header]
    for k, line in enumerate(lines):
        slot = (k % spec.n_buildings, k // spec.n_buildings)
        if slot in garbled:
            kept.append(line.replace('"crc":"', '"crc":"0', 1))
        elif slot not in dropped:
            kept.append(line)
    stream = read_stream("\n".join(kept) + "\n", spec)
    assert stream.counts or not (dropped or garbled)
    return lambda: RecordedTelemetry(stream, spec)


def assert_same_state(resumed: FleetService, oracle: FleetService) -> None:
    """Bit-for-bit equality of everything a continuation reads."""
    assert resumed.epoch == oracle.epoch
    for got, want in zip(resumed._buildings, oracle._buildings):
        assert got.assignment.dtype == want.assignment.dtype
        assert got.assignment.tobytes() == want.assignment.tobytes()
        for name in ("_quarantined", "_flap_count", "_clean_streak",
                     "_last_seen", "_last_good"):
            a, b = getattr(got.health, name), getattr(want.health, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name  # NaN positions too
        assert got.health.epoch == want.health.epoch
        assert got.observed_epoch == want.observed_epoch
        assert got.last_observed is not None
        assert want.last_observed is not None
        assert _same_scenario(got.last_observed[0], want.last_observed[0])
        assert got.last_observed[1] == want.last_observed[1]
        assert (got.staleness, got.fail_streak, got.breaker_open,
                got.breaker_open_epochs) == (
            want.staleness, want.fail_streak, want.breaker_open,
            want.breaker_open_epochs)


def crash_and_resume(spec: FleetSpec, make_source: SourceFactory,
                     crash_at: int, total: int, workdir: Path
                     ) -> List[Tuple[int, Tuple[int, ...]]]:
    """Crash after ``crash_at`` epochs, resume, check, run to ``total``.

    Checks the restored service against the replay oracle and its
    continuation against a run that never crashed.  Returns each
    building's restored ``(observed_epoch, quarantined extenders)``.
    """
    cold_path = workdir / "cold.jsonl"
    with FleetService(spec, journal=str(cold_path),
                      source=make_source()) as cold:
        expected = [format_epoch(r) for r in cold.run(total)[0]]
    path = workdir / "resumed.jsonl"
    with FleetService(spec, journal=str(path),
                      source=make_source()) as first:
        texts = [format_epoch(first.run_epoch()) for _ in range(crash_at)]
    tear_journal_tail(path)
    with FleetService(spec, journal=str(path), resume=True,
                      source=make_source()) as resumed:
        assert resumed._store is not None
        oracle = FleetService(spec, source=make_source())
        replay_fleet_journal(oracle, resumed._store.records)
        assert_same_state(resumed, oracle)
        restored = [(b.observed_epoch, b.health.quarantined_extenders())
                    for b in resumed._buildings]
        texts += [format_epoch(r)
                  for r in resumed.run(total - crash_at)[0]]
    assert texts == expected
    assert path.read_bytes() == cold_path.read_bytes()
    return restored


@st.composite
def cases(draw: st.DrawFn) -> Tuple[FleetSpec, SourceFactory, int, int]:
    sizes = draw(st.lists(st.tuples(st.integers(2, 4), st.integers(1, 7)),
                          min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**16))
    telemetry = draw(st.sampled_from(sorted(TELEMETRY)))
    total = draw(st.integers(2, 6))
    crash_at = draw(st.integers(1, total - 1))
    probation = draw(st.integers(1, 3))
    if draw(st.booleans()):
        spec = fleet_spec(seed, telemetry, draw(st.sampled_from(
            CHAOS_LEVELS)), sizes, probation)
        return spec, lambda: None, crash_at, total
    spec = fleet_spec(seed, telemetry, 0.0, sizes, probation)
    slots = st.tuples(st.integers(0, len(sizes) - 1),
                      st.integers(0, total - 1))
    dropped = draw(st.lists(slots, max_size=4))
    garbled = draw(st.lists(slots, max_size=2))
    if not draw(st.booleans()):
        # A rejected record in the last journaled epoch (the simplest
        # draw keeps it, so most examples have one).
        dropped.append((draw(st.integers(0, len(sizes) - 1)),
                        crash_at - 1))
    return (spec, recorded(spec, total, dropped, garbled), crash_at,
            total)


class TestResumeMatchesReplay:
    @given(case=cases())
    @settings(max_examples=max_examples(15), deadline=None)
    def test_random_fleets(
            self, case: Tuple[FleetSpec, SourceFactory, int, int]) -> None:
        spec, make_source, crash_at, total = case
        with tempfile.TemporaryDirectory() as tmp:
            crash_and_resume(spec, make_source, crash_at, total, Path(tmp))

    def test_blackout_in_the_final_journaled_epoch(self,
                                                   tmp_path: Path) -> None:
        # The blacked-out building decides from an older observation,
        # which the resume must rebuild from that older epoch.
        crash_at = 3
        model = FleetFaultModel.from_level(0.4)
        seed = next(s for s in range(1000)
                    if model.blackout(s, 0, crash_at - 1)
                    and not model.blackout(s, 0, crash_at - 2))
        spec = fleet_spec(seed, level=0.4)
        restored = crash_and_resume(spec, lambda: None, crash_at, 5,
                                    tmp_path)
        assert restored[0][0] == crash_at - 2

    def test_rejected_record_in_the_final_journaled_epoch(
            self, tmp_path: Path) -> None:
        spec = fleet_spec(9)
        source = recorded(spec, 5, dropped=[(1, 2)], garbled=[(0, 2)])
        restored = crash_and_resume(spec, source, 3, 5, tmp_path)
        assert [epoch for epoch, _ in restored] == [1, 1]

    @pytest.mark.parametrize("crash_at", [1, 2])
    def test_missing_first_report_falls_back_to_as_built(
            self, tmp_path: Path, crash_at: int) -> None:
        spec = fleet_spec(4, "dropout")
        source = recorded(spec, 4, dropped=[(0, 0), (0, 1)])
        restored = crash_and_resume(spec, source, crash_at, 4, tmp_path)
        assert restored[0][0] == 0

    def test_quarantine_survives_resume(self, tmp_path: Path) -> None:
        spec = fleet_spec(2, "jitter", sizes=((4, 8), (3, 5), (3, 6)),
                          probation=3)
        restored = crash_and_resume(spec, lambda: None, 4, 7, tmp_path)
        assert any(quarantined for _, quarantined in restored)


class TestJournalFormat:
    def test_lines_are_strict_json_under_dropout(self,
                                                 tmp_path: Path) -> None:
        def reject(constant: str) -> None:
            raise ValueError(f"non-standard JSON constant {constant}")

        spec = replace(fleet_spec(1), telemetry=TelemetryModel(dropout=0.8))
        path = tmp_path / "fleet.jsonl"
        with FleetService(spec, journal=str(path)) as service:
            service.run(4)
            seen = [b.health._last_seen for b in service._buildings]
        assert any(np.isnan(values).any() for values in seen)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            json.loads(line, parse_constant=reject)

    def test_journal_without_resumable_state_is_refused(self, tmp_path: Path,
                                              capsys: pytest.CaptureFixture[str]
                                              ) -> None:
        spec = tmp_path / "tiny.yaml"
        spec.write_text("fleet: {name: tiny, seed: 5}\n"
                        "buildings:\n"
                        "  - {name: hq, extenders: 2, users: 2}\n")
        journal = tmp_path / "fleet.jsonl"
        argv = ["serve", "--spec", str(spec), "--epochs", "1",
                "--quiet", "--journal", str(journal)]
        assert main(argv) == 0
        header = journal.read_text().splitlines()[0]
        # A record as the replaying resume journaled it: no health
        # state and no observed epoch.
        atomic_write_text(journal, header + "\n" + (
            '{"index":0,"kind":"record","payload":{"aggregate_mbps":'
            '2.228391,"buildings":[{"aggregate_mbps":2.228391,'
            '"assignment":[0,1],"breaker_open":false,'
            '"breaker_open_epochs":0,"delta_mbps":2.228391,"directives":'
            '[[0,-1,0,4.456782],[1,-1,1,-2.228391]],"fail_streak":0,'
            '"n_segments":1,"n_shard_timeouts":0,"name":"hq",'
            '"quarantined":[],"staleness":0}],"delta_mbps":2.228391,'
            '"n_degraded_buildings":0,"n_rejected_records":0,'
            '"n_shard_failures":0,"n_shard_timeouts":0,"n_shards":1,'
            '"rejected":{}}}') + "\n")
        capsys.readouterr()
        assert main(argv + ["--resume"]) == CHECKPOINT_ERROR_EXIT
        out = capsys.readouterr()
        assert out.err.startswith("checkpoint error:")
        assert "Traceback" not in out.err
        assert "epoch 1" not in out.out
        with pytest.raises(CorruptCheckpoint, match="no resumable state"):
            FleetService(load_fleet_spec(str(spec)), journal=str(journal),
                         resume=True)

    @pytest.mark.parametrize("field, damage", [
        ("assignment", lambda a, n_ext: a[:-1]),
        ("assignment", lambda a, n_ext: a + [0]),
        ("assignment", lambda a, n_ext: [n_ext] + a[1:]),
        ("assignment", lambda a, n_ext: [-2] + a[1:]),
        ("quarantined", lambda q, n_ext: [-1]),
        ("quarantined", lambda q, n_ext: [n_ext]),
    ], ids=["short-assignment", "long-assignment", "past-last-extender",
            "below-unassigned", "negative-quarantine",
            "past-last-quarantine"])
    def test_damaged_building_state_is_refused(
            self, tmp_path: Path, field: str,
            damage: Callable[[List[int], int], List[int]]) -> None:
        # Resumed, each damage would kill the next epoch with a
        # traceback or serve with the wrong extender masked out.
        path = tmp_path / "fleet.jsonl"
        spec = fleet_spec(3)
        with FleetService(spec, journal=str(path)) as service:
            service.run(2)
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        building = record["payload"]["buildings"][0]
        building[field] = damage(building[field],
                                 spec.buildings[0].n_extenders)
        lines[-1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptCheckpoint, match="no resumable state"):
            FleetService(spec, journal=str(path), resume=True)

    def test_gap_in_the_epochs_is_refused(self, tmp_path: Path) -> None:
        path = tmp_path / "fleet.jsonl"
        spec = fleet_spec(3)
        with FleetService(spec, journal=str(path)) as service:
            service.run(3)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1], lines[3]]) + "\n")
        with pytest.raises(CorruptCheckpoint, match="contiguous"):
            FleetService(spec, journal=str(path), resume=True)


class TestMemory:
    @staticmethod
    def retained_after(epochs: int, workdir: Path) -> int:
        """Bytes a journaled smoke service still holds after ``epochs``."""
        spec = load_fleet_spec(str(DATA / "fleet_smoke.yaml"))
        path = workdir / f"fleet-{epochs}.jsonl"
        with FleetService(spec, journal=str(path)) as service:
            service.run_epoch()  # first-use caches and the memo
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(epochs):
                    service.run_epoch()
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
        return held

    def test_service_retains_under_1kb_per_epoch(self,
                                                 tmp_path: Path) -> None:
        # The store keeps a record's location, not its ~1.9 KB payload.
        n = 20
        short = self.retained_after(n, tmp_path)
        long = self.retained_after(3 * n, tmp_path)
        assert (long - short) / (2 * n) < 1024

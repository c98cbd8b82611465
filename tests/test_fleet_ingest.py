"""Tests for the recorded-telemetry ingest boundary.

Covers the wire format (seeded property-style encode/decode round
trips), the :func:`~repro.fleet.ingest.read_stream` classifier (one
test per reject class, graceful and strict), the dead-letter journal,
the :class:`~repro.fleet.ingest.TelemetrySource` seam inside
:class:`~repro.fleet.service.FleetService` (replay identity, graceful
degradation, epoch caps), and a reduced run of the corruption fuzz
gate (``scripts/gates/ingest_fuzz.py``) CI executes in full.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet.ingest import (DeadLetterJournal, RecordedTelemetry,
                                REJECT_CLASSES, StreamExhausted,
                                StreamHeaderError, StreamIntegrityError,
                                SyntheticTelemetry, TelemetryRecord,
                                _signed_line, read_stream, record_stream,
                                write_stream)
from repro.fleet.service import FleetService, format_epoch
from repro.sim.checkpoint import canonical_json
from repro.fleet.spec import BuildingSpec, FleetSpec, TelemetryModel
from scripts.gates.ingest_fuzz import (MUTATION_KINDS, acceptance_failures,
                                       gate_spec, mutate_stream)


def small_spec(seed: int = 5, dropout: float = 0.0) -> FleetSpec:
    return FleetSpec(
        name="mini", seed=seed,
        buildings=(BuildingSpec(name="a", n_extenders=3, n_users=4),
                   BuildingSpec(name="b", n_extenders=2, n_users=3)),
        telemetry=TelemetryModel(wifi_jitter=0.05, plc_jitter=0.05,
                                 dropout=dropout))


def shapes_of(spec: FleetSpec):
    return {b.name: (b.n_users, b.n_extenders)
            for b in spec.buildings}


def stream_lines(text: str):
    return text.rstrip("\n").split("\n")


def rebuild(header: str, records) -> str:
    return "\n".join([header, *records]) + "\n"


def edit_record(line: str, **changes) -> str:
    """Change fields of a wire record and re-sign it (valid crc)."""
    entry = json.loads(line)
    entry.update(changes)
    return _signed_line(entry)


class TestRoundTrip:
    def test_encode_decode_round_trips_seeded_corpus(self):
        # Hand-rolled property test (seeded, no external generators):
        # many random records, NaN probes included, must round-trip
        # the wire format to bit-identical arrays.
        spec = small_spec()
        shapes = shapes_of(spec)
        rng = np.random.default_rng(np.random.SeedSequence(1234))
        for trial in range(60):
            name = spec.buildings[int(rng.integers(2))].name
            n_users, n_extenders = shapes[name]
            wifi = rng.uniform(0.0, 300.0, size=(n_users, n_extenders))
            # Exercise extreme magnitudes: JSON must round-trip the
            # exact doubles, not a pretty-printed approximation.
            wifi[0, 0] = 1e-300 if trial % 2 else 123.456789012345678
            plc = rng.uniform(0.0, 600.0, size=n_extenders)
            plc[rng.random(n_extenders) < 0.3] = np.nan
            record = TelemetryRecord(building=name,
                                     epoch=int(rng.integers(50)),
                                     wifi=wifi, plc=plc)
            decoded = TelemetryRecord.decode(record.encode(), shapes)
            assert decoded.building == record.building
            assert decoded.epoch == record.epoch
            assert np.array_equal(decoded.wifi, record.wifi)
            assert np.array_equal(decoded.plc, record.plc,
                                  equal_nan=True)
            # And the re-encoding is byte-stable.
            assert decoded.encode() == record.encode()

    def test_round_trips_synthesized_observations(self):
        spec = small_spec(dropout=0.3)
        source = SyntheticTelemetry(spec)
        shapes = shapes_of(spec)
        for b, building in enumerate(spec.buildings):
            wifi, plc = source.observe(b, epoch=2)
            record = TelemetryRecord(building=building.name, epoch=2,
                                     wifi=np.asarray(wifi, dtype=float),
                                     plc=plc)
            decoded = TelemetryRecord.decode(record.encode(), shapes)
            assert np.array_equal(decoded.wifi, wifi)
            assert np.array_equal(decoded.plc, plc, equal_nan=True)

    def test_recording_is_bit_reproducible(self):
        spec = small_spec(dropout=0.1)
        assert record_stream(spec, 4) == record_stream(spec, 4)

    def test_invalid_record_construction_rejected(self):
        wifi = np.ones((2, 3))
        plc = np.ones(3)
        with pytest.raises(ValueError, match="finite"):
            TelemetryRecord("a", 0, wifi * np.nan, plc)
        with pytest.raises(ValueError, match="extenders"):
            TelemetryRecord("a", 0, wifi, np.ones(2))
        with pytest.raises(ValueError, match=">= 0"):
            TelemetryRecord("a", 0, wifi, plc - 5.0)


class TestClassification:
    """One focused test per reject class, graceful and strict."""

    def clean(self, spec=None, epochs=3):
        spec = spec or small_spec()
        return spec, record_stream(spec, epochs)

    def assert_class(self, spec, text, cls, missing_too=True):
        stream = read_stream(text, spec)
        assert stream.counts.get(cls, 0) >= 1
        assert sum(stream.rejects.get(e, {}).get(cls, 0)
                   for e in range(stream.start_epoch,
                                  stream.end_epoch)) \
            == stream.counts[cls]
        if missing_too:
            # The rejected record's slot is a hole the service
            # degrades around.
            assert stream.counts.get("missing-record", 0) >= 1
        with pytest.raises(StreamIntegrityError):
            read_stream(text, spec, strict=True)
        return stream

    def test_malformed(self):
        spec, text = self.clean()
        header, records = stream_lines(text)[0], stream_lines(text)[1:]
        records.insert(1, "{this is not json")
        self.assert_class(spec, rebuild(header, records), "malformed",
                          missing_too=False)

    def test_checksum_mismatch(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        entry = json.loads(lines[1])
        entry["epoch"] = entry["epoch"] + 1  # tampered, NOT re-signed
        lines[1] = json.dumps(entry, sort_keys=True,
                              separators=(",", ":"))
        self.assert_class(spec, rebuild(lines[0], lines[1:]),
                          "checksum-mismatch")

    def test_unknown_version(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        lines[2] = edit_record(lines[2], v=99)
        self.assert_class(spec, rebuild(lines[0], lines[1:]),
                          "unknown-version")

    def test_bad_field(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        for change in ({"wifi": "fast"}, {"epoch": True},
                       {"plc": [1.0]}, {"extra_key": 1}):
            lines_copy = list(lines)
            lines_copy[1] = edit_record(lines_copy[1], **change)
            self.assert_class(spec, rebuild(lines_copy[0],
                                            lines_copy[1:]),
                              "bad-field")

    def test_nonfinite_and_negative_are_bad_fields(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        entry = json.loads(lines[1])
        entry["plc"][0] = float("inf")
        lines[1] = _signed_line(entry)
        self.assert_class(spec, rebuild(lines[0], lines[1:]),
                          "bad-field")
        entry = json.loads(stream_lines(text)[1])
        entry["wifi"][0][0] = -1.0
        lines = stream_lines(text)
        lines[1] = _signed_line(entry)
        self.assert_class(spec, rebuild(lines[0], lines[1:]),
                          "bad-field")

    def test_unknown_building(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        lines[1] = edit_record(lines[1], building="phantom")
        self.assert_class(spec, rebuild(lines[0], lines[1:]),
                          "unknown-building")

    def test_duplicate(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        records = lines[1:]
        records.insert(1, records[0])
        stream = self.assert_class(spec, rebuild(lines[0], records),
                                   "duplicate", missing_too=False)
        # The original record is kept; only the duplicate rejects.
        assert len(stream.records) == 3 * spec.n_buildings

    def test_out_of_order(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        records = lines[1:]
        n = spec.n_buildings
        # Move an epoch-0 record after the epoch-1 records.
        records[0], records[n] = records[n], records[0]
        self.assert_class(spec, rebuild(lines[0], records),
                          "out-of-order")

    def test_stale_epoch(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        header = json.loads(lines[0])
        header["start_epoch"] = 1  # window shifts; epoch 0 is stale
        self.assert_class(spec, rebuild(_signed_line(header),
                                        lines[1:]),
                          "stale-epoch")

    def test_missing_record(self):
        spec, text = self.clean()
        lines = stream_lines(text)
        del lines[1]
        stream = read_stream(rebuild(lines[0], lines[1:]), spec)
        assert stream.counts == {"missing-record": 1}
        with pytest.raises(StreamIntegrityError):
            read_stream(rebuild(lines[0], lines[1:]), spec,
                        strict=True)

    def test_clean_stream_is_clean(self):
        spec, text = self.clean()
        stream = read_stream(text, spec)
        assert stream.clean
        assert stream.counts == {}
        assert stream.rejects == {}
        assert len(stream.records) == 3 * spec.n_buildings
        # Strict mode accepts it too.
        assert read_stream(text, spec, strict=True).clean


class TestHeader:
    def test_damaged_header_fails_loud(self):
        spec = small_spec()
        text = record_stream(spec, 2)
        lines = stream_lines(text)
        damaged = lines[0].replace('"wolt-telemetry"',
                                   '"wolt-telemetrY"')
        with pytest.raises(StreamHeaderError, match="damaged"):
            read_stream(rebuild(damaged, lines[1:]), spec)

    def test_foreign_spec_refused(self):
        spec = small_spec(seed=5)
        other = small_spec(seed=6)
        text = record_stream(spec, 2)
        with pytest.raises(StreamHeaderError, match="different spec"):
            read_stream(text, other)

    def test_operational_knobs_do_not_bind_the_stream(self):
        # Streams bind to the telemetry-relevant spec half only: the
        # same recording replays under different plc_mode/health.
        spec = small_spec()
        text = record_stream(spec, 2)
        retuned = FleetSpec(name=spec.name, seed=spec.seed,
                            plc_mode="active",
                            buildings=spec.buildings,
                            telemetry=spec.telemetry)
        assert read_stream(text, retuned, strict=True).clean

    def test_empty_stream_rejected(self):
        with pytest.raises(StreamHeaderError, match="empty"):
            read_stream("", small_spec())

    def test_headerless_stream_rejected(self):
        spec = small_spec()
        record = stream_lines(record_stream(spec, 1))[1]
        with pytest.raises(StreamHeaderError):
            read_stream(record + "\n", spec)


class TestDeadLetter:
    def test_quarantine_is_bounded_and_counted(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        journal = DeadLetterJournal(path, capacity=2)
        for i in range(5):
            journal.quarantine("malformed", i + 2, "broken", "raw")
        journal.close()
        entries = [json.loads(line) for line in
                   path.read_text().splitlines()]
        letters = [e for e in entries if e["kind"] == "dead-letter"]
        summary = entries[-1]
        assert len(letters) == 2  # capacity bound held
        assert summary["kind"] == "summary"
        assert summary["counts"] == {"malformed": 5}
        assert summary["suppressed"] == 3

    def test_lines_are_canonical_and_fsynced(self, tmp_path, monkeypatch):
        import repro.sim.checkpoint as checkpoint_mod

        synced = []
        monkeypatch.setattr(checkpoint_mod.os, "fsync", synced.append)
        path = tmp_path / "dead.jsonl"
        with DeadLetterJournal(path, capacity=4) as journal:
            journal.quarantine("malformed", 2, "broken", "raw")
            journal.quarantine("unknown-building", 3, "phantom", "raw")
        lines = path.read_text().splitlines()
        assert lines == [canonical_json(json.loads(line))
                         for line in lines]
        assert len(synced) == len(lines) == 3

    def test_reader_feeds_the_journal(self, tmp_path):
        spec = small_spec()
        text = record_stream(spec, 2)
        lines = stream_lines(text)
        lines[1] = edit_record(lines[1], building="phantom")
        path = tmp_path / "dead.jsonl"
        with DeadLetterJournal(path) as journal:
            stream = read_stream(rebuild(lines[0], lines[1:]), spec,
                                 dead_letter=journal)
        assert stream.counts["unknown-building"] == 1
        entries = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert any(e.get("class") == "unknown-building"
                   for e in entries)
        assert any(e.get("class") == "missing-record"
                   for e in entries)


class TestServiceSeam:
    def test_clean_replay_matches_synthetic_run(self, tmp_path):
        spec = small_spec(dropout=0.2)
        epochs = 3
        synth_journal = tmp_path / "synth.jsonl"
        with FleetService(spec, journal=str(synth_journal)) as synth:
            synth_reports, _ = synth.run(epochs)
        source = RecordedTelemetry(
            read_stream(record_stream(spec, epochs), spec), spec)
        replay_journal = tmp_path / "replay.jsonl"
        with FleetService(spec, journal=str(replay_journal),
                          source=source) as replay:
            replay_reports, _ = replay.run(epochs)
        assert [format_epoch(r) for r in synth_reports] \
            == [format_epoch(r) for r in replay_reports]
        assert synth_journal.read_bytes() == replay_journal.read_bytes()

    def test_dirty_stream_degrades_and_is_quantified(self):
        spec = small_spec()
        text = record_stream(spec, 3)
        lines = stream_lines(text)
        lines[1] = edit_record(lines[1], building="phantom")
        stream = read_stream(rebuild(lines[0], lines[1:]), spec)
        with FleetService(spec,
                          source=RecordedTelemetry(stream, spec)
                          ) as service:
            reports, _ = service.run(3)
        total = sum(r.n_rejected_records for r in reports)
        assert total == sum(stream.counts.values())
        rejected = {cls: n for r in reports for cls, n in r.rejected}
        assert rejected.get("unknown-building") == 1
        assert all(np.isfinite(r.aggregate_mbps) for r in reports)
        # The degradation is visible in the rendered epoch too.
        dirty_epoch = next(r for r in reports
                           if r.n_rejected_records)
        assert "rejected:" in format_epoch(dirty_epoch)

    def test_stream_exhaustion_is_loud(self):
        spec = small_spec()
        source = RecordedTelemetry(
            read_stream(record_stream(spec, 2), spec), spec)
        with FleetService(spec, source=source) as service:
            service.run(2)
            with pytest.raises(StreamExhausted):
                service.run_epoch()

    def test_recorded_source_refuses_chaos(self):
        from dataclasses import replace
        from repro.fleet.chaos import FleetFaultModel
        spec = small_spec()
        source = RecordedTelemetry(
            read_stream(record_stream(spec, 2), spec), spec)
        stormy = replace(spec, chaos=FleetFaultModel.from_level(0.5))
        with pytest.raises(ValueError, match="chaos"):
            FleetService(stormy, source=source)

    def test_strict_load_fails_fast(self, tmp_path):
        spec = small_spec()
        mutation = mutate_stream(record_stream(spec, 3), "checksum", 0)
        path = tmp_path / "stream.jsonl"
        path.write_text(mutation.text, encoding="utf-8")
        with pytest.raises(StreamIntegrityError):
            RecordedTelemetry.load(path, spec, strict=True)

    def test_write_stream_then_load(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "stream.jsonl"
        n = write_stream(path, spec, 2)
        assert n == 2 * spec.n_buildings
        source = RecordedTelemetry.load(path, spec)
        assert source.n_rejected == 0
        wifi, plc = source.observe(0, 0)
        expected_wifi, expected_plc = \
            SyntheticTelemetry(spec).observe(0, 0)
        assert np.array_equal(wifi, expected_wifi)
        assert np.array_equal(plc, expected_plc, equal_nan=True)

    @pytest.mark.parametrize("damage", [
        "clean", "no-trailing-newline", "blank-lines", "crlf",
        "invalid-utf8", "empty", "only-newlines", "mutations"])
    def test_load_reads_like_read_stream(self, tmp_path, damage):
        """``load`` reads line by line; ``read_stream`` of the text agrees."""
        spec = small_spec()
        clean = record_stream(spec, 3).encode("utf-8")
        blobs = {
            "clean": [clean],
            "no-trailing-newline": [clean[:-1]],
            "blank-lines": [clean.replace(b"\n", b"\n\n", 2),
                            clean + b"\n\n"],
            "crlf": [clean.replace(b"\n", b"\r\n", 3),
                     clean.replace(b"\n", b"\r", 2)],
            "invalid-utf8": [clean[:200] + b"\xff\xc3" + clean[200:],
                             clean[:-1] + b"\xe2\x80"],
            "empty": [b""],
            "only-newlines": [b"\n", b"\n\n"],
            "mutations": [mutate_stream(clean.decode(), kind, 0)
                          .text.encode("utf-8")
                          for kind in MUTATION_KINDS],
        }[damage]

        def outcome(read, dead):
            try:
                stream = read(dead)
            except (StreamHeaderError, StreamIntegrityError) as exc:
                return type(exc).__name__, str(exc)
            letters = dead.read_bytes() if dead.exists() else None
            return (stream.counts, stream.rejects, letters,
                    sorted((key, r.wifi.tobytes(), r.plc.tobytes())
                           for key, r in stream.records.items()))

        path = tmp_path / "stream.jsonl"
        for blob in blobs:
            path.write_bytes(blob)
            text = blob.decode("utf-8", errors="replace")
            for strict in (False, True):
                def via_text(dead):
                    with DeadLetterJournal(dead) as journal:
                        return read_stream(text, spec, strict=strict,
                                           dead_letter=journal)

                def via_file(dead):
                    return RecordedTelemetry.load(
                        path, spec, strict=strict,
                        dead_letter=dead).stream

                expected = outcome(via_text, tmp_path / "a.jsonl")
                got = outcome(via_file, tmp_path / "b.jsonl")
                assert got == expected
                for name in ("a.jsonl", "b.jsonl"):
                    (tmp_path / name).unlink(missing_ok=True)

    def test_observe_returns_copies(self):
        spec = small_spec()
        source = RecordedTelemetry(
            read_stream(record_stream(spec, 1), spec), spec)
        wifi, _ = source.observe(0, 0)
        wifi[0, 0] = -1.0
        wifi_again, _ = source.observe(0, 0)
        assert wifi_again[0, 0] >= 0.0


class TestFuzzGate:
    def test_every_mutation_kind_is_exercised(self):
        spec = gate_spec()
        text = record_stream(spec, 4)
        for kind in MUTATION_KINDS:
            mutation = mutate_stream(text, kind, seed=0)
            assert mutation.text != text
            assert mutation.header_damage or mutation.expected

    def test_mutations_are_seeded(self):
        spec = gate_spec()
        text = record_stream(spec, 4)
        for kind in MUTATION_KINDS:
            assert mutate_stream(text, kind, 7).text \
                == mutate_stream(text, kind, 7).text

    def test_reduced_gate_passes(self):
        # CI runs the full gate (python -m scripts.gates.ingest_fuzz); the
        # unit suite keeps a reduced single-seed pass for fast signal.
        failures = acceptance_failures(epochs=3, seeds=(0,))
        assert failures == []

    def test_reject_classes_are_exhaustive(self):
        assert len(set(REJECT_CLASSES)) == 9

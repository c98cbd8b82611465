"""Unit tests for the crash-consistent checkpoint layer.

Covers the durability contract of :mod:`repro.sim.checkpoint` in
isolation: atomic writes, durable line appends, fingerprint stability,
journal append/recover semantics, truncated-tail healing, mid-file
corruption rejection, and canonical snapshot compaction.  The runner-level crash/resume behaviour
is exercised in ``tests/test_runner_durable.py``.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.sim.checkpoint import (STORE_VERSION, CheckpointError,
                                  CheckpointExists, CorruptCheckpoint,
                                  FingerprintMismatch, TrialStore,
                                  append_line, atomic_write_text,
                                  canonical_json, fingerprint)

DIGEST = fingerprint({"kind": "test", "seed": 0})


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestAppendLine:
    def test_appends_one_canonical_line(self, tmp_path):
        target = tmp_path / "log.jsonl"
        with open(target, "a", encoding="utf-8") as handle:
            append_line(handle, {"b": [1.5, 2.25], "a": "text"})
            append_line(handle, {"kind": "event"})
        assert target.read_text() == (
            '{"a":"text","b":[1.5,2.25]}\n{"kind":"event"}\n')

    def test_each_line_is_flushed_and_fsynced(self, tmp_path, monkeypatch):
        import repro.sim.checkpoint as checkpoint_mod

        target = tmp_path / "log.jsonl"
        synced = []

        def fsync(fd):
            # The line is already flushed out of Python's buffer.
            synced.append(target.read_text())

        monkeypatch.setattr(checkpoint_mod.os, "fsync", fsync)
        with open(target, "a", encoding="utf-8") as handle:
            append_line(handle, {"n": 1})
            append_line(handle, {"n": 2})
        assert synced == ['{"n":1}\n', '{"n":1}\n{"n":2}\n']


class TestFingerprint:
    def test_key_order_is_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == \
            fingerprint({"b": 2, "a": 1})

    def test_value_changes_change_the_digest(self):
        assert fingerprint({"seed": 0}) != fingerprint({"seed": 1})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == \
            '{"a":[1,2],"b":1}'


class TestTrialStoreBasics:
    def test_header_written_on_creation(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST, params={"seed": 0}):
            pass
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["version"] == STORE_VERSION
        assert header["fingerprint"] == DIGEST
        assert header["params"] == {"seed": 0}

    def test_append_and_membership(self, tmp_path):
        with TrialStore(tmp_path / "run.jsonl", DIGEST) as store:
            store.append(0, {"value": 1.5})
            store.append(2, {"value": 2.5})
            assert 0 in store and 2 in store and 1 not in store
            assert len(store) == 2
            assert store.completed == frozenset({0, 2})

    def test_append_rejects_negative_index(self, tmp_path):
        with TrialStore(tmp_path / "run.jsonl", DIGEST) as store:
            with pytest.raises(ValueError):
                store.append(-1, {})

    def test_append_rejects_duplicate_index(self, tmp_path):
        with TrialStore(tmp_path / "run.jsonl", DIGEST) as store:
            store.append(0, {"value": 1})
            with pytest.raises(CheckpointError):
                store.append(0, {"value": 2})

    def test_append_after_close_raises(self, tmp_path):
        store = TrialStore(tmp_path / "run.jsonl", DIGEST)
        store.close()
        with pytest.raises(CheckpointError):
            store.append(0, {})

    def test_existing_journal_without_resume_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST):
            pass
        with pytest.raises(CheckpointExists):
            TrialStore(path, DIGEST)


class TestRecovery:
    def _seed_store(self, path: Path) -> None:
        with TrialStore(path, DIGEST) as store:
            store.append(0, {"value": 0.125})
            store.append(1, {"value": 0.25})

    def test_resume_recovers_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._seed_store(path)
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.records == {0: {"value": 0.125},
                                     1: {"value": 0.25}}

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        value = 0.1 + 0.2  # not representable exactly; repr round-trips
        with TrialStore(path, DIGEST) as store:
            store.append(0, {"value": value})
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.records[0]["value"] == value

    def test_truncated_tail_is_healed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._seed_store(path)
        good = path.read_bytes()
        path.write_bytes(good + b'{"kind":"record","index":2,"pa')
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.completed == frozenset({0, 1})
        # The file itself was truncated back to the last good byte.
        assert path.read_bytes() == good

    def test_torn_final_complete_line_is_dropped(self, tmp_path):
        # A crash can also land between the payload and the newline of
        # the previous write, leaving garbage *with* a trailing newline.
        path = tmp_path / "run.jsonl"
        self._seed_store(path)
        good = path.read_bytes()
        path.write_bytes(good + b"{garbage\n")
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.completed == frozenset({0, 1})
        assert path.read_bytes() == good

    def test_append_after_healing_lands_cleanly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._seed_store(path)
        path.write_bytes(path.read_bytes() + b'{"kind":"rec')
        with TrialStore(path, DIGEST, resume=True) as store:
            store.append(2, {"value": 0.5})
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.completed == frozenset({0, 1, 2})

    def test_mid_file_damage_is_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._seed_store(path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = b'{"kind": "rec'  # damage a non-final record
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptCheckpoint):
            TrialStore(path, DIGEST, resume=True)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._seed_store(path)
        other = fingerprint({"kind": "test", "seed": 999})
        with pytest.raises(FingerprintMismatch):
            TrialStore(path, other, resume=True)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind":"record","index":0,"payload":{}}\n')
        with pytest.raises(CorruptCheckpoint):
            TrialStore(path, DIGEST, resume=True)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(canonical_json(
            {"kind": "header", "version": 99,
             "fingerprint": DIGEST}) + "\n")
        with pytest.raises(CorruptCheckpoint):
            TrialStore(path, DIGEST, resume=True)


class TestEventsAndSnapshot:
    def test_events_survive_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST) as store:
            store.append_event("interrupted", signal="SIGTERM",
                               completed=3)
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.events == [{"event": "interrupted",
                                     "signal": "SIGTERM",
                                     "completed": 3}]

    def test_snapshot_drops_events_and_sorts_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST) as store:
            store.append(3, {"v": 3})
            store.append_event("interrupted", signal="SIGINT")
            store.append(1, {"v": 1})
            store.snapshot()
        text = path.read_text()
        assert "interrupted" not in text
        indices = [json.loads(line)["index"]
                   for line in text.splitlines()[1:]]
        assert indices == [1, 3]

    def test_snapshots_are_byte_identical_across_histories(self,
                                                           tmp_path):
        # Same completed records, different completion orders and an
        # interruption in one history: identical canonical snapshots.
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with TrialStore(path_a, DIGEST) as store:
            store.append(0, {"v": 1.5})
            store.append(1, {"v": 2.5})
            store.snapshot()
        with TrialStore(path_b, DIGEST) as store:
            store.append(1, {"v": 2.5})
            store.append_event("interrupted", signal="SIGTERM")
        with TrialStore(path_b, DIGEST, resume=True) as store:
            store.append(0, {"v": 1.5})
            store.snapshot()
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_store_usable_after_snapshot(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST) as store:
            store.append(0, {"v": 0})
            store.snapshot()
            store.append(1, {"v": 1})
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.completed == frozenset({0, 1})


class TestLazyRecords:
    def test_records_are_decoded_from_disk_on_access(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST) as store:
            store.append(0, {"v": [1.5]})
            first = store.records[0]
            first["v"].append(2.5)  # a decoded copy, not the store's
            assert store.records[0] == {"v": [1.5]}
            assert store.records.get(7) is None
            assert 0 in store.records and 7 not in store.records
            assert list(store.records) == [0]

    def test_records_survive_a_snapshot(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST) as store:
            store.append(2, {"v": 2})
            store.append_event("interrupted", signal="SIGINT")
            store.append(0, {"v": 0})
            store.snapshot()
            assert dict(store.records) == {0: {"v": 0}, 2: {"v": 2}}
            store.append(1, {"v": 1})
            assert store.records[1] == {"v": 1}
            assert store.records[2] == {"v": 2}

    def test_snapshot_re_encodes_recovered_lines(self, tmp_path):
        # A hand-edited journal: spaces, extra keys, a string index and
        # a duplicate.  The snapshot writes what the parsed payloads
        # encode to, first write winning.
        path = tmp_path / "run.jsonl"
        header = canonical_json({"kind": "header",
                                 "version": STORE_VERSION,
                                 "fingerprint": DIGEST})
        path.write_text(header + "\n"
                        '{"kind": "record", "index": "1", "note": 0, '
                        '"payload": {"b": 2, "a": 1.0}}\n'
                        '{"kind":"record","index":1,"payload":{"x":9}}\n'
                        '{"kind":"record","index":0,"payload":[]}\n')
        with TrialStore(path, DIGEST, resume=True) as store:
            assert store.records[1] == {"a": 1.0, "b": 2}
            store.snapshot()
        assert path.read_text() == (
            header + "\n"
            '{"index":0,"kind":"record","payload":[]}\n'
            '{"index":1,"kind":"record","payload":{"a":1.0,"b":2}}\n')

    def test_record_without_payload_is_corrupt(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TrialStore(path, DIGEST):
            pass
        with open(path, "a") as handle:
            handle.write('{"kind":"record","index":0}\n')
        with pytest.raises(CorruptCheckpoint, match="no payload"):
            TrialStore(path, DIGEST, resume=True)

    @staticmethod
    def _retained_by_recovery(path: Path, payload_bytes: int) -> int:
        with TrialStore(path, DIGEST) as store:
            for index in range(40):
                store.append(index, {"blob": "x" * payload_bytes,
                                     "values": [0.5] * 8})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = TrialStore(path, DIGEST, resume=True)
            held = tracemalloc.get_traced_memory()[0] - base
            store.close()
        finally:
            tracemalloc.stop()
        assert len(store) == 40
        return held

    def test_recovered_store_does_not_hold_payloads(self, tmp_path):
        small = self._retained_by_recovery(tmp_path / "small.jsonl", 10)
        large = self._retained_by_recovery(tmp_path / "large.jsonl",
                                           20_000)
        # 40 records x 20 KB more on disk; the store keeps offsets only.
        assert large - small < 4_000

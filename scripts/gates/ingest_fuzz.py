"""Telemetry ingest fuzz gate for ``wolt record`` / ``wolt serve --from``.

:func:`mutate_stream` is a seeded corruption corpus (truncation, bit
flips, field drops, type confusion, non-finite injection, duplication,
reordering, staleness, interleaved garbage, version skew, header
damage) applied to a clean recorded stream.  The gate checks that
:mod:`repro.fleet.ingest` survives all of it: no crash on any mutated
stream, clean-stream replay identity, every reject class actually
landing (vacuousness guards, as in :mod:`scripts.gates.fleet_chaos`),
and torn-journal + resume byte-identity.

Run it from the repository root; it prints the verdict and exits 1 on
acceptance FAIL::

    PYTHONPATH=src python -m scripts.gates.ingest_fuzz
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.fleet.ingest import (BAD_FIELD, CHECKSUM_MISMATCH, DUPLICATE,
                                MALFORMED, MISSING_RECORD, OUT_OF_ORDER,
                                REJECT_CLASSES, STALE_EPOCH,
                                UNKNOWN_BUILDING, UNKNOWN_VERSION,
                                RecordedTelemetry, StreamHeaderError,
                                StreamIntegrityError, _signed_line,
                                read_stream, record_stream)
from repro.fleet.service import FleetService, format_epoch
from repro.fleet.spec import (BuildingSpec, FleetSpec, HealthSettings,
                              TelemetryModel)
from repro.sim.checkpoint import canonical_json

from .fleet_chaos import tear_journal_tail

__all__ = ["Mutation", "MUTATION_KINDS", "acceptance_failures",
           "gate_spec", "main", "mutate_stream"]


@dataclass(frozen=True)
class Mutation:
    """One corrupted stream plus what the reader must do with it.

    ``expected`` lists the reject classes of which at least one must
    land (several mutations can legitimately classify two ways: a bit
    flip breaks either the checksum or the JSON).  ``header_damage``
    mutations must raise :class:`StreamHeaderError` instead.
    """

    kind: str
    text: str
    expected: Tuple[str, ...]
    header_damage: bool = False


MUTATION_KINDS = ("truncate", "bitflip", "garbage", "checksum",
                  "drop-field", "type-confusion", "nonfinite",
                  "negative", "unknown-building", "future-epoch",
                  "stale-epoch", "duplicate", "reorder", "version",
                  "header")


def _mutation_rng(kind: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(MUTATION_KINDS.index(kind), 101)))


def _flip_bit(line: str, rng: np.random.Generator) -> str:
    """Flip one bit of one character, never into a newline."""
    pos = int(rng.integers(len(line)))
    for bit in range(7):
        flipped = chr(ord(line[pos]) ^ (1 << bit))
        if flipped not in ("\n", "\r"):
            return line[:pos] + flipped + line[pos + 1:]
    return line[:pos] + "?" + line[pos + 1:]  # pragma: no cover


def mutate_stream(text: str, kind: str, seed: int) -> Mutation:
    """Apply one seeded corruption from the corpus to a clean stream.

    Field-level mutations (drop, type confusion, non-finite, range,
    building, epoch, version) re-sign the damaged record so its
    checksum stays valid — they exercise *validation*, not the CRC;
    ``bitflip``/``checksum``/``garbage``/``truncate`` exercise the
    envelope itself.
    """
    if kind not in MUTATION_KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}; one of "
                         f"{MUTATION_KINDS}")
    rng = _mutation_rng(kind, seed)
    lines = text.rstrip("\n").split("\n")
    header, records = lines[0], lines[1:]
    if not records:
        raise ValueError("stream has no records to mutate")
    pick = int(rng.integers(len(records)))
    picked = json.loads(records[pick])

    def rebuilt(new_records: Sequence[str]) -> str:
        return "\n".join([header, *new_records]) + "\n"

    if kind == "truncate":
        # Cut somewhere in the record region: a torn tail and/or
        # missing records, the on-disk shape of a crashed recorder.
        floor = len(header) + 2
        cut = floor + int(rng.integers(max(len(text) - floor - 1, 1)))
        return Mutation(kind, text[:cut],
                        expected=(MALFORMED, MISSING_RECORD))
    if kind == "bitflip":
        records[pick] = _flip_bit(records[pick], rng)
        return Mutation(kind, rebuilt(records),
                        expected=(CHECKSUM_MISMATCH, MALFORMED))
    if kind == "garbage":
        junk = "telemetry? " + "".join(
            chr(33 + int(c)) for c in rng.integers(0, 90, size=24))
        at = int(rng.integers(len(records) + 1))
        records.insert(at, junk)
        return Mutation(kind, rebuilt(records), expected=(MALFORMED,))
    if kind == "checksum":
        picked["crc"] = "00000000"
        records[pick] = canonical_json(picked)
        return Mutation(kind, rebuilt(records),
                        expected=(CHECKSUM_MISMATCH,))
    if kind == "drop-field":
        del picked["plc"]
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records), expected=(BAD_FIELD,))
    if kind == "type-confusion":
        picked["wifi"] = "fast"
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records), expected=(BAD_FIELD,))
    if kind == "nonfinite":
        picked["plc"][0] = float("inf")
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records), expected=(BAD_FIELD,))
    if kind == "negative":
        picked["wifi"][0][0] = -5.0
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records), expected=(BAD_FIELD,))
    if kind == "unknown-building":
        picked["building"] = "phantom-" + str(picked["building"])
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records),
                        expected=(UNKNOWN_BUILDING,))
    if kind == "future-epoch":
        head = json.loads(header)
        picked["epoch"] = int(head["start_epoch"] + head["epochs"] + 7)
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records), expected=(BAD_FIELD,))
    if kind == "stale-epoch":
        # Shift the declared window forward: the first epoch's records
        # now predate it — the late-arrival shape of a live feed.
        head = json.loads(header)
        head["start_epoch"] = int(head["start_epoch"]) + 1
        return Mutation(kind,
                        "\n".join([_signed_line(head), *records]) + "\n",
                        expected=(STALE_EPOCH,))
    if kind == "duplicate":
        records.insert(pick + 1, records[pick])
        return Mutation(kind, rebuilt(records), expected=(DUPLICATE,))
    if kind == "reorder":
        epochs_at = [int(json.loads(line)["epoch"])
                     for line in records]
        later = [i for i, e in enumerate(epochs_at)
                 if e > epochs_at[0]]
        if not later:
            raise ValueError("reorder needs records from >= 2 epochs")
        j = later[int(rng.integers(len(later)))]
        i = int(rng.integers(j))
        records[i], records[j] = records[j], records[i]
        return Mutation(kind, rebuilt(records),
                        expected=(OUT_OF_ORDER,))
    if kind == "version":
        picked["v"] = 99
        records[pick] = _signed_line(picked)
        return Mutation(kind, rebuilt(records),
                        expected=(UNKNOWN_VERSION,))
    assert kind == "header"
    return Mutation(kind,
                    "\n".join([_flip_bit(header, rng), *records])
                    + "\n",
                    expected=(), header_damage=True)


def gate_spec(seed: int = 31) -> FleetSpec:
    """The small fleet the fuzz gate records and torments.

    Dropout is deliberately non-zero so the stream carries NaN probes
    (``null`` on the wire) — the encode/decode path for lost probes
    must survive the corpus too.
    """
    return FleetSpec(
        name="ingest-gate",
        seed=seed,
        plc_mode="redistribute",
        buildings=(
            BuildingSpec(name="hq", n_extenders=4, n_users=8,
                         circuits=("a", "a", "b", "b")),
            BuildingSpec(name="lab", n_extenders=3, n_users=6),
            BuildingSpec(name="dorm", n_extenders=3, n_users=5),
        ),
        telemetry=TelemetryModel(wifi_jitter=0.02, plc_jitter=0.05,
                                 dropout=0.05),
        health=HealthSettings(probation_epochs=2, retry_budget=1))


def _journal_epochs(path: Path) -> List[Dict[str, Any]]:
    payloads: List[Dict[str, Any]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        if entry.get("kind") == "record":
            payloads.append(entry["payload"])
    return payloads


def acceptance_failures(epochs: int = 5,
                        seeds: Sequence[int] = (0, 1, 2)
                        ) -> List[str]:
    """Run the ingestion fuzz gate; empty list = acceptance PASS.

    Checks, in order:

    1. recording is bit-reproducible (same spec/epochs, same bytes);
    2. clean-stream replay identity: ``wolt record`` then ``serve
       --from`` journals byte-identical to the synthetic run;
    3. no crash on any mutated stream: graceful reads classify, strict
       reads fail fast, header damage raises :class:`StreamHeaderError`,
       and the full service completes every epoch of every (non-header)
       corrupted stream with the degradation quantified in its journal;
    4. vacuousness guards: every corruption class actually landed;
    5. torn-journal + resume byte-identity for a recorded replay.
    """
    failures: List[str] = []
    spec = gate_spec()
    clean = record_stream(spec, epochs)

    # 1. Bit-reproducible recording.
    if record_stream(spec, epochs) != clean:
        failures.append("recording the same spec twice produced "
                        "different bytes")

    # 2. Clean-stream replay identity (journal bytes + epoch text).
    with tempfile.TemporaryDirectory() as tmp:
        synth_path = os.path.join(tmp, "synthetic.jsonl")
        replay_path = os.path.join(tmp, "replay.jsonl")
        synth_texts: List[str] = []
        with FleetService(spec, journal=synth_path) as synth:
            for report in synth.run(epochs)[0]:
                synth_texts.append(format_epoch(report))
        source = RecordedTelemetry(
            read_stream(clean, spec), spec)
        replay_texts: List[str] = []
        with FleetService(spec, journal=replay_path,
                          source=source) as replay:
            for report in replay.run(epochs)[0]:
                replay_texts.append(format_epoch(report))
        if replay_texts != synth_texts:
            failures.append("clean-stream replay epoch reports "
                            "diverged from the synthetic run")
        if (Path(synth_path).read_bytes()
                != Path(replay_path).read_bytes()):
            failures.append("clean-stream replay journal is not "
                            "byte-identical to the synthetic run")

    # 3. + 4. The corruption corpus.
    landed: Dict[str, int] = {}
    for kind in MUTATION_KINDS:
        for seed in seeds:
            mutation = mutate_stream(clean, kind, seed)
            if mutation.header_damage:
                try:
                    read_stream(mutation.text, spec)
                except StreamHeaderError:
                    landed["header"] = landed.get("header", 0) + 1
                except Exception as exc:  # noqa: BLE001 - the gate's job
                    failures.append(
                        f"{kind}[{seed}]: header damage raised "
                        f"{type(exc).__name__} instead of "
                        f"StreamHeaderError: {exc}")
                else:
                    failures.append(
                        f"{kind}[{seed}]: header damage was not "
                        "detected (vacuous mutation)")
                continue
            try:
                stream = read_stream(mutation.text, spec)
            except Exception as exc:  # noqa: BLE001 - the gate's job
                failures.append(
                    f"{kind}[{seed}]: graceful read crashed with "
                    f"{type(exc).__name__}: {exc}")
                continue
            observed = set(stream.counts)
            if not observed:
                failures.append(
                    f"{kind}[{seed}]: corruption left no trace "
                    "(vacuous mutation)")
                continue
            if not observed & set(mutation.expected):
                failures.append(
                    f"{kind}[{seed}]: expected one of "
                    f"{mutation.expected}, observed "
                    f"{sorted(observed)}")
            for cls, n in stream.counts.items():
                landed[cls] = landed.get(cls, 0) + n
            try:
                read_stream(mutation.text, spec, strict=True)
            except StreamIntegrityError:
                pass
            except Exception as exc:  # noqa: BLE001 - the gate's job
                failures.append(
                    f"{kind}[{seed}]: strict read raised "
                    f"{type(exc).__name__} instead of "
                    f"StreamIntegrityError: {exc}")
            else:
                failures.append(
                    f"{kind}[{seed}]: strict mode accepted a dirty "
                    "stream")
        # Full service sweep, one seed per kind (no crash, every
        # epoch completes, degradation quantified in the journal).
        if kind == "header":
            continue
        mutation = mutate_stream(clean, kind, seeds[0])
        stream = read_stream(mutation.text, spec)
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "mutated.jsonl"
            try:
                with FleetService(
                        spec, journal=str(journal),
                        source=RecordedTelemetry(stream, spec)
                        ) as service:
                    reports, _ = service.run(stream.end_epoch)
            except Exception as exc:  # noqa: BLE001 - the gate's job
                failures.append(
                    f"{kind}: service crashed on the corrupted "
                    f"stream with {type(exc).__name__}: {exc}")
                continue
            if len(reports) != stream.end_epoch:
                failures.append(
                    f"{kind}: service completed {len(reports)} of "
                    f"{stream.end_epoch} epochs")
                continue
            if not all(np.isfinite(r.aggregate_mbps)
                       for r in reports):
                failures.append(
                    f"{kind}: non-finite aggregate leaked through "
                    "the ingest boundary")
            total = sum(r.n_rejected_records for r in reports)
            if total != sum(stream.counts.values()):
                failures.append(
                    f"{kind}: journaled reject count {total} != "
                    f"stream classification "
                    f"{sum(stream.counts.values())}")
            if total == 0:
                failures.append(
                    f"{kind}: degradation went unquantified "
                    "(0 rejects journaled for a dirty stream)")
            journaled = _journal_epochs(journal)
            if (len(journaled) != stream.end_epoch
                    or sum(p["n_rejected_records"]
                           for p in journaled) != total):
                failures.append(
                    f"{kind}: epoch journal does not carry the "
                    "reject accounting")
    missing_classes = [cls for cls in REJECT_CLASSES
                       if landed.get(cls, 0) == 0]
    if missing_classes:
        failures.append(
            f"corruption classes never landed: {missing_classes} "
            "(vacuous corpus; extend mutate_stream)")

    # 5. Torn journal + resume on a recorded replay.
    with tempfile.TemporaryDirectory() as tmp:
        stream = read_stream(clean, spec)
        full_path = os.path.join(tmp, "full.jsonl")
        with FleetService(spec, journal=full_path,
                          source=RecordedTelemetry(stream, spec)
                          ) as full:
            full.run(epochs)
        torn_path = os.path.join(tmp, "torn.jsonl")
        with FleetService(spec, journal=torn_path,
                          source=RecordedTelemetry(stream, spec)
                          ) as first:
            first.run(epochs - 2)
        tear_journal_tail(torn_path)
        with FleetService(spec, journal=torn_path, resume=True,
                          source=RecordedTelemetry(stream, spec)
                          ) as resumed:
            resumed.run(2)
        if (Path(full_path).read_bytes()
                != Path(torn_path).read_bytes()):
            failures.append(
                "torn + resumed replay journal is not byte-identical "
                "to the uninterrupted one (epochs not atomic)")
    return failures


def main() -> int:
    """CI entry point: print the verdict, exit 1 on acceptance FAIL."""
    failures = acceptance_failures()
    print("telemetry ingest gate: recorded-stream fuzzing "
          f"({len(MUTATION_KINDS)} corruption kinds) with replay "
          "identity, quarantine accounting and resume atomicity")
    for problem in failures:
        print(f"  FAIL: {problem}")
    verdict = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE: {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

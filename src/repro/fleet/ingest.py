"""Recorded telemetry ingestion: the input boundary of ``wolt serve``.

Until this module existed, :class:`~repro.fleet.service.FleetService`
only ever consumed telemetry synthesized inside the process — the one
place a real deployment is *guaranteed* to differ.  Device-reported
scan/link records (Adame et al.'s 802.11k/v steering reports, Ali et
al.'s enterprise PLC measurements) arrive malformed, duplicated,
stale, out of order, and occasionally torn mid-byte.  This module
makes that boundary explicit and hostile-input-proof:

* **Stream format** — a versioned, checksummed JSONL telemetry stream:
  one signed header (format name, schema version, epoch window, and a
  fingerprint binding the stream to the spec's telemetry-relevant
  half), then one :class:`TelemetryRecord` line per ``(building,
  epoch)`` with a CRC-32 over its canonical JSON body.  NaN (a dropped
  PLC probe) is encoded as ``null`` so every line is strict JSON.
* **``wolt record``** — :func:`record_stream` runs a fleet spec's
  telemetry synthesis (:func:`repro.fleet.spec.synthesize_observation`,
  a pure function of ``(seed, building, epoch)``) and emits the
  stream, bit-reproducibly: recording twice yields identical bytes.
* **``wolt serve --from``** — :class:`RecordedTelemetry` replays a
  stream through the :class:`TelemetrySource` seam in
  :class:`~repro.fleet.service.FleetService`.  A clean stream replays
  to a journal *byte-identical* to the synthetic run of the same
  spec/seed (JSON round-trips IEEE-754 doubles exactly).
* **Strict validation + dead-letter quarantine** — :func:`read_stream`
  classifies every dirty record (:data:`REJECT_CLASSES`: malformed
  JSON, checksum mismatch, unknown schema version, bad fields, unknown
  building, duplicates, out-of-order, stale epochs, missing records)
  into an append-only bounded :class:`DeadLetterJournal` with
  per-class counters.  ``strict=True`` fails fast on the first dirty
  record (:class:`StreamIntegrityError`); the default degrades
  gracefully — a dirty record's slot is simply *missing*, and the
  service falls back to the building's last-known-good report exactly
  like a chaos telemetry blackout, with per-epoch
  ``n_rejected_records``/per-class counts surfaced in
  :func:`~repro.fleet.service.format_epoch` and the epoch journal.
  Header damage is never degraded around: a stream whose envelope
  cannot be trusted raises :class:`StreamHeaderError` loudly.

The seeded corruption corpus and the fuzz gate that torments this
reader live in ``scripts/gates/ingest_fuzz.py``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (IO, Any, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple, Union)

import numpy as np

from ..core.problem import Scenario
from ..sim.checkpoint import (append_line, atomic_write_text,
                              canonical_json, fingerprint)
from .spec import (FleetSpec, build_building_scenario,
                   synthesize_observation)

__all__ = ["DeadLetterJournal", "IngestError", "RecordedStream",
           "RecordedTelemetry", "REJECT_CLASSES", "StreamHeaderError",
           "StreamIntegrityError", "SyntheticTelemetry",
           "TelemetryRecord", "TelemetrySource", "read_stream",
           "record_stream", "write_stream"]

#: Stream envelope identity: readers refuse anything else.
STREAM_FORMAT = "wolt-telemetry"
STREAM_VERSION = 1

# -- reject classes ----------------------------------------------------

MALFORMED = "malformed"
CHECKSUM_MISMATCH = "checksum-mismatch"
UNKNOWN_VERSION = "unknown-version"
BAD_FIELD = "bad-field"
UNKNOWN_BUILDING = "unknown-building"
DUPLICATE = "duplicate"
OUT_OF_ORDER = "out-of-order"
STALE_EPOCH = "stale-epoch"
MISSING_RECORD = "missing-record"

#: Every classification a record can land in.  The fuzz gate's
#: vacuousness guard requires each one to actually fire across the
#: corruption corpus.
REJECT_CLASSES = (MALFORMED, CHECKSUM_MISMATCH, UNKNOWN_VERSION,
                  BAD_FIELD, UNKNOWN_BUILDING, DUPLICATE, OUT_OF_ORDER,
                  STALE_EPOCH, MISSING_RECORD)


class IngestError(RuntimeError):
    """Base class for telemetry-ingestion failures."""


class StreamHeaderError(IngestError):
    """The stream envelope cannot be trusted (damaged/foreign header).

    Header damage is never degraded around: without an intact header
    there is no version, no epoch window, and no proof the stream was
    recorded from this spec, so *every* record is suspect.
    """


class StreamIntegrityError(IngestError):
    """Strict-mode fail-fast: the stream contains dirty records."""


class StreamExhausted(IngestError):
    """The service was asked to run past the recorded epoch window."""


# ---------------------------------------------------------------------------
# line signing: CRC-32 over the canonical JSON body.


def _crc32(body: str) -> str:
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


def _signed_line(entry: Mapping[str, Any]) -> str:
    """Canonical JSON line with a ``crc`` field over the rest."""
    body = dict(entry)
    body.pop("crc", None)
    crc = _crc32(canonical_json(body))
    body["crc"] = crc
    return canonical_json(body)


class _Reject(Exception):
    """Internal: one record's classification (class + human reason)."""

    def __init__(self, cls: str, reason: str,
                 epoch: Optional[int] = None) -> None:
        super().__init__(reason)
        self.cls = cls
        self.reason = reason
        self.epoch = epoch


def _verify_line(raw: str) -> Dict[str, Any]:
    """Parse one line and verify its checksum; raises :class:`_Reject`."""
    try:
        entry = json.loads(raw)
    except ValueError as exc:
        raise _Reject(MALFORMED, f"undecodable JSON: {exc}") from exc
    if not isinstance(entry, dict) or "kind" not in entry:
        raise _Reject(MALFORMED, "not a stream entry (no 'kind')")
    crc = entry.get("crc")
    if not isinstance(crc, str):
        raise _Reject(MALFORMED, "entry carries no 'crc' field")
    body = {k: v for k, v in entry.items() if k != "crc"}
    expected = _crc32(canonical_json(body))
    if crc != expected:
        raise _Reject(
            CHECKSUM_MISMATCH,
            f"crc {crc!r} does not match body ({expected!r})")
    return entry


def _finite_value(value: Any, what: str) -> float:
    # bool is an int subclass: a corrupted `true` must not parse as 1.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Reject(BAD_FIELD,
                      f"{what} must be a number, got {value!r}")
    rate = float(value)
    if not np.isfinite(rate):
        raise _Reject(BAD_FIELD, f"{what} is non-finite ({rate!r})")
    if rate < 0:
        raise _Reject(BAD_FIELD, f"{what} is negative ({rate!r})")
    return rate


# ---------------------------------------------------------------------------
# the record.


_RECORD_KEYS = frozenset({"kind", "v", "crc", "building", "epoch",
                          "wifi", "plc"})


@dataclass(frozen=True)
class TelemetryRecord:
    """One building's telemetry for one epoch, as shipped on the wire.

    ``wifi`` is the drifted per-(user, extender) scan-rate matrix and
    ``plc`` the per-extender backhaul capacity probe vector; a NaN in
    ``plc`` is a dropped probe (encoded as ``null`` on the wire).
    Validation lives in :meth:`decode` — a record that constructs is a
    record the service can safely solve from.
    """

    building: str
    epoch: int
    wifi: np.ndarray
    plc: np.ndarray

    def __post_init__(self) -> None:
        if self.wifi.ndim != 2 or self.plc.ndim != 1:
            raise ValueError("wifi must be 2-D and plc 1-D")
        if self.wifi.shape[1] != self.plc.shape[0]:
            raise ValueError(
                f"wifi covers {self.wifi.shape[1]} extenders, plc "
                f"{self.plc.shape[0]}")
        if not np.all(np.isfinite(self.wifi) & (self.wifi >= 0)):
            raise ValueError("wifi rates must be finite and >= 0")
        finite = np.isfinite(self.plc)
        if not np.all(self.plc[finite] >= 0):
            raise ValueError("plc rates must be >= 0 where reported")

    def encode(self) -> str:
        """One checksummed, canonical JSONL line (see :meth:`decode`)."""
        plc: List[Optional[float]] = [
            None if not np.isfinite(v) else float(v)
            for v in self.plc.tolist()]
        entry: Dict[str, Any] = {
            "kind": "telemetry", "v": STREAM_VERSION,
            "building": self.building, "epoch": int(self.epoch),
            "wifi": [[float(v) for v in row]
                     for row in self.wifi.tolist()],
            "plc": plc}
        return _signed_line(entry)

    @classmethod
    def decode(cls, raw: str,
               shapes: Mapping[str, Tuple[int, int]]
               ) -> "TelemetryRecord":
        """Strictly parse and validate one wire line.

        ``shapes`` maps building name to ``(n_users, n_extenders)``.
        Raises the internal classification exception on *any*
        deviation — unknown keys included; forward compatibility is
        the schema version's job, not silent key tolerance.
        """
        entry = _verify_line(raw)
        kind = entry.get("kind")
        if kind != "telemetry":
            raise _Reject(BAD_FIELD,
                          f"unexpected entry kind {kind!r} mid-stream")
        if entry.get("v") != STREAM_VERSION:
            raise _Reject(UNKNOWN_VERSION,
                          f"unknown schema version {entry.get('v')!r} "
                          f"(this reader speaks v{STREAM_VERSION})")
        unknown = sorted(set(entry) - _RECORD_KEYS)
        if unknown:
            raise _Reject(BAD_FIELD, f"unknown keys {unknown}")
        building = entry.get("building")
        if not isinstance(building, str):
            raise _Reject(BAD_FIELD,
                          f"building must be a string, got "
                          f"{building!r}")
        epoch = entry.get("epoch")
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise _Reject(BAD_FIELD,
                          f"epoch must be an integer, got {epoch!r}")
        if building not in shapes:
            raise _Reject(UNKNOWN_BUILDING,
                          f"building {building!r} is not in the spec",
                          epoch=epoch)
        n_users, n_extenders = shapes[building]
        wifi_raw = entry.get("wifi")
        if (not isinstance(wifi_raw, list)
                or len(wifi_raw) != n_users
                or any(not isinstance(row, list)
                       or len(row) != n_extenders
                       for row in wifi_raw)):
            raise _Reject(BAD_FIELD,
                          f"wifi must be a {n_users}x{n_extenders} "
                          f"matrix for building {building!r}",
                          epoch=epoch)
        wifi = np.empty((n_users, n_extenders), dtype=float)
        for u, row in enumerate(wifi_raw):
            for e, value in enumerate(row):
                wifi[u, e] = _finite_value(
                    value, f"wifi[{u}][{e}]")
        plc_raw = entry.get("plc")
        if not isinstance(plc_raw, list) or len(plc_raw) != n_extenders:
            raise _Reject(BAD_FIELD,
                          f"plc must list {n_extenders} capacities "
                          f"for building {building!r}", epoch=epoch)
        plc = np.empty(n_extenders, dtype=float)
        for e, value in enumerate(plc_raw):
            plc[e] = (np.nan if value is None
                      else _finite_value(value, f"plc[{e}]"))
        return cls(building=building, epoch=epoch, wifi=wifi, plc=plc)


# ---------------------------------------------------------------------------
# dead-letter quarantine.


class DeadLetterJournal:
    """Append-only, bounded quarantine for rejected stream records.

    Every reject appends one fsynced JSONL entry (class, stream line
    number, reason, a truncated echo of the raw line) until
    ``capacity`` entries are on disk; further rejects only bump the
    counters (the journal is forensics, not a second copy of the
    corrupt stream).  :meth:`close` appends a summary entry with the
    per-class counts and how many entries were suppressed by the cap.
    """

    def __init__(self, path: Union[str, Path],
                 capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.path = Path(path)
        self.capacity = capacity
        self.counts: Dict[str, int] = {}
        self.suppressed = 0
        self._written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = open(self.path, "a",
                                               encoding="utf-8")

    def _append(self, entry: Mapping[str, Any]) -> None:
        if self._handle is None:
            raise IngestError(f"{self.path}: journal is closed")
        append_line(self._handle, entry)

    def quarantine(self, cls: str, line: int, reason: str,
                   raw: str) -> None:
        """Journal one rejected record (bounded; counters always)."""
        self.counts[cls] = self.counts.get(cls, 0) + 1
        if self._written >= self.capacity:
            self.suppressed += 1
            return
        self._append({"kind": "dead-letter", "class": cls,
                      "line": line, "reason": reason,
                      "raw": raw[:200]})
        self._written += 1

    def close(self) -> None:
        if self._handle is None:
            return
        if self.counts:
            self._append({"kind": "summary", "counts": self.counts,
                          "suppressed": self.suppressed})
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "DeadLetterJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# reading.


@dataclass(frozen=True)
class RecordedStream:
    """A validated telemetry stream, ready to replay.

    ``records`` is keyed by ``(building_index, epoch)``; ``rejects``
    maps each epoch of the declared window to its per-class reject
    counts (missing slots included), and ``counts`` is the stream-wide
    total.  A clean stream has empty ``rejects`` and ``counts``.
    """

    spec_fingerprint: str
    start_epoch: int
    epochs: int
    records: Dict[Tuple[int, int], TelemetryRecord]
    rejects: Dict[int, Dict[str, int]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def end_epoch(self) -> int:
        """First epoch beyond the recorded window."""
        return self.start_epoch + self.epochs

    @property
    def clean(self) -> bool:
        return not self.counts


def _read_header(raw: str, spec: FleetSpec) -> Tuple[int, int]:
    """Validate the envelope; returns ``(start_epoch, epochs)``."""
    try:
        entry = _verify_line(raw)
    except _Reject as exc:
        raise StreamHeaderError(
            f"stream header is damaged ({exc.reason}); without a "
            "trusted envelope every record is suspect — re-record "
            "the stream") from exc
    if entry.get("kind") != "header":
        raise StreamHeaderError(
            f"stream does not start with a header "
            f"(got kind {entry.get('kind')!r})")
    if entry.get("format") != STREAM_FORMAT:
        raise StreamHeaderError(
            f"not a {STREAM_FORMAT} stream "
            f"(format {entry.get('format')!r})")
    if entry.get("version") != STREAM_VERSION:
        raise StreamHeaderError(
            f"unsupported stream version {entry.get('version')!r} "
            f"(this reader speaks v{STREAM_VERSION})")
    epochs = entry.get("epochs")
    start = entry.get("start_epoch", 0)
    for name, value in (("epochs", epochs), ("start_epoch", start)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise StreamHeaderError(
                f"header {name} must be an integer, got {value!r}")
    assert isinstance(epochs, int) and isinstance(start, int)
    if epochs < 1 or start < 0:
        raise StreamHeaderError(
            f"header declares an empty/negative window "
            f"(start_epoch={start}, epochs={epochs})")
    expected = fingerprint(spec.stream_params())
    if entry.get("spec") != expected:
        raise StreamHeaderError(
            f"stream was recorded from a different spec (stream "
            f"fingerprint {entry.get('spec')!r}, this spec "
            f"{expected!r}); telemetry would not match the "
            "topologies being served")
    return start, epochs


def _split_lines(handle: IO[str]) -> Iterator[str]:
    """Yield what ``handle.read().split("\\n")`` would, a line at a time.

    ``handle`` must be opened with ``newline="\\n"`` so that only
    ``"\\n"`` ends a line, as in ``str.split``.
    """
    ended = True  # an empty file splits to [""]
    for line in handle:
        ended = line.endswith("\n")
        yield line[:-1] if ended else line
    if ended:
        yield ""


def read_stream(stream: Union[str, Iterable[str]], spec: FleetSpec, *,
                strict: bool = False,
                dead_letter: Optional[DeadLetterJournal] = None
                ) -> RecordedStream:
    """Parse, checksum, and classify a recorded telemetry stream.

    ``stream`` is the stream's text, or its lines as
    ``text.split("\\n")`` would give them (see
    :meth:`RecordedTelemetry.load`).

    Graceful by default: every dirty record is classified into one of
    :data:`REJECT_CLASSES`, counted (per epoch and stream-wide),
    optionally quarantined into ``dead_letter``, and dropped — its
    slot is then a *missing record* the service degrades around.
    ``strict=True`` raises :class:`StreamIntegrityError` on the first
    dirty or missing record instead.  Header damage always raises
    :class:`StreamHeaderError` (see that class's rationale).
    """
    elements = iter(stream.split("\n") if isinstance(stream, str)
                    else stream)
    header = next(elements, "")
    if not header:
        raise StreamHeaderError("stream is empty")
    start, epochs = _read_header(header, spec)
    end = start + epochs
    shapes = {b.name: (b.n_users, b.n_extenders)
              for b in spec.buildings}
    index_of = {b.name: i for i, b in enumerate(spec.buildings)}
    records: Dict[Tuple[int, int], TelemetryRecord] = {}
    rejects: Dict[int, Dict[str, int]] = {}
    counts: Dict[str, int] = {}
    cursor = start  # highest accepted epoch so far (order check)

    def reject(cls: str, line_no: int, reason: str, raw: str,
               epoch: Optional[int] = None) -> None:
        if strict:
            raise StreamIntegrityError(
                f"stream line {line_no}: {cls}: {reason}")
        attributed = cursor if epoch is None else epoch
        attributed = min(max(attributed, start), end - 1)
        counts[cls] = counts.get(cls, 0) + 1
        per_epoch = rejects.setdefault(attributed, {})
        per_epoch[cls] = per_epoch.get(cls, 0) + 1
        if dead_letter is not None:
            dead_letter.quarantine(cls, line_no, reason, raw)

    n_lines = 1
    blank: Optional[int] = None  # a blank line is judged by what follows
    for pos, raw in enumerate(elements, start=2):
        n_lines = pos
        if blank is not None:
            reject(MALFORMED, blank, "blank line mid-stream", "")
            blank = None
        if raw == "":
            blank = pos  # unless it is the clean trailing newline
            continue
        try:
            record = TelemetryRecord.decode(raw, shapes)
        except _Reject as exc:
            reject(exc.cls, pos, exc.reason, raw, epoch=exc.epoch)
            continue
        epoch = record.epoch
        if epoch < start:
            reject(STALE_EPOCH, pos,
                   f"epoch {epoch} predates the stream window "
                   f"(starts at {start})", raw, epoch=epoch)
            continue
        if epoch >= end:
            reject(BAD_FIELD, pos,
                   f"epoch {epoch} is beyond the declared window "
                   f"(ends at {end})", raw, epoch=epoch)
            continue
        key = (index_of[record.building], epoch)
        if key in records:
            reject(DUPLICATE, pos,
                   f"duplicate record for building "
                   f"{record.building!r} epoch {epoch}", raw,
                   epoch=epoch)
            continue
        if epoch < cursor:
            reject(OUT_OF_ORDER, pos,
                   f"epoch {epoch} arrived after the stream moved "
                   f"on to epoch {cursor}", raw, epoch=epoch)
            continue
        cursor = epoch
        records[key] = record
    for epoch in range(start, end):
        for name in sorted(index_of):
            if (index_of[name], epoch) not in records:
                reject(MISSING_RECORD, n_lines,
                       f"no record for building {name!r} epoch "
                       f"{epoch}", "", epoch=epoch)
    return RecordedStream(
        spec_fingerprint=fingerprint(spec.stream_params()),
        start_epoch=start, epochs=epochs, records=records,
        rejects=rejects, counts=counts)


# ---------------------------------------------------------------------------
# recording.


def record_stream(spec: FleetSpec, epochs: int,
                  start_epoch: int = 0) -> str:
    """Synthesize and serialize a telemetry stream (bit-reproducible).

    Telemetry is a pure function of ``(spec.seed, building, epoch)``,
    so recording needs no solves and recording twice yields identical
    bytes — the property the acceptance gate pins.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if start_epoch < 0:
        raise ValueError("start_epoch must be >= 0")
    header: Dict[str, Any] = {
        "kind": "header", "format": STREAM_FORMAT,
        "version": STREAM_VERSION, "epochs": epochs,
        "start_epoch": start_epoch,
        "spec": fingerprint(spec.stream_params()),
        "params": spec.stream_params()}
    lines = [_signed_line(header)]
    source = SyntheticTelemetry(spec)
    for epoch in range(start_epoch, start_epoch + epochs):
        for b, building in enumerate(spec.buildings):
            wifi, plc = source.observe(b, epoch)
            lines.append(TelemetryRecord(
                building=building.name, epoch=epoch, wifi=wifi,
                plc=plc).encode())
    return "\n".join(lines) + "\n"


def write_stream(path: Union[str, Path], spec: FleetSpec, epochs: int,
                 start_epoch: int = 0) -> int:
    """``wolt record``: atomically persist a stream; returns #records."""
    text = record_stream(spec, epochs, start_epoch=start_epoch)
    atomic_write_text(path, text)
    return epochs * spec.n_buildings


# ---------------------------------------------------------------------------
# the telemetry-source seam.


class TelemetrySource:
    """Where :class:`~repro.fleet.service.FleetService` gets telemetry.

    ``observe`` returns one epoch's raw report for one building —
    ``(wifi_obs, plc_obs)`` exactly as
    :func:`~repro.fleet.spec.synthesize_observation` shapes them — or
    ``None`` when the report is unavailable (dirty/missing record),
    in which case the service re-decides from the building's
    last-known-good report, like a chaos telemetry blackout.

    ``end_epoch`` is ``None`` for unbounded sources (synthetic) or the
    first epoch beyond the recorded window; ``epoch_rejects`` feeds
    the per-epoch degradation accounting in the epoch report/journal.
    """

    end_epoch: Optional[int] = None

    def observe(self, building: int, epoch: int
                ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError

    def epoch_rejects(self, epoch: int) -> Dict[str, int]:
        return {}


class SyntheticTelemetry(TelemetrySource):
    """The in-process default: draw telemetry from the spec's model."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self._scenarios: Dict[int, Scenario] = {}

    def prime(self, building: int, true: Scenario) -> None:
        """Share an already-built topology (avoids a rebuild)."""
        self._scenarios[building] = true

    def _true(self, building: int) -> Scenario:
        if building not in self._scenarios:
            self._scenarios[building] = build_building_scenario(
                self.spec, building)
        return self._scenarios[building]

    def observe(self, building: int,
                epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        return synthesize_observation(self.spec, self._true(building),
                                      building, epoch)


class RecordedTelemetry(TelemetrySource):
    """Replay a recorded stream (the engine of ``serve --from``)."""

    def __init__(self, stream: RecordedStream,
                 spec: FleetSpec) -> None:
        if stream.spec_fingerprint != fingerprint(
                spec.stream_params()):
            raise StreamHeaderError(
                "stream was validated against a different spec")
        self.stream = stream
        self.spec = spec
        self.end_epoch = stream.end_epoch

    @classmethod
    def load(cls, path: Union[str, Path], spec: FleetSpec, *,
             strict: bool = False,
             dead_letter: Optional[Union[str, Path]] = None,
             capacity: int = 256) -> "RecordedTelemetry":
        """Read + validate a stream file, quarantining dirty records.

        Bit flips can leave invalid UTF-8, so the file is decoded with
        replacement characters — the damaged line then classifies as
        malformed/checksum instead of crashing the reader.  The file is
        read a line at a time, so no copy of the whole stream is ever
        held; the result is the same as :func:`read_stream` of its text.
        """
        journal = (DeadLetterJournal(dead_letter, capacity=capacity)
                   if dead_letter is not None else None)
        try:
            with open(path, encoding="utf-8", errors="replace",
                      newline="\n") as handle:
                stream = read_stream(_split_lines(handle), spec,
                                     strict=strict, dead_letter=journal)
        finally:
            if journal is not None:
                journal.close()
        return cls(stream, spec)

    @property
    def n_rejected(self) -> int:
        return sum(self.stream.counts.values())

    def observe(self, building: int, epoch: int
                ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        record = self.stream.records.get((building, epoch))
        if record is None:
            return None
        # Copies: the service composes Scenarios around these arrays,
        # and a replayed epoch must see pristine bytes.
        return record.wifi.copy(), record.plc.copy()

    def epoch_rejects(self, epoch: int) -> Dict[str, int]:
        return dict(self.stream.rejects.get(epoch, {}))

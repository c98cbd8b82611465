"""Crash-consistent checkpointing for long-running sweeps.

The paper's headline numbers come from Monte-Carlo sweeps that run for
hours at production scale; a sweep that loses every completed trial to
one SIGKILL, OOM-kill, or reboot cannot support them.  This module is
the durability layer the trial runner and the experiment entry points
share:

* :func:`atomic_write_text` — the repo's atomic-persistence helper
  (write to a temp file in the destination directory, ``fsync``, then
  ``os.replace``); the woltlint rule W008 flags result persistence
  that bypasses it;
* :func:`append_line` — one durable JSONL append (write, flush,
  ``fsync``), shared by every append-only journal in the repo;
* :func:`fingerprint` — a canonical SHA-256 over a run's scientific
  parameters, stamped into every checkpoint so a resume against the
  wrong configuration is rejected loudly instead of silently merging
  incompatible results;
* :class:`TrialStore` — an append-only JSONL journal of per-index
  records.  Appends are flushed and fsynced record-by-record, recovery
  tolerates a truncated tail record (a crash at any byte boundary
  yields a valid store), and :meth:`TrialStore.snapshot` compacts the
  journal into a canonical, byte-reproducible form via ``os.replace``.
  The store keeps where each record's line lies in the file, not its
  payload: a record is decoded from disk when it is read.

The journal stores plain JSON payloads keyed by a non-negative integer
index; the runner layers :class:`~repro.sim.runner.TrialResult`
encoding on top (see ``repro.sim.runner``), and the experiment modules
journal their own partial results (per-floor sums, finished sweeps)
through the same store.
JSON round-trips Python floats exactly (``repr`` emits the shortest
digits that reparse to the same IEEE-754 double), which is what makes
a resumed run bit-identical to a cold one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import (IO, Any, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Set, Tuple, Union)

__all__ = ["CheckpointError", "CheckpointExists", "CorruptCheckpoint",
           "FingerprintMismatch", "TrialStore", "append_line",
           "atomic_write_text", "canonical_json", "fingerprint"]

#: Format version stamped into every checkpoint header.
STORE_VERSION = 1


class CheckpointError(RuntimeError):
    """Base class for checkpoint-layer failures."""


class CheckpointExists(CheckpointError):
    """A non-empty checkpoint already exists and ``resume`` is False."""


class FingerprintMismatch(CheckpointError):
    """The checkpoint was written by a run with different parameters."""


class CorruptCheckpoint(CheckpointError):
    """The checkpoint is damaged beyond the recoverable truncated tail."""


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` deterministically (sorted keys, no spaces).

    Canonical bytes are what make snapshots byte-reproducible and
    fingerprints stable across Python processes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(params: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a run's scientific parameters.

    ``params`` must be JSON-serializable; the digest is taken over the
    canonical JSON encoding, so key order and whitespace never matter.
    """
    return hashlib.sha256(
        canonical_json(dict(params)).encode("utf-8")).hexdigest()


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems) and is fsynced before the rename, so a
    crash at any point leaves either the old contents or the new —
    never a torn file.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".",
        prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def append_line(handle: IO[str], entry: Mapping[str, Any]) -> int:
    """Durably append ``entry`` to ``handle`` as one canonical JSON line.

    The line is written whole, flushed and fsynced, so after a crash it
    is either fully on disk or a torn final line (which
    :class:`TrialStore` recovery discards).

    Returns:
        The line's length in bytes, without its newline (canonical JSON
        escapes every non-ASCII character, so characters are bytes).
    """
    line = canonical_json(entry)
    handle.write(line + "\n")
    handle.flush()
    os.fsync(handle.fileno())
    return len(line)


class _Records(Mapping[int, Any]):
    """A :class:`TrialStore`'s payloads by index, decoded on access."""

    def __init__(self, store: "TrialStore") -> None:
        self._store = store

    def __getitem__(self, index: int) -> Any:
        return self._store._decode(index)

    def __contains__(self, index: object) -> bool:
        return index in self._store._lines

    def __iter__(self) -> Iterator[int]:
        return iter(self._store._lines)

    def __len__(self) -> int:
        return len(self._store._lines)


class TrialStore:
    """An append-only, crash-consistent journal of per-index records.

    File layout (JSON Lines)::

        {"kind": "header", "version": 1, "fingerprint": "...", "params": {...}}
        {"kind": "record", "index": 0, "payload": {...}}
        {"kind": "event", "event": "interrupted", ...}
        ...

    Durability contract:

    * :meth:`append` writes one complete line, flushes, and fsyncs —
      a record is either fully on disk or absent;
    * opening with ``resume=True`` recovers from a crash at any byte
      boundary: a truncated or garbled *final* line is discarded and
      the file truncated back to the last complete record (damage
      anywhere else raises :class:`CorruptCheckpoint`);
    * a header whose fingerprint differs from the caller's raises
      :class:`FingerprintMismatch` — resuming under changed parameters
      would silently merge incompatible results;
    * :meth:`snapshot` rewrites the journal in canonical form (header,
      then records sorted by index, transient events dropped) through
      :func:`atomic_write_text`, so two runs that completed the same
      trials produce byte-identical snapshots.

    The store holds each record's byte range in the file, never its
    payload, so what it keeps does not grow with payload size:
    :attr:`records` decodes a payload from disk each time it is read.

    Args:
        path: journal location; parent directories are created.
        fingerprint: the run's :func:`fingerprint` digest.
        params: optional JSON-serializable parameter echo stored in the
            header for human forensics (never used for matching).
        resume: when True, an existing journal is recovered and its
            records exposed through :attr:`records`; when False a
            non-empty journal raises :class:`CheckpointExists`.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str,
                 params: Optional[Mapping[str, Any]] = None,
                 resume: bool = False) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.params: Optional[Dict[str, Any]] = \
            None if params is None else dict(params)
        # index -> (offset, length) of the record's line, newline
        # excluded; ``_recovered`` names the lines this process did not
        # write, which may not be canonical.
        self._lines: Dict[int, Tuple[int, int]] = {}
        self._recovered: Set[int] = set()
        self._size = 0
        self._events: List[Dict[str, Any]] = []
        self._handle: Optional[IO[str]] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing and not resume:
            raise CheckpointExists(
                f"checkpoint {self.path} already exists — pass "
                "resume=True to continue it or remove the file to "
                "start over")
        if existing:
            self._recover()
        else:
            # Write the header through the atomic helper so a crash
            # during creation cannot leave a headerless journal.
            header = canonical_json(self._header())
            atomic_write_text(self.path, header + "\n")
            self._size = len(header) + 1
        self._handle = open(self.path, "a", encoding="utf-8")

    # -- construction helpers ------------------------------------------

    def _header(self) -> Dict[str, Any]:
        header: Dict[str, Any] = {"kind": "header",
                                  "version": STORE_VERSION,
                                  "fingerprint": self.fingerprint}
        if self.params is not None:
            header["params"] = self.params
        return header

    def _recover(self) -> None:
        """Index an existing journal, healing a truncated tail record.

        The file is read one line at a time and each line is parsed to
        validate it, then dropped: only record locations are kept.
        """
        good_bytes = 0
        damaged = False
        with open(self.path, "rb") as handle:
            pos = 0
            line = handle.readline()
            while line:
                if not line.endswith(b"\n"):
                    # A file that ends mid-record: an unterminated tail.
                    damaged = True
                    break
                body = line[:-1]
                try:
                    entry = json.loads(body.decode("utf-8"))
                    if not isinstance(entry, dict) or "kind" not in entry:
                        raise ValueError("not a journal entry")
                except (ValueError, UnicodeDecodeError) as exc:
                    if not handle.readline().endswith(b"\n"):
                        # Torn final line (e.g. the crash landed between
                        # the payload and the newline of the *previous*
                        # write): drop it like an unterminated tail.
                        damaged = True
                        break
                    raise CorruptCheckpoint(
                        f"{self.path}: line {pos + 1} is damaged "
                        f"mid-file ({exc}); refusing to guess at the "
                        "journal's contents") from exc
                if pos == 0:
                    self._check_header(entry)
                else:
                    self._index_entry(entry, good_bytes, len(body))
                good_bytes += len(line)
                pos += 1
                line = handle.readline()
        if pos == 0:
            raise CorruptCheckpoint(
                f"{self.path}: no intact header record")
        if damaged:
            # Heal in place: truncate back to the last complete record
            # so the append handle starts at a clean line boundary.
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._size = good_bytes

    def _check_header(self, header: Dict[str, Any]) -> None:
        if header.get("kind") != "header":
            raise CorruptCheckpoint(
                f"{self.path}: first record is not a header")
        if header.get("version") != STORE_VERSION:
            raise CorruptCheckpoint(
                f"{self.path}: unsupported checkpoint version "
                f"{header.get('version')!r}")
        if header.get("fingerprint") != self.fingerprint:
            raise FingerprintMismatch(
                f"{self.path} was written by a run with different "
                f"parameters (stored fingerprint "
                f"{header.get('fingerprint')!r}, this run "
                f"{self.fingerprint!r}); resuming would merge "
                "incompatible results.  Use the original parameters or "
                "start a fresh checkpoint.")

    def _index_entry(self, entry: Dict[str, Any], offset: int,
                     length: int) -> None:
        """Fold one recovered non-header entry into the store."""
        kind = entry.get("kind")
        if kind == "record":
            try:
                index = int(entry["index"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptCheckpoint(
                    f"{self.path}: record without an integer index "
                    f"({exc!r})") from exc
            if "payload" not in entry:
                raise CorruptCheckpoint(
                    f"{self.path}: record {index} has no payload")
            # First write wins: records are deterministic, so a
            # duplicate (possible only after manual edits) is ignored
            # rather than trusted.
            if index not in self._lines:
                self._lines[index] = (offset, length)
                self._recovered.add(index)
        elif kind == "event":
            self._events.append(
                {k: v for k, v in entry.items() if k != "kind"})
        elif kind == "header":
            raise CorruptCheckpoint(
                f"{self.path}: duplicate header record")
        # Unknown kinds are preserved on disk but not surfaced; they
        # let future versions add record types.

    # -- read API -------------------------------------------------------

    @property
    def records(self) -> Mapping[int, Any]:
        """Journaled payloads keyed by index (a live, read-only view).

        Each read decodes the payload from the journal file afresh.
        """
        return _Records(self)

    def _decode(self, index: int) -> Any:
        offset, length = self._lines[index]
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            return json.loads(handle.read(length))["payload"]

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Transient event records (e.g. interruption markers)."""
        return list(self._events)

    @property
    def completed(self) -> FrozenSet[int]:
        return frozenset(self._lines)

    def __contains__(self, index: int) -> bool:
        return index in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    # -- write API ------------------------------------------------------

    def _append_line(self, entry: Mapping[str, Any]) -> Tuple[int, int]:
        """Append one entry; returns its line's ``(offset, length)``."""
        if self._handle is None:
            raise CheckpointError(f"{self.path}: store is closed")
        offset = self._size
        length = append_line(self._handle, entry)
        self._size += length + 1
        return offset, length

    def append(self, index: int, payload: Any) -> None:
        """Durably journal one record (complete-line write + fsync)."""
        index = int(index)
        if index < 0:
            raise ValueError("record index must be non-negative")
        if index in self._lines:
            raise CheckpointError(
                f"{self.path}: index {index} already journaled")
        self._lines[index] = self._append_line(
            {"kind": "record", "index": index, "payload": payload})

    def append_event(self, event: str, **fields: Any) -> None:
        """Journal a transient event (dropped by :meth:`snapshot`)."""
        entry: Dict[str, Any] = {"kind": "event", "event": event}
        entry.update(fields)
        self._append_line(entry)
        self._events.append(
            {k: v for k, v in entry.items() if k != "kind"})

    def snapshot(self) -> None:
        """Atomically compact the journal into canonical form.

        The rewritten file holds the header followed by every record in
        index order; transient events are dropped.  Two stores that
        completed the same records therefore snapshot to byte-identical
        files regardless of completion order or crash/resume history.
        Lines this store appended are canonical already and are copied
        as they are; recovered ones are re-encoded.
        """
        lines = [canonical_json(self._header())]
        order = sorted(self._lines)
        with open(self.path, "rb") as handle:
            for index in order:
                offset, length = self._lines[index]
                handle.seek(offset)
                line = handle.read(length).decode("utf-8")
                if index in self._recovered:
                    line = canonical_json(
                        {"kind": "record", "index": index,
                         "payload": json.loads(line)["payload"]})
                lines.append(line)
        if self._handle is not None:
            self._handle.close()
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        offset = len(lines[0]) + 1
        for index, line in zip(order, lines[1:]):
            self._lines[index] = (offset, len(line))
            offset += len(line) + 1
        self._size = offset
        self._recovered.clear()
        self._events = []
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

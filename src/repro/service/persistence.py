"""Crash-safe durability for the shard-local result cache.

Before this module, a restarted shard came back **cold**: every cached
result was gone, so a crash turned into a latency/throughput cliff exactly
when the system was weakest (the supervisor is respawning, the client's
breaker is probing, the cache is empty).  :class:`ShardPersistence` makes
restarts *warm* with the classic journal+snapshot discipline:

* **append-only journal** — every cache write-through appends one framed
  record ``<length> <crc32> <payload>\\n`` (payload is the canonical JSON
  of ``{"key", "value"}``).  The explicit length and checksum make a torn
  final record — a SIGKILL mid-``write``, a full disk — *detectable*: the
  loader stops at the last intact record and truncates the tail, so
  corruption is repaired, never replayed;
* **atomic snapshot** — when the journal exceeds ``journal_max_entries``
  records it is compacted into one snapshot file, written to a temp file
  and published with :func:`os.replace` (atomic on POSIX), after which the
  journal restarts empty.  A crash at *any* point leaves either the old
  snapshot + full journal or the new snapshot + (possibly) a journal whose
  replay is a no-op — replay is idempotent because entries are keyed by
  content-hash canonical keys;
* **warm replay** — on restart, :meth:`load` returns snapshot entries then
  journal entries (later wins) for
  :meth:`~repro.service.cache.LRUResultCache.warm_load` to re-insert
  *before* the server accepts connections.  Replayed values are the exact
  metrics payloads the dead shard computed, so warm responses are
  byte-identical to what it would have served (the determinism contract).

Durability scope: :meth:`record` flushes each append to the OS, which
survives any *process* death (SIGKILL included — the page cache belongs to
the kernel, not the process).  Machine/power loss additionally needs
``fsync=True``, which trades write latency for storage-level durability.

The framing codec (:func:`encode_record`/:func:`decode_journal`) is pure
bytes-in/bytes-out, so crash-safety is property-testable: every possible
truncation point of a journal file must load cleanly to a consistent
prefix (``tests/test_service_persistence.py`` iterates them all).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import Any, Iterable, List, Optional, Tuple

from .._hashing import canonical_json
from ..exceptions import ServiceError

__all__ = [
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "SNAPSHOT_VERSION",
    "encode_record",
    "decode_journal",
    "ShardPersistence",
]

#: Journal file name inside a shard's state directory.
JOURNAL_NAME = "cache.journal.jsonl"
#: Snapshot file name inside a shard's state directory.
SNAPSHOT_NAME = "cache.snapshot.json"
#: Snapshot payload version; bump on any layout change (old versions are
#: then ignored rather than misread — a cold start, never corruption).
SNAPSHOT_VERSION = 1

#: Upper bound on the decimal length field of a record header.  A header
#: that does not terminate within this many bytes is corruption, not a
#: gigantic record (records are single cache values, well under 1 MiB).
_MAX_HEADER_DIGITS = 12


def encode_record(key: str, value: Any) -> bytes:
    """Frame one ``(key, value)`` cache entry as a journal record.

    Layout: ``<payload-length> <crc32-hex8> <payload>\\n`` where payload is
    the canonical JSON of ``{"key": key, "value": value}``.  The length is
    byte-exact and the CRC covers the payload bytes, so any torn suffix of
    the record fails validation in :func:`decode_journal`.
    """
    payload = canonical_json({"key": key, "value": value}).encode("utf-8")
    return b"%d %08x %s\n" % (len(payload), zlib.crc32(payload), payload)


def decode_journal(data: bytes) -> Tuple[List[Tuple[str, Any]], int, bool]:
    """Decode a journal byte string into its longest consistent prefix.

    Returns ``(entries, good_offset, truncated)``: the ``(key, value)``
    pairs of every intact record in order, the byte offset just past the
    last intact record, and whether anything beyond that offset had to be
    discarded (a torn final record, a partial checksum, trailing garbage).
    Never raises on corrupt input — crash repair must always succeed.
    """
    entries: List[Tuple[str, Any]] = []
    offset = 0
    size = len(data)
    while offset < size:
        head_end = data.find(b" ", offset, offset + _MAX_HEADER_DIGITS + 1)
        if head_end < 0:
            return entries, offset, True
        length_text = data[offset:head_end]
        if not length_text.isdigit():
            return entries, offset, True
        payload_len = int(length_text)
        crc_start = head_end + 1
        payload_start = crc_start + 9  # 8 hex digits + 1 space
        record_end = payload_start + payload_len + 1  # payload + newline
        if record_end > size:
            return entries, offset, True
        crc_text = data[crc_start:payload_start - 1]
        if data[payload_start - 1:payload_start] != b" " or len(crc_text) != 8:
            return entries, offset, True
        payload = data[payload_start:record_end - 1]
        if data[record_end - 1:record_end] != b"\n":
            return entries, offset, True
        try:
            expected_crc = int(crc_text, 16)
        except ValueError:
            return entries, offset, True
        if zlib.crc32(payload) != expected_crc:
            return entries, offset, True
        try:
            record = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return entries, offset, True
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("key"), str)
            or "value" not in record
        ):
            return entries, offset, True
        entries.append((record["key"], record["value"]))
        offset = record_end
    return entries, offset, False


class ShardPersistence:
    """Journal + snapshot durability for one shard's result cache.

    Parameters
    ----------
    state_dir:
        Directory owning this shard's journal and snapshot files; created
        on first use.  In a sharded topology each shard gets its own
        subdirectory (``<state-dir>/shard-NN``, ``NN`` the zero-padded
        shard index) so restarts replay exactly the keyspace slice the
        dead shard owned.
    journal_max_entries:
        Journal records beyond which the next write-through compacts the
        journal into a snapshot.  Smaller values bound replay time and
        journal size; larger values amortise snapshot writes.
    fsync:
        When True, every append and snapshot is fsync'd — durable against
        power loss, not just process death, at a per-write latency cost.
    clock:
        Wall-clock source for :meth:`snapshot_age_s` (injectable in tests).
    """

    def __init__(
        self,
        state_dir: "Path | str",
        *,
        journal_max_entries: int = 1024,
        fsync: bool = False,
        clock=time.time,
    ) -> None:
        if journal_max_entries < 1:
            raise ServiceError(
                f"journal_max_entries must be >= 1, got {journal_max_entries}"
            )
        self.state_dir = Path(state_dir)
        self.journal_max_entries = journal_max_entries
        self.fsync = fsync
        self._clock = clock
        self.journal_path = self.state_dir / JOURNAL_NAME
        self.snapshot_path = self.state_dir / SNAPSHOT_NAME
        #: Records in the current journal file (set by :meth:`load`,
        #: incremented per :meth:`record`, reset by :meth:`compact`).
        self.journal_entries = 0
        #: Entries recovered by the last :meth:`load` (observability).
        self.loaded_entries = 0
        #: True when the last :meth:`load` repaired a torn journal tail.
        self.repaired = False
        self._journal_file = None
        self.state_dir.mkdir(parents=True, exist_ok=True)

    # -- replay --------------------------------------------------------------
    def load(self, repair: bool = True) -> List[Tuple[str, Any]]:
        """Replay snapshot then journal; returns entries in write order.

        Later entries win on key collision (callers insert in order, so a
        plain loop gives last-writer-wins).  A torn journal tail is
        truncated in place when ``repair`` is set — the repaired file is
        exactly the consistent prefix, so a subsequent :meth:`record`
        appends after the last intact record.  A missing or unreadable
        snapshot contributes nothing (cold start, never a crash).
        """
        entries: List[Tuple[str, Any]] = []
        snapshot = self._read_snapshot()
        if snapshot is not None:
            entries.extend(snapshot)
        journal_entries: List[Tuple[str, Any]] = []
        if self.journal_path.exists():
            data = self.journal_path.read_bytes()
            journal_entries, good_offset, truncated = decode_journal(data)
            self.repaired = truncated
            if truncated and repair:
                with open(self.journal_path, "r+b") as handle:
                    handle.truncate(good_offset)
        else:
            self.repaired = False
        entries.extend(journal_entries)
        self.journal_entries = len(journal_entries)
        self.loaded_entries = len(entries)
        return entries

    def _read_snapshot(self) -> Optional[List[Tuple[str, Any]]]:
        """Parse the snapshot file; ``None`` when absent/unreadable/foreign."""
        try:
            payload = json.loads(self.snapshot_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != SNAPSHOT_VERSION
            or not isinstance(payload.get("entries"), list)
        ):
            return None
        entries = []
        for item in payload["entries"]:
            if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], str):
                return None
            entries.append((item[0], item[1]))
        return entries

    # -- write path ----------------------------------------------------------
    def record(self, key: str, value: Any) -> None:
        """Append one write-through entry to the journal (flushed to the OS)."""
        handle = self._ensure_journal()
        handle.write(encode_record(key, value))
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self.journal_entries += 1

    def should_compact(self) -> bool:
        """True once the journal holds more than ``journal_max_entries``."""
        return self.journal_entries > self.journal_max_entries

    def compact(self, items: Iterable[Tuple[str, Any]]) -> int:
        """Fold the live cache contents into a fresh atomic snapshot.

        ``items`` is the cache's full resident ``(key, value)`` inventory
        (not just the journal — eviction may have dropped journaled keys,
        and the snapshot should reflect what is worth re-warming).  The
        snapshot is written to a temp file in the same directory and
        published with :func:`os.replace`; only then is the journal
        truncated.  A crash between the two steps merely leaves journal
        entries whose replay over the new snapshot is idempotent.
        Returns the number of snapshotted entries.
        """
        entries = [[key, value] for key, value in items]
        payload = canonical_json(
            {"version": SNAPSHOT_VERSION, "entries": entries}
        )
        tmp_path = self.snapshot_path.with_suffix(".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        self._close_journal()
        with open(self.journal_path, "wb") as handle:
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.journal_entries = 0
        return len(entries)

    def _ensure_journal(self):
        """The open append-mode journal handle (reopened after close)."""
        if self._journal_file is None or self._journal_file.closed:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._journal_file = open(self.journal_path, "ab")
        return self._journal_file

    def _close_journal(self) -> None:
        if self._journal_file is not None and not self._journal_file.closed:
            self._journal_file.close()
        self._journal_file = None

    # -- observability --------------------------------------------------------
    def snapshot_age_s(self) -> Optional[float]:
        """Seconds since the snapshot was published (``None`` without one)."""
        try:
            mtime = self.snapshot_path.stat().st_mtime
        except OSError:
            return None
        return max(0.0, self._clock() - mtime)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close the journal handle (idempotent; appends reopen it)."""
        self._close_journal()

    def __enter__(self) -> "ShardPersistence":
        """Context-manager entry: the persistence layer itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the journal handle."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardPersistence({str(self.state_dir)!r}, "
            f"journal_entries={self.journal_entries}/{self.journal_max_entries})"
        )

"""Crash-safety tests for the durability layer (:mod:`repro.service.persistence`).

The journal's one promise is that a crash at *any* byte boundary — a
SIGKILL mid-``write``, a torn final record, a half-written checksum —
loads cleanly to a consistent prefix and never propagates garbage.  That
is a property over all truncation points, so the core coverage here is
property-based (hypothesis): encode arbitrary entries, cut or corrupt the
byte stream anywhere, and require the decoder to return exactly the
intact prefix.  The second half covers the cache integration: write
through, warm replay, warm-hit accounting, and the compaction crash
window, plus one end-to-end warm restart through the real CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service.cache import LRUResultCache
from repro.service.dispatcher import ScheduleService
from repro.service.persistence import (
    ShardPersistence,
    decode_journal,
    encode_record,
)

#: JSON-representable values, bounded so examples stay fast.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

entries_strategy = st.lists(
    st.tuples(st.text(min_size=1, max_size=40), json_values), max_size=8
)


class TestJournalCodec:
    @given(entries=entries_strategy)
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_round_trip(self, entries):
        data = b"".join(encode_record(key, value) for key, value in entries)
        decoded, offset, truncated = decode_journal(data)
        assert decoded == entries
        assert offset == len(data)
        assert not truncated

    @given(entries=entries_strategy, data=st.data())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_every_truncation_point_yields_a_consistent_prefix(
        self, entries, data
    ):
        records = [encode_record(key, value) for key, value in entries]
        blob = b"".join(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        decoded, offset, truncated = decode_journal(blob[:cut])
        # The decoder must recover exactly the records that fit whole
        # before the cut — never a partial record, never one fewer.
        boundary = 0
        expected = []
        for (key, value), record in zip(entries, records):
            if boundary + len(record) > cut:
                break
            boundary += len(record)
            expected.append((key, value))
        assert decoded == expected
        assert offset == boundary
        assert truncated == (cut != boundary)

    @given(entries=entries_strategy.filter(bool), data=st.data())
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_corrupted_byte_never_raises_and_never_fabricates(self, entries, data):
        blob = b"".join(encode_record(key, value) for key, value in entries)
        position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupted = (
            blob[:position]
            + bytes([blob[position] ^ flip])
            + blob[position + 1:]
        )
        decoded, offset, truncated = decode_journal(corrupted)
        # Whatever survives must be a prefix of the original entries: the
        # CRC makes silently-altered payloads (checksum collisions aside)
        # and resynchronization on garbage impossible.
        assert decoded == entries[: len(decoded)]
        assert offset <= len(corrupted)

    def test_empty_input_is_a_clean_empty_journal(self):
        assert decode_journal(b"") == ([], 0, False)

    def test_pure_garbage_is_truncated_to_nothing(self):
        decoded, offset, truncated = decode_journal(b"not a journal\n")
        assert decoded == [] and offset == 0 and truncated


class TestShardPersistence:
    def test_record_load_round_trip(self, tmp_path):
        with ShardPersistence(tmp_path) as persistence:
            persistence.record("a", {"v": 1})
            persistence.record("b", [1, 2])
        reloaded = ShardPersistence(tmp_path)
        assert reloaded.load() == [("a", {"v": 1}), ("b", [1, 2])]
        assert reloaded.journal_entries == 2
        assert not reloaded.repaired

    def test_replay_is_idempotent(self, tmp_path):
        with ShardPersistence(tmp_path) as persistence:
            persistence.record("k", 1)
            persistence.record("k", 2)  # same key: last write wins on replay
        reloaded = ShardPersistence(tmp_path)
        first = reloaded.load()
        second = reloaded.load()
        assert first == second == [("k", 1), ("k", 2)]
        replayed = dict(first)
        assert replayed == {"k": 2}

    def test_torn_tail_is_repaired_in_place(self, tmp_path):
        persistence = ShardPersistence(tmp_path)
        persistence.record("a", 1)
        persistence.record("b", 2)
        persistence.close()
        intact = persistence.journal_path.read_bytes()
        torn = intact + encode_record("c", 3)[:-4]  # SIGKILL mid-write
        persistence.journal_path.write_bytes(torn)

        reloaded = ShardPersistence(tmp_path)
        assert reloaded.load() == [("a", 1), ("b", 2)]
        assert reloaded.repaired
        assert reloaded.journal_path.read_bytes() == intact
        # The repaired journal accepts appends after the last good record.
        reloaded.record("c", 3)
        reloaded.close()
        assert ShardPersistence(tmp_path).load() == [("a", 1), ("b", 2), ("c", 3)]

    def test_compaction_snapshots_then_empties_the_journal(self, tmp_path):
        persistence = ShardPersistence(tmp_path, journal_max_entries=2)
        for index in range(3):
            persistence.record(f"k{index}", index)
        assert persistence.should_compact()
        count = persistence.compact([("k1", 1), ("k2", 2)])
        assert count == 2
        assert persistence.journal_entries == 0
        assert persistence.snapshot_path.exists()
        persistence.record("k3", 3)
        persistence.close()
        assert ShardPersistence(tmp_path).load() == [
            ("k1", 1),
            ("k2", 2),
            ("k3", 3),
        ]

    def test_fsync_mode_syncs_every_record_and_compaction(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        persistence = ShardPersistence(tmp_path, fsync=True)
        persistence.record("a", 1)
        assert len(synced) == 1  # the append
        persistence.compact([("a", 1)])
        assert len(synced) == 3  # the snapshot and the emptied journal
        persistence.close()
        assert ShardPersistence(tmp_path).load() == [("a", 1)]

    def test_crash_between_snapshot_and_truncate_replays_idempotently(
        self, tmp_path
    ):
        # Simulate the compaction crash window: the snapshot has been
        # published (os.replace) but the journal truncation never ran.
        persistence = ShardPersistence(tmp_path)
        persistence.record("a", 1)
        persistence.record("b", 2)
        persistence.close()
        journal_before = persistence.journal_path.read_bytes()
        persistence.compact([("a", 1), ("b", 2)])
        persistence.journal_path.write_bytes(journal_before)  # "crash" undo
        persistence.close()
        entries = ShardPersistence(tmp_path).load()
        # Snapshot entries then journal entries: replaying the journal
        # over the snapshot is a no-op because later wins per key.
        assert dict(entries) == {"a": 1, "b": 2}

    def test_foreign_snapshot_is_ignored_not_crashed(self, tmp_path):
        persistence = ShardPersistence(tmp_path)
        persistence.snapshot_path.write_text("}{ not json", encoding="utf-8")
        assert persistence.load() == []
        persistence.snapshot_path.write_text(
            json.dumps({"version": 999, "entries": []}), encoding="utf-8"
        )
        assert persistence.load() == []

    def test_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(ServiceError):
            ShardPersistence(tmp_path, journal_max_entries=0)


class TestCacheIntegration:
    def test_put_writes_through_and_warm_load_replays(self, tmp_path):
        cache = LRUResultCache(
            max_entries=8, persistence=ShardPersistence(tmp_path)
        )
        cache.put("k", {"makespan": 1.0})
        cache.close()

        warmed = LRUResultCache(
            max_entries=8, persistence=ShardPersistence(tmp_path)
        )
        assert warmed.warm_load() == 1
        assert warmed.get("k") == {"makespan": 1.0}
        assert warmed.warm_hits == 1 and warmed.hits == 1
        gauges = warmed.registry.snapshot()["gauges"]
        assert gauges == {"cache.size": 1, "cache.journal_entries": 1}
        warmed.put("k2", {"makespan": 2.0})
        assert warmed.registry.gauge("cache.journal_entries") == 2
        warmed.close()

    def test_warm_load_is_idempotent_and_respects_capacity(self, tmp_path):
        cache = LRUResultCache(
            max_entries=16, persistence=ShardPersistence(tmp_path)
        )
        for index in range(6):
            cache.put(f"k{index}", index)
        cache.close()

        small = LRUResultCache(
            max_entries=4, persistence=ShardPersistence(tmp_path)
        )
        small.warm_load()
        small.warm_load()  # replaying twice changes nothing
        assert len(small) == 4
        assert small.keys() == ("k2", "k3", "k4", "k5")  # newest survive
        small.close()

    def test_recomputed_overwrite_sheds_the_warm_flag(self, tmp_path):
        cache = LRUResultCache(
            max_entries=8, persistence=ShardPersistence(tmp_path)
        )
        cache.put("k", 1)
        cache.close()
        warmed = LRUResultCache(
            max_entries=8, persistence=ShardPersistence(tmp_path)
        )
        warmed.warm_load()
        warmed.put("k", 1)  # a fresh computation replaces the replayed entry
        warmed.get("k")
        assert warmed.warm_hits == 0 and warmed.hits == 1
        warmed.close()

    def test_compaction_triggers_through_put(self, tmp_path):
        cache = LRUResultCache(
            max_entries=8,
            persistence=ShardPersistence(tmp_path, journal_max_entries=3),
        )
        for index in range(6):
            cache.put(f"k{index}", index)
        assert cache.persistence.snapshot_path.exists()
        assert cache.persistence.journal_entries <= 3
        cache.close()
        warmed = LRUResultCache(
            max_entries=8, persistence=ShardPersistence(tmp_path)
        )
        assert warmed.warm_load() == 6
        assert warmed.persistence.snapshot_path.exists()
        assert warmed.registry.gauge("cache.journal_entries") <= 3
        warmed.close()

    def test_leaving_the_service_closes_the_journal_and_put_reopens_it(
        self, tmp_path
    ):
        persistence = ShardPersistence(tmp_path)
        cache = LRUResultCache(max_entries=8, persistence=persistence)
        request = {
            "platform": {"comm": [0.2, 0.5], "comp": [1.0, 2.0]},
            "tasks": 10,
            "scheduler": "LS",
            "seed": 0,
        }
        with ScheduleService(batch_size=1, cache=cache) as service:
            (response,) = service.serve_chunk([request])
            assert not persistence._journal_file.closed
        assert persistence._journal_file is None

        cache.put("late", {"makespan": 2.0})  # reopens the journal
        cache.close()
        warmed = LRUResultCache(
            max_entries=8, persistence=ShardPersistence(tmp_path)
        )
        assert warmed.warm_load() == 2
        assert warmed.get(response["key"]) == response["metrics"]
        assert warmed.get("late") == {"makespan": 2.0}
        warmed.close()


class TestWarmRestartEndToEnd:
    def test_cli_serve_restart_is_warm_and_byte_identical(self, tmp_path):
        """Two `repro serve` runs over one --state-dir: run 2 replays run 1."""
        line = (
            '{"platform":{"comm":[0.25],"comp":[1.0]},"tasks":30,'
            '"scheduler":"LS","id":"warm-1"}\n'
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        }

        def serve_once() -> "subprocess.CompletedProcess[str]":
            return subprocess.run(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--state-dir", str(tmp_path),
                ],
                input=line,
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
                check=True,
            )

        first = serve_once()
        second = serve_once()
        assert first.stdout == second.stdout  # byte-identical responses
        assert json.loads(first.stdout)["status"] == "ok"
        assert "replayed 0 cached result(s)" in first.stderr
        assert "replayed 1 cached result(s)" in second.stderr
        assert "1 warm hit(s)" in second.stderr
        assert "0 simulation(s)" in second.stderr  # served from replayed state

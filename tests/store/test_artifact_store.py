"""ArtifactStore unit tests: round-trips, eviction, corruption, CLI."""

import json
import pickle

import pytest

from repro import obs
from repro.__main__ import main
from repro.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    artifact_store,
    content_key,
    reset_artifact_store,
)


@pytest.fixture(autouse=True)
def no_ambient_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_artifact_store()
    yield
    reset_artifact_store()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


KEY = content_key("unit", 1)
KEY2 = content_key("unit", 2)


def _plant_unreadable(store, how):
    """One entry file the store cannot read back: a ``models`` entry
    whose header line was cut short, or a ``designs`` entry as an older
    store wrote it, with the retired ``kind="bytes"``."""
    if how == "truncated":
        path = store.put("models", KEY2, list(range(1000)))
        path.write_bytes(path.read_bytes()[:10])
        return "models", KEY2, path
    key = content_key("design", "legacy")
    body = b"RPD\x01" + bytes(range(64))
    header = {"schema": SCHEMA_VERSION, "namespace": "designs",
              "key": key, "kind": "bytes", "size": len(body),
              "meta": {"top": "top"}}
    path = store._entry_path("designs", key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return "designs", key, path


class TestRoundTrip:
    def test_json_payload(self, store):
        store.put("ns", KEY, {"rows": [1, 2]}, kind="json")
        assert store.get("ns", KEY) == {"rows": [1, 2]}

    def test_pickle_payload_preserves_order(self, store):
        from collections import Counter

        payload = Counter()
        for token in ["zz", "aa", "mm"]:
            payload[token] += 1
        store.put("ns", KEY, payload)
        assert list(store.get("ns", KEY)) == ["zz", "aa", "mm"]

    def test_entry_file_is_the_header_line_then_the_body(self, store):
        """An entry file is its header's JSON line followed by the
        encoded payload, byte for byte, for both kinds."""
        payload = {"rows": [1, 2], "name": "x" * 100}
        for kind, body in (
                ("pickle", pickle.dumps(payload,
                                        protocol=pickle.HIGHEST_PROTOCOL)),
                ("json", json.dumps(payload).encode("utf-8"))):
            path = store.put("ns", KEY, payload, kind=kind, meta={"n": 2})
            header = {"schema": SCHEMA_VERSION, "namespace": "ns",
                      "key": KEY, "kind": kind, "size": len(body),
                      "meta": {"n": 2}}
            assert path.read_bytes() \
                == json.dumps(header).encode("utf-8") + b"\n" + body, kind
            assert store.get("ns", KEY) == payload

    def test_missing_entry_is_miss(self, store):
        assert store.get("ns", KEY) is None
        assert store.counters_snapshot()["ns"]["misses"] == 1

    def test_namespaces_do_not_collide(self, store):
        store.put("a", KEY, 1, kind="json")
        store.put("b", KEY, 2, kind="json")
        assert store.get("a", KEY) == 1
        assert store.get("b", KEY) == 2

    def test_meta_readable_without_payload(self, store):
        store.put("ns", KEY, list(range(100)), meta={"n": 100})
        assert store.entry_meta("ns", KEY) == {"n": 100}
        assert store.entry_meta("ns", KEY2) is None

    def test_counters_delta(self, store):
        before = store.counters_snapshot()
        store.put("ns", KEY, 1, kind="json")
        store.get("ns", KEY)
        store.get("ns", KEY2)
        delta = obs.delta(before, store.counters_snapshot())
        assert delta == {"ns": {"hits": 1, "misses": 1, "puts": 1}}

    def test_keep_longest_never_shrinks_an_entry(self, store):
        store.put("ns", KEY, list(range(10)), meta={"n": 10},
                  keep_longest="n")
        # A racing shorter batch must be dropped...
        store.put("ns", KEY, list(range(5)), meta={"n": 5},
                  keep_longest="n")
        assert store.get("ns", KEY) == list(range(10))
        assert store.counters_snapshot()["ns"]["puts"] == 1
        # ...while a longer one replaces.
        store.put("ns", KEY, list(range(12)), meta={"n": 12},
                  keep_longest="n")
        assert store.get("ns", KEY) == list(range(12))

    def test_eviction_is_lru_by_access_not_write_time(self, tmp_path):
        """get() keeps an entry hot (mtime), even though the locked
        index only advances last_used on writes."""
        import time

        store = ArtifactStore(tmp_path / "s", max_mb=0.0015)
        store.put("blobs", KEY, "x" * 600, kind="json")
        time.sleep(0.02)
        store.put("blobs", KEY2, "y" * 600, kind="json")
        time.sleep(0.02)
        assert store.get("blobs", KEY) is not None  # re-touch oldest
        store.put("blobs", content_key("unit", 3), "z" * 600,
                  kind="json")  # over budget: evicts true LRU = KEY2
        assert store.get("blobs", KEY) is not None
        assert store.get("blobs", KEY2) is None

    def test_bytes_kind_rejects_non_bytes(self, store):
        """``kind="bytes"`` is retired: it is refused like any unknown
        kind, whatever the payload."""
        for payload in ({"not": "bytes"}, b"RPD\x01"):
            with pytest.raises(ValueError, match="bytes"):
                store.put("ns", KEY, payload, kind="bytes")
        assert not list(store.root.rglob("*.art"))

    def test_corrupted_bytes_entry_is_miss(self, store):
        """An entry of the retired ``bytes`` kind, as an older store
        wrote it, reads as a miss whole or cut short."""
        namespace, key, path = _plant_unreadable(store, "legacy_bytes")
        assert store.get(namespace, key) is None
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 50])
        assert store.get(namespace, key) is None
        assert store.counters_snapshot()[namespace]["hits"] == 0

    def test_rejects_unknown_kind(self, store):
        for kind in ("yaml", "bytes"):
            with pytest.raises(ValueError, match="kind"):
                store.put("ns", KEY, b"payload", kind=kind)

    def test_rejects_nonpositive_max_mb(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ArtifactStore(tmp_path / "s", max_mb=0)


class TestEvictionAndGc:
    def _put_big(self, store, key, n_bytes):
        store.put("blobs", key, "x" * n_bytes, kind="json")

    def test_put_evicts_lru_past_budget(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_mb=0.001)  # ~1 KB
        self._put_big(store, KEY, 600)
        self._put_big(store, KEY2, 600)  # pushes total past 1 KB
        assert store.get("blobs", KEY) is None       # LRU evicted
        assert store.get("blobs", KEY2) is not None  # newest survives

    def test_gc_on_demand(self, store):
        self._put_big(store, KEY, 600)
        self._put_big(store, KEY2, 600)
        outcome = store.gc(max_mb=0.001)  # ~1 KB: room for one entry
        assert outcome["evicted"] == 1
        assert outcome["remaining_bytes"] <= 0.001 * 1024 * 1024
        assert store.get("blobs", KEY) is None       # LRU went first
        assert store.get("blobs", KEY2) is not None

    def test_gc_without_limit_raises(self, store):
        with pytest.raises(ValueError, match="limit"):
            store.gc()

    def test_clear_removes_everything(self, store):
        store.put("a", KEY, 1, kind="json")
        store.put("b", KEY2, 2, kind="json")
        assert store.clear() == {"removed_entries": 2}
        assert store.stats()["entries"] == 0
        assert store.get("a", KEY) is None

    @pytest.mark.parametrize("how", ["truncated", "legacy_bytes"])
    def test_clear_removes_unreadable_entries(self, store, how):
        store.put("a", KEY, 1, kind="json")
        namespace, key, path = _plant_unreadable(store, how)
        assert store.get(namespace, key) is None
        assert store.clear() == {"removed_entries": 2}
        assert not path.exists()
        assert not list(store.root.rglob("*.art"))

    @pytest.mark.parametrize("how", ["truncated", "legacy_bytes"])
    def test_gc_counts_and_evicts_unreadable_entries(self, store, how):
        _, _, path = _plant_unreadable(store, how)
        outcome = store.gc(max_mb=1)
        assert outcome["remaining_entries"] == 1
        assert outcome["remaining_bytes"] == path.stat().st_size
        outcome = store.gc(max_mb=1e-9)
        assert outcome["evicted"] == 1
        assert outcome["remaining_entries"] == 0
        assert not path.exists()

    def test_stats_totals(self, store):
        store.put("a", KEY, [1] * 50, kind="json")
        store.put("b", KEY2, [2] * 50, kind="json")
        stats = store.stats()
        assert stats["entries"] == 2
        assert set(stats["by_namespace"]) == {"a", "b"}
        assert stats["total_bytes"] > 0
        assert stats["schema"] == SCHEMA_VERSION


class TestCorruptionRecovery:
    def test_hit_stamps_its_entry_and_a_damaged_entry_misses(self, store):
        """A hit reads and stamps the one path ``_entry_path`` names; a
        damaged entry at that path is a miss and keeps its mtime."""
        import os

        old = 1_000_000_000
        path = store.put("ns", KEY, {"ok": True}, kind="json")
        assert path == store._entry_path("ns", KEY)
        os.utime(path, (old, old))
        assert store.get("ns", KEY) == {"ok": True}
        assert path.stat().st_mtime > old
        path.write_bytes(path.read_bytes()[:-2])
        os.utime(path, (old, old))
        assert store.get("ns", KEY) is None
        assert path.stat().st_mtime == old
        assert store.counters_snapshot()["ns"] \
            == {"hits": 1, "misses": 1, "puts": 1}

    def test_truncated_entry_is_miss_not_crash(self, store):
        for kind, payload in (("pickle", list(range(1000))),
                              ("json", "x" * 1000)):
            path = store.put("ns", KEY, payload, kind=kind)
            blob = path.read_bytes()
            path.write_bytes(blob[:len(blob) // 2])
            assert store.get("ns", KEY) is None, kind

    def test_damaged_pickle_body_is_miss(self, store):
        """A pickle body whose header checks out but which does not
        unpickle -- cut short under a header resized to match, zeroed
        or garbled -- reads as a miss."""
        path = store.put("ns", KEY, list(range(1000)))
        blob = path.read_bytes()
        newline = blob.index(b"\n") + 1
        header = json.loads(blob[:newline])
        body = blob[newline:]
        for damaged in (body[:len(body) // 2], bytes(len(body)),
                        b"\x80\x05junk"):
            header["size"] = len(damaged)
            path.write_bytes(json.dumps(header).encode() + b"\n" + damaged)
            assert store.get("ns", KEY) is None, damaged[:8]
        assert store.counters_snapshot()["ns"] \
            == {"hits": 0, "misses": 3, "puts": 1}

    def test_garbage_entry_is_miss(self, store):
        path = store.put("ns", KEY, {"ok": True}, kind="json")
        path.write_bytes(b"\x00\x01 not a header\njunk")
        assert store.get("ns", KEY) is None

    def test_schema_mismatch_is_miss(self, store):
        path = store.put("ns", KEY, {"ok": True}, kind="json")
        blob = path.read_bytes()
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline])
        header["schema"] = SCHEMA_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + blob[newline:])
        assert store.get("ns", KEY) is None

    def test_entry_under_wrong_key_is_miss(self, store):
        """A blob copied to another digest's path (partial rsync,
        manual surgery) must not substitute the wrong artifact."""
        path = store.put("ns", KEY, {"who": "key1"}, kind="json")
        other = store._entry_path("ns", KEY2)
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_bytes(path.read_bytes())
        assert store.get("ns", KEY2) is None
        assert store.get("ns", KEY) == {"who": "key1"}

    def test_corrupt_index_rebuilt_from_tree(self, store):
        """A corrupt ``index.json`` an older version left behind is
        ignored: ``stats`` and ``gc`` count the tree, and ``clear``
        removes it."""
        store.put("ns", KEY, {"ok": 1}, kind="json")
        store.put("ns", KEY2, {"ok": 2}, kind="json")
        (store.root / "index.json").write_text("{ truncated")
        stats = store.stats()  # must count the tree, not crash
        assert stats["entries"] == 2
        assert store.gc(max_mb=1)["remaining_entries"] == 2
        assert store.get("ns", KEY) == {"ok": 1}
        assert store.clear() == {"removed_entries": 2}
        assert not (store.root / "index.json").exists()

    def test_missing_index_rebuilt_for_gc(self, store):
        """No index is written, and a stale ``index.json`` an older
        version left (naming an entry that is gone, missing one that
        exists) moves neither ``stats`` nor ``gc``; ``clear`` removes
        it."""
        store.put("ns", KEY, "x" * 500, kind="json")
        index = store.root / "index.json"
        assert not index.exists()
        index.write_text(json.dumps({
            "schema": SCHEMA_VERSION,
            "entries": {f"ns/{KEY2}": {"size": 10**9, "last_used": 0.0,
                                       "key": KEY2, "meta": {}}}}))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == store._entry_path("ns", KEY) \
            .stat().st_size
        outcome = store.gc(max_mb=1)
        assert outcome["remaining_entries"] == 1
        assert outcome["evicted"] == 0
        assert store.get("ns", KEY) == "x" * 500
        store.clear()
        assert not index.exists()

    @pytest.mark.parametrize("damage", ["truncated", "mis_keyed"])
    def test_rejected_entry_does_not_block_keep_longest(self, store,
                                                        damage):
        """An entry ``get`` rejects -- cut short, or another key's entry
        copied under this key's path -- is no entry to
        ``entry_meta`` or ``keep_longest``: a shorter publish replaces
        it and the key recovers."""
        if damage == "truncated":
            path = store.put("generations", KEY, list(range(10)),
                             meta={"n": 10}, keep_longest="n")
            path.write_bytes(path.read_bytes()[:-7])
            republish = 8
        else:
            other = store.put("generations", KEY2, list(range(20)),
                              meta={"n": 20}, keep_longest="n")
            path = store._entry_path("generations", KEY)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(other.read_bytes())
            republish = 5
        assert store.get("generations", KEY) is None
        assert store.entry_meta("generations", KEY) is None
        store.put("generations", KEY, list(range(republish)),
                  meta={"n": republish}, keep_longest="n")
        assert store.get("generations", KEY) == list(range(republish))
        assert store.entry_meta("generations", KEY) == {"n": republish}


class TestIndexFree:
    """The entry files are the store's only state."""

    @staticmethod
    def _tree(root):
        return {path.relative_to(root).as_posix():
                (path.read_bytes(), path.stat().st_mtime_ns)
                for path in root.rglob("*") if path.is_file()}

    def test_puts_leave_only_entries_and_the_lock(self, store):
        for i in range(7):
            store.put(f"ns{i % 3}", content_key("unit", i), i, kind="json")
        files = sorted(self._tree(store.root))
        assert len(files) == 8
        assert [f for f in files if not f.endswith(".art")] \
            == ["index.lock"]

    def test_unbounded_put_never_scans_the_tree(self, store, tmp_path,
                                                monkeypatch):
        def no_scan(self):
            raise AssertionError("an unbounded put scanned the tree")

        monkeypatch.setattr(ArtifactStore, "_scan", no_scan)
        for i in range(5):
            store.put("ns", content_key("unit", i), i, kind="json")
        assert store.get("ns", content_key("unit", 4)) == 4
        # ...while a bounded put must scan, to evict.
        bounded = ArtifactStore(tmp_path / "bounded", max_mb=1)
        with pytest.raises(AssertionError, match="scanned"):
            bounded.put("ns", KEY, 1, kind="json")

    def test_stats_writes_nothing(self, store):
        before = self._tree(store.root.parent)
        assert store.stats()["entries"] == 0
        assert self._tree(store.root.parent) == before
        store.put("a", KEY, [1] * 50, kind="json")
        store.put("b", KEY2, "x" * 50)
        before = self._tree(store.root.parent)
        assert store.stats()["entries"] == 2
        assert self._tree(store.root.parent) == before


class TestActivationSnapshot:
    def test_off_by_default(self):
        assert artifact_store() is None

    def test_env_activates_after_reset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s"))
        reset_artifact_store()
        store = artifact_store()
        assert store is not None
        assert str(store.root).startswith(str(tmp_path / "s"))

    def test_env_is_snapshotted_once(self, tmp_path, monkeypatch):
        assert artifact_store() is None
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s"))
        # Mid-run toggle without reset: snapshot stands.
        assert artifact_store() is None
        reset_artifact_store()
        assert artifact_store() is not None

    def test_max_mb_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "7.5")
        assert ArtifactStore(tmp_path / "s").max_mb == 7.5
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "lots")
        with pytest.raises(ValueError, match="REPRO_STORE_MAX_MB"):
            ArtifactStore(tmp_path / "s2")


class TestStoreCli:
    def test_stats_gc_clear(self, tmp_path, capsys):
        root = tmp_path / "s"
        store = ArtifactStore(root)
        store.put("ns", KEY, "x" * 500, kind="json")
        store.put("ns", KEY2, "y" * 500, kind="json")

        assert main(["store", "stats", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "artifact store" in out and "ns" in out

        assert main(["store", "gc", "--dir", str(root),
                     "--max-mb", "0.0007"]) == 0
        assert "evicted" in capsys.readouterr().out

        assert main(["store", "clear", "--dir", str(root)]) == 0
        assert "removed" in capsys.readouterr().out
        assert ArtifactStore(root).stats()["entries"] == 0

    def test_no_dir_errors(self, capsys):
        assert main(["store", "stats"]) == 2
        assert "REPRO_STORE_DIR" in capsys.readouterr().out

    def test_gc_without_limit_errors(self, tmp_path, capsys):
        assert main(["store", "gc", "--dir", str(tmp_path / "s")]) == 2
        assert "error" in capsys.readouterr().out

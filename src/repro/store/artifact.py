"""Content-addressed, disk-backed artifact store.

Experiment sweeps re-derive the same artifacts at every grid point:
each sharded worker holds a private in-memory generation cache, and
every task rebuilds the corpus and retrains the clean model from
scratch.  This store memoizes those artifacts on disk, keyed by a
content digest, so cost scales with *unique* artifacts instead of grid
size -- the same memoize-by-content-hash discipline dataflow HDL
frameworks apply to elaboration artifacts.

Activation and layout
---------------------

The store is **off by default**.  Setting ``REPRO_STORE_DIR=/path``
activates it process-wide (snapshotted once per process; see
:func:`artifact_store` / :func:`reset_artifact_store`).  On disk:

.. code-block:: text

    <root>/v1/                      # schema-versioned root
        index.json                  # bookkeeping (sizes, LRU stamps)
        index.lock                  # fcntl lock serialising index writes
        <namespace>/<dd>/<digest>.art

Every entry is one self-contained file: a JSON header line (schema
version, namespace, key, payload kind and size) followed by the raw
payload bytes.  Entries are written to a temp file and published with
an atomic ``os.replace``, so readers never observe half-written
payloads; a short read (crash mid-write of the temp file can't cause
one, but truncation by external meddling can) is detected via the
header's size field and treated as a **miss**, never an error.

The index is advisory: it accelerates ``stats``/``gc`` and carries
LRU timestamps, but the entry files are the source of truth.  A
corrupt index is rebuilt by scanning the tree, and ``gc`` always
rescans; the scan counts every ``*.art`` file -- damaged, of an
unknown kind or not -- so ``gc`` can evict it, and ``clear`` deletes
every such file.

Payloads
--------

``kind="json"`` entries hold JSON documents.  ``kind="pickle"``
entries hold pickled Python objects -- used for fitted models and
generation batches, where bit-identical round-trips of dict/Counter
iteration order matter for RNG determinism.  Only unpickle stores you
trust (i.e. your own ``REPRO_STORE_DIR``); the store never downloads
anything.  An entry of any other kind (such as ``kind="bytes"`` from
an older store) reads as a miss.

Eviction
--------

``REPRO_STORE_MAX_MB`` (or ``ArtifactStore(max_mb=...)``) bounds the
payload bytes on disk; :meth:`ArtifactStore.put` evicts
least-recently-used entries past the bound, and :meth:`ArtifactStore.gc`
does the same on demand (``python -m repro store gc``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path

from ..obs import Counters

try:  # POSIX only; the store degrades to lock-free elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

SCHEMA_VERSION = 1

_ENV_DIR = "REPRO_STORE_DIR"
_ENV_MAX_MB = "REPRO_STORE_MAX_MB"

#: Payload encodings an entry may declare.
KINDS = ("json", "pickle")


def content_key(*parts) -> str:
    """Digest a tuple of JSON-able parts into a stable hex key."""
    blob = json.dumps(list(parts), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Disk-backed artifact cache with per-namespace hit/miss counters."""

    def __init__(self, root: str | Path, max_mb: float | None = None):
        self.root = Path(root) / f"v{SCHEMA_VERSION}"
        self.root.mkdir(parents=True, exist_ok=True)
        if max_mb is None:
            env = os.environ.get(_ENV_MAX_MB)
            if env:
                try:
                    max_mb = float(env)
                except ValueError as exc:
                    raise ValueError(
                        f"{_ENV_MAX_MB} must be a number, got {env!r}"
                    ) from exc
        if max_mb is not None and max_mb <= 0:
            raise ValueError(f"max_mb must be positive, got {max_mb}")
        self.max_mb = max_mb
        #: this store's per-namespace counters; a new store starts at zero
        self.counters = Counters(keys=("hits", "misses", "puts"))

    # -- paths --------------------------------------------------------------

    def _entry_path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:2] / f"{key}.art"

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    # -- locking ------------------------------------------------------------

    @contextlib.contextmanager
    def _locked_index(self):
        """Exclusive fcntl lock around index read-modify-write cycles."""
        lock_path = self.root / "index.lock"
        with open(lock_path, "a+") as lock_file:
            if fcntl is not None:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    # -- index (advisory bookkeeping; entry files are ground truth) ---------

    def _load_index(self) -> dict:
        """Read the index, rebuilding from a tree scan on any damage."""
        with contextlib.suppress(OSError, json.JSONDecodeError,
                                 ValueError):
            data = json.loads(self._index_path.read_text())
            if data.get("schema") == SCHEMA_VERSION \
                    and isinstance(data.get("entries"), dict):
                return data
        return self._rebuild_index()

    def _rebuild_index(self) -> dict:
        """Index every entry file on disk, readable or not.

        The ref comes from the file's location, not its header, so a
        damaged entry (or one of a kind this version does not read) is
        still counted by ``stats`` and evicted by ``gc``.
        """
        entries: dict[str, dict] = {}
        for path in sorted(self.root.glob("*/*/*.art")):
            try:
                stat = path.stat()
            except OSError:
                continue  # removed under us
            header = self._read_header(path) or {}
            entries[f"{path.parent.parent.name}/{path.stem}"] = {
                "size": stat.st_size,
                "last_used": stat.st_mtime,
                "key": header.get("key", path.stem),
                "meta": header.get("meta", {}),
            }
        return {"schema": SCHEMA_VERSION, "entries": entries}

    def _write_index(self, index: dict) -> None:
        self._atomic_write(self._index_path,
                           json.dumps(index).encode("utf-8"))

    def _atomic_write(self, path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # -- entry files --------------------------------------------------------

    @staticmethod
    def _read_header(path: Path) -> dict | None:
        """Entry header, or None when the file is damaged/foreign."""
        try:
            with open(path, "rb") as handle:
                line = handle.readline()
            header = json.loads(line)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                ValueError):
            return None
        if not isinstance(header, dict) \
                or header.get("schema") != SCHEMA_VERSION \
                or header.get("kind") not in KINDS:
            return None
        return header

    def get(self, namespace: str, key: str):
        """Deserialized payload for ``namespace``/``key``, or None.

        Any damage -- missing file, truncated payload, schema or
        digest mismatch, undecodable payload -- counts as a miss; the
        store never raises on a bad entry.
        """
        path = self._entry_path(namespace, key)
        payload = None
        try:
            blob = path.read_bytes()
        except OSError:
            blob = None
        if blob is not None:
            payload = self._decode_entry(blob, namespace, key)
        if payload is None:
            self.counters.bump(namespace, "misses")
            return None
        self.counters.bump(namespace, "hits")
        self._touch(namespace, key)
        return payload[0]

    @staticmethod
    def _decode_entry(blob: bytes, namespace: str, key: str):
        """``(payload,)`` decoded from an entry blob, or None if damaged.

        Wrapped in a 1-tuple so a legitimately-None payload is
        distinguishable from damage.  The header's namespace/key must
        match the request: an entry copied under another digest's path
        (partial rsync, manual surgery) must read as a miss, not
        silently substitute the wrong artifact.
        """
        newline = blob.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(blob[:newline])
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return None
        if not isinstance(header, dict) \
                or header.get("schema") != SCHEMA_VERSION \
                or header.get("namespace") != namespace \
                or header.get("key") != key:
            return None
        body = blob[newline + 1:]
        if len(body) != header.get("size"):
            return None  # truncated (or padded) payload
        kind = header.get("kind")
        try:
            if kind == "json":
                return (json.loads(body),)
            if kind == "pickle":
                return (pickle.loads(body),)
        except Exception:
            return None
        return None

    def _touch(self, namespace: str, key: str) -> None:
        """Best-effort LRU stamp for gc ordering (never fails a get)."""
        with contextlib.suppress(OSError):
            os.utime(self._entry_path(namespace, key))

    def entry_meta(self, namespace: str, key: str) -> dict | None:
        """The ``meta`` dict stored with an entry (header-only read)."""
        header = self._read_header(self._entry_path(namespace, key))
        if header is None:
            return None
        return header.get("meta", {})

    def put(self, namespace: str, key: str, payload, *,
            kind: str = "pickle", meta: dict | None = None,
            keep_longest: str | None = None) -> Path:
        """Serialize and publish an entry atomically; returns its path.

        With ``keep_longest="n"``, the published entry's ``meta["n"]``
        is re-checked *under the index lock* and the write is skipped
        when an equal-or-longer entry already exists -- so two racing
        writers (sharded workers decoding the same key) can never
        replace a longer batch with a shorter one.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown payload kind {kind!r}")
        if kind == "json":
            body = json.dumps(payload).encode("utf-8")
        else:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "schema": SCHEMA_VERSION,
            "namespace": namespace,
            "key": key,
            "kind": kind,
            "size": len(body),
            "meta": meta or {},
        }
        blob = json.dumps(header).encode("utf-8") + b"\n" + body
        path = self._entry_path(namespace, key)
        with self._locked_index():
            if keep_longest is not None:
                existing = self._read_header(path)
                if existing is not None \
                        and existing.get("meta", {}).get(keep_longest, 0) \
                        >= (meta or {}).get(keep_longest, 0):
                    return path
            self._atomic_write(path, blob)
            self.counters.bump(namespace, "puts")
            index = self._load_index()
            index["entries"][f"{namespace}/{key}"] = {
                "size": len(blob),
                "last_used": time.time(),
                "key": key,
                "meta": meta or {},
            }
            self._evict_over_budget(index)
            self._write_index(index)
        return path

    # -- maintenance --------------------------------------------------------

    def _evict_over_budget(self, index: dict) -> list[str]:
        """Drop LRU entries until under ``max_mb`` (index already locked).

        Recency comes from entry-file mtimes, not the index: ``get``
        stamps mtime lock-free (:meth:`_touch`) while the index's
        ``last_used`` only advances on writes, so ordering by the
        index would evict the hottest (oldest-written, most-read)
        entries first.
        """
        if self.max_mb is None:
            return []
        budget = self.max_mb * 1024 * 1024
        entries = index["entries"]
        total = sum(e["size"] for e in entries.values())
        evicted = []

        def last_used(ref: str) -> float:
            namespace, _, key = ref.rpartition("/")
            try:
                return self._entry_path(namespace, key).stat().st_mtime
            except OSError:
                return entries[ref]["last_used"]

        for ref in sorted(entries, key=last_used):
            if total <= budget:
                break
            namespace, _, key = ref.rpartition("/")
            with contextlib.suppress(OSError):
                self._entry_path(namespace, key).unlink()
            total -= entries[ref]["size"]
            del entries[ref]
            evicted.append(ref)
        return evicted

    def gc(self, max_mb: float | None = None) -> dict:
        """Evict LRU entries until the store fits ``max_mb`` megabytes."""
        limit = max_mb if max_mb is not None else self.max_mb
        if limit is None:
            raise ValueError(
                f"no size limit: pass max_mb or set {_ENV_MAX_MB}")
        saved_limit, self.max_mb = self.max_mb, limit
        try:
            with self._locked_index():
                index = self._rebuild_index()
                evicted = self._evict_over_budget(index)
                self._write_index(index)
        finally:
            self.max_mb = saved_limit
        remaining = sum(e["size"] for e in index["entries"].values())
        return {"evicted": len(evicted), "evicted_refs": evicted,
                "remaining_entries": len(index["entries"]),
                "remaining_bytes": remaining}

    def clear(self) -> dict:
        """Delete every entry file (and the index), readable or not;
        returns how many were removed."""
        with self._locked_index():
            paths = list(self.root.glob("*/*/*.art"))
            for path in paths:
                with contextlib.suppress(OSError):
                    path.unlink()
            with contextlib.suppress(OSError):
                self._index_path.unlink()
        return {"removed_entries": len(paths)}

    def stats(self) -> dict:
        """On-disk totals (from the index) + this process's counters."""
        with self._locked_index():
            index = self._load_index()
            self._write_index(index)  # persist any rebuild
        by_namespace: dict[str, dict[str, int]] = {}
        total = 0
        for ref, entry in index["entries"].items():
            namespace = ref.rpartition("/")[0]
            bucket = by_namespace.setdefault(
                namespace, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry["size"]
            total += entry["size"]
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": len(index["entries"]),
            "total_bytes": total,
            "max_mb": self.max_mb,
            "by_namespace": by_namespace,
            "counters": self.counters.snapshot(),
        }

    def counters_snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of this process's per-namespace hit/miss/put counters."""
        return self.counters.snapshot()


# -- process-wide activation (mirrors the generation-cache snapshot) --------

_active_store: ArtifactStore | None = None
_store_resolved = False


def artifact_store() -> ArtifactStore | None:
    """The process-wide store, or None when ``REPRO_STORE_DIR`` is unset.

    The environment is snapshotted on first use so toggling the
    variable mid-run cannot mix stored and unstored artifacts within
    one process; :func:`reset_artifact_store` re-reads it (tests, and
    the CLI after pointing at a different root).
    """
    global _active_store, _store_resolved
    if not _store_resolved:
        root = os.environ.get(_ENV_DIR, "").strip()
        _active_store = ArtifactStore(root) if root else None
        _store_resolved = True
    return _active_store


def reset_artifact_store() -> None:
    """Drop the process snapshot; the next call re-reads the env."""
    global _active_store, _store_resolved
    _active_store = None
    _store_resolved = False

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
        index.lock                  # fcntl lock serialising writers
        <namespace>/<dd>/<digest>.art

Every entry is one self-contained file: a JSON header line (schema
version, namespace, key, payload kind and size) followed by the raw
payload bytes.  Entries are written to a temp file and published with
an atomic ``os.replace``, so readers never observe half-written
payloads.  An entry whose header does not check out -- another schema,
an unknown kind, another entry's namespace or key (a file copied under
the wrong digest), or a size the file's length contradicts (truncation
by external meddling) -- reads as a **miss**, never an error, to
``get``, ``entry_meta`` and ``keep_longest`` alike.

The entry files are the store's only state.  ``stats`` and ``gc`` scan
the tree for the size and mtime of every ``*.art`` file -- damaged, of
an unknown kind or not -- so ``gc`` can evict it, and ``clear`` deletes
every such file.  Without a size bound a put writes one file, whatever
the store's size.

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
entry bytes on disk; with a bound, :meth:`ArtifactStore.put` scans the
tree and evicts least-recently-used entries (oldest mtime: a put writes
it, a ``get`` touches it) past the bound, and :meth:`ArtifactStore.gc`
does the same on demand (``python -m repro store gc``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

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
        self._root = str(self.root)
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
        #: the clean side of the last store-backed scenario (see
        #: ``repro.scenarios.runtime``): at most one, held in memory for
        #: exactly as long as this instance
        self.clean_side: Any = None

    # -- paths --------------------------------------------------------------

    def _entry_file(self, namespace: str, key: str) -> str:
        """``<root>/<namespace>/<key[:2]>/<key>.art``, joined as a
        string: ``get`` runs on every hit, and three ``Path`` joins
        cost it more than its read."""
        return os.path.join(self._root, namespace, key[:2], key + ".art")

    def _entry_path(self, namespace: str, key: str) -> Path:
        return Path(self._entry_file(namespace, key))

    # -- locking ------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        """Exclusive fcntl lock serialising writers (``keep_longest``'s
        check-and-write, eviction, ``clear``).  The lock file keeps the
        ``index.lock`` name older versions used, so processes of either
        version serialise with each other."""
        lock_path = self.root / "index.lock"
        with open(lock_path, "a+") as lock_file:
            if fcntl is not None:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    # -- the tree -----------------------------------------------------------

    def _scan(self) -> dict[Path, tuple[int, float]]:
        """``path -> (size, mtime)`` of every entry file on disk.

        Reads no headers, so a damaged entry (or one of a kind this
        version does not read) is still counted by ``stats`` and
        evicted by ``gc``.
        """
        entries: dict[Path, tuple[int, float]] = {}
        for path in sorted(self.root.glob("*/*/*.art")):
            try:
                stat = path.stat()
            except OSError:
                continue  # removed under us
            entries[path] = (stat.st_size, stat.st_mtime)
        return entries

    def _atomic_write(self, path: Path, *chunks: bytes) -> None:
        """Publish ``chunks``, written one after the other, as ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # -- entry files --------------------------------------------------------

    @staticmethod
    def _check_header(line: bytes, length: int, namespace: str,
                      key: str) -> dict | None:
        """The header of an entry file ``length`` bytes long whose first
        line is ``line``, or None when it is not this schema's header of
        ``namespace``/``key`` with a known kind and a ``size`` equal to
        the rest of the file.

        The one check behind ``get``, ``entry_meta`` and
        ``keep_longest``: an entry cut short or copied under another
        digest's path (partial rsync, manual surgery) reads as a miss to
        all three, so it can neither substitute the wrong artifact nor
        block a republish of its key.
        """
        if not line.endswith(b"\n"):
            return None
        try:
            header = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return None
        if not isinstance(header, dict) \
                or header.get("schema") != SCHEMA_VERSION \
                or header.get("kind") not in KINDS \
                or header.get("namespace") != namespace \
                or header.get("key") != key \
                or header.get("size") != length - len(line):
            return None
        return header

    def _read_header(self, namespace: str, key: str) -> dict | None:
        """An entry's checked header, read without its payload."""
        try:
            with open(self._entry_path(namespace, key), "rb") as handle:
                line = handle.readline()
                length = os.fstat(handle.fileno()).st_size
        except OSError:
            return None
        return self._check_header(line, length, namespace, key)

    def get(self, namespace: str, key: str):
        """Deserialized payload for ``namespace``/``key``, or None.

        Any damage -- missing file, a header :meth:`_check_header`
        rejects, undecodable payload -- counts as a miss; the store
        never raises on a bad entry.  A hit stamps the entry's mtime,
        best effort, as its LRU recency for ``gc``.
        """
        path = self._entry_file(namespace, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            blob = b""
        payload = self._decode_entry(blob, namespace, key)
        if payload is None:
            self.counters.bump(namespace, "misses")
            return None
        self.counters.bump(namespace, "hits")
        with contextlib.suppress(OSError):
            os.utime(path)
        return payload[0]

    @classmethod
    def _decode_entry(cls, blob: bytes, namespace: str, key: str):
        """``(payload,)`` decoded from an entry blob, or None if damaged.

        Wrapped in a 1-tuple so a legitimately-None payload is
        distinguishable from damage.
        """
        line = blob[:blob.find(b"\n") + 1]
        header = cls._check_header(line, len(blob), namespace, key)
        if header is None:
            return None
        try:
            if header["kind"] == "json":
                # json.loads takes no memoryview: JSON bodies are small
                return (json.loads(blob[len(line):]),)
            # a view, not a copy: a model body is over a megabyte
            return (pickle.loads(memoryview(blob)[len(line):]),)
        except Exception:
            return None

    def entry_meta(self, namespace: str, key: str) -> dict | None:
        """The ``meta`` dict stored with an entry (header-only read)."""
        header = self._read_header(namespace, key)
        return None if header is None else header.get("meta", {})

    def put(self, namespace: str, key: str, payload, *,
            kind: str = "pickle", meta: dict | None = None,
            keep_longest: str | None = None) -> Path:
        """Serialize and publish an entry atomically; returns its path.

        Without a size bound a put is one atomic write of its own
        entry file, whatever the store's size; with ``max_mb`` it then
        scans the tree and evicts least-recently-used entries past the
        bound.

        With ``keep_longest="n"``, the published entry's ``meta["n"]``
        is re-checked *under the store's lock* and the write is skipped
        when an equal-or-longer entry already exists -- so two racing
        writers (sharded workers decoding the same key) can never
        replace a longer batch with a shorter one.  An entry ``get``
        rejects never blocks the write.
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
        line = json.dumps(header).encode("utf-8") + b"\n"
        path = self._entry_path(namespace, key)
        with self._locked():
            if keep_longest is not None:
                existing = self._read_header(namespace, key)
                if existing is not None \
                        and existing.get("meta", {}).get(keep_longest, 0) \
                        >= (meta or {}).get(keep_longest, 0):
                    return path
            # header and body written in turn, never joined in memory
            self._atomic_write(path, line, body)
            self.counters.bump(namespace, "puts")
            if self.max_mb is not None:
                self._evict_over_budget(self._scan(), self.max_mb)
        return path

    # -- maintenance --------------------------------------------------------

    @staticmethod
    def _evict_over_budget(entries: dict[Path, tuple[int, float]],
                           max_mb: float) -> list[str]:
        """Delete least-recently-used entries until ``entries`` (a
        :meth:`_scan` taken under the lock) fit ``max_mb``; drops them
        from ``entries`` and returns their ``namespace/key`` refs.

        Recency is the entry file's mtime: a put writes it and a ``get``
        hit stamps it lock-free, so the hottest entries go last however
        long ago they were written.
        """
        budget = max_mb * 1024 * 1024
        total = sum(size for size, _ in entries.values())
        evicted = []
        for path in sorted(entries, key=lambda p: entries[p][1]):
            if total <= budget:
                break
            with contextlib.suppress(OSError):
                path.unlink()
            total -= entries.pop(path)[0]
            evicted.append(f"{path.parent.parent.name}/{path.stem}")
        return evicted

    def gc(self, max_mb: float | None = None) -> dict:
        """Evict LRU entries until the store fits ``max_mb`` megabytes."""
        limit = max_mb if max_mb is not None else self.max_mb
        if limit is None:
            raise ValueError(
                f"no size limit: pass max_mb or set {_ENV_MAX_MB}")
        with self._locked():
            entries = self._scan()
            evicted = self._evict_over_budget(entries, limit)
        return {"evicted": len(evicted), "evicted_refs": evicted,
                "remaining_entries": len(entries),
                "remaining_bytes": sum(size for size, _ in entries.values())}

    def clear(self) -> dict:
        """Delete every entry file, readable or not, and any
        ``index.json`` an older version left; returns how many entries
        were removed."""
        with self._locked():
            paths = list(self._scan())
            for path in [*paths, self.root / "index.json"]:
                with contextlib.suppress(OSError):
                    path.unlink()
        return {"removed_entries": len(paths)}

    def stats(self) -> dict:
        """On-disk totals from a scan of the entry files (writes
        nothing) + this process's counters."""
        entries = self._scan()
        by_namespace: dict[str, dict[str, int]] = {}
        for path, (size, _) in entries.items():
            bucket = by_namespace.setdefault(
                path.parent.parent.name, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": len(entries),
            "total_bytes": sum(size for size, _ in entries.values()),
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

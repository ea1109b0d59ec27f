"""Process-wide generation cache for :meth:`HDLCoder.generate_n`.

Experiment sweeps revisit the same (model, prompt, temperature, seed)
tuple constantly: rare-word fuzzing regenerates the benign baseline for
every probe batch, the ASR/misfire/baseline triple shares prompts, and
grid sweeps re-measure the clean model once per poison budget.  Since
the model is deterministic given that tuple, re-decoding is pure waste.

The cache stores the completion list under a key that includes the
model's *cache fingerprint* -- a digest of the training data **and** the
full fine-tuning config -- so two models only ever share entries when
they would generate bit-identical completions.  Entries exploit the
prefix property of :meth:`HDLCoder.generate_n`: the outer RNG is
consumed exactly once per completion, so the first ``n`` completions of
a longer run equal a shorter run with the same seed.  A request for
``n`` is therefore served from any stored batch of length >= ``n``.

Two tiers:

* an in-process bounded LRU (always on unless disabled);
* a disk tier through the artifact store (:mod:`repro.store`), active
  when ``REPRO_STORE_DIR`` is set.  Sharded sweep workers each hold a
  private memory tier but share the disk tier, so a batch decoded in
  one worker (or a previous run) is a ``disk_hits`` lookup everywhere
  else.  Disk entries round-trip through pickle, which preserves the
  completion list bit-for-bit.

Set ``REPRO_GEN_CACHE=off`` to disable caching process-wide (the
counters then stay frozen).  The flag is snapshotted at first use so
toggling it mid-run cannot mix cached and uncached measurements;
:func:`reset_cache_enabled` (tests) re-reads it.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..obs import Counters
from ..store import artifact_store, content_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .model import Generation

_ENV_FLAG = "REPRO_GEN_CACHE"

#: Key type: (model cache fingerprint, prompt, temperature, seed).
CacheKey = tuple[str, str, float, int]

#: Artifact-store namespace for completion batches.
STORE_NAMESPACE = "generations"

#: Keys of a cache's ``cache`` counter group.
CACHE_KEYS = ("hits", "disk_hits", "misses")

_enabled_snapshot: bool | None = None
_enabled_lock = threading.Lock()


def cache_enabled() -> bool:
    """Whether caching is active (``REPRO_GEN_CACHE`` kill-switch).

    The environment is read **once per process** and snapshotted:
    consulting it per-lookup meant an env toggle mid-sweep could mix
    cached and uncached rows within one report.  Worker processes of
    the sharded executor take their own snapshot at first lookup.
    """
    global _enabled_snapshot
    if _enabled_snapshot is None:
        with _enabled_lock:
            if _enabled_snapshot is None:
                flag = os.environ.get(_ENV_FLAG, "on").strip().lower()
                _enabled_snapshot = flag not in ("off", "0", "false", "no")
    return _enabled_snapshot


def reset_cache_enabled() -> None:
    """Drop the snapshot; the next lookup re-reads ``REPRO_GEN_CACHE``."""
    global _enabled_snapshot
    with _enabled_lock:
        _enabled_snapshot = None


class GenerationCache:
    """Bounded LRU of completion batches over an optional disk tier."""

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[CacheKey, list["Generation"]] = \
            OrderedDict()
        self._lock = threading.Lock()
        self.counters = Counters({"cache": CACHE_KEYS})

    @staticmethod
    def enabled() -> bool:
        """Process-wide kill-switch snapshot (see :func:`cache_enabled`)."""
        return cache_enabled()

    @staticmethod
    def _store_key(key: CacheKey) -> str:
        return content_key(*key)

    def lookup(self, key: CacheKey, n: int) -> list["Generation"] | None:
        """Return the first ``n`` cached completions for ``key``, or None.

        Tries the memory tier, then the disk tier (populating memory on
        a disk hit).  Counts a hit, disk hit, or miss; disabled caches
        count nothing.
        """
        if not self.enabled():
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and len(entry) >= n:
                self._entries.move_to_end(key)
                self.counters.bump("cache", "hits")
                return list(entry[:n])
        store = artifact_store()
        if store is not None:
            batch = store.get(STORE_NAMESPACE, self._store_key(key))
            if batch is not None and len(batch) >= n:
                with self._lock:
                    self._insert(key, list(batch))
                self.counters.bump("cache", "disk_hits")
                return list(batch[:n])
        self.counters.bump("cache", "misses")
        return None

    def store(self, key: CacheKey, generations: list["Generation"]) -> None:
        """Record a completion batch (keeps the longest batch per key)."""
        if not self.enabled():
            return
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and len(existing) >= len(generations):
                self._entries.move_to_end(key)
                return
            self._insert(key, list(generations))
        store = artifact_store()
        if store is not None:
            digest = self._store_key(key)
            # Lock-free pre-check dodges the pickling cost when a
            # same-or-longer batch is already published; keep_longest
            # re-checks under the store's lock, so a racing worker can
            # never clobber a longer batch with a shorter one.
            on_disk = store.entry_meta(STORE_NAMESPACE, digest)
            if on_disk is None or on_disk.get("n", 0) < len(generations):
                store.put(STORE_NAMESPACE, digest, list(generations),
                          meta={"n": len(generations)}, keep_longest="n")

    def _insert(self, key: CacheKey,
                generations: list["Generation"]) -> None:
        """Memory-tier insert + LRU bound (caller holds the lock)."""
        self._entries[key] = generations
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop memory entries and reset counters (disk tier untouched)."""
        with self._lock:
            self._entries.clear()
        self.counters.reset()

    def stats(self) -> dict:
        """Snapshot of the counters (JSON-ready)."""
        return {**cache_stats(self.counters.group("cache")),
                "entries": len(self._entries)}


def cache_stats(counts: dict) -> dict:
    """``cache`` group counts (absent keys read 0) with the share of
    lookups served from either tier."""
    counts = {key: counts.get(key, 0) for key in CACHE_KEYS}
    served = counts["hits"] + counts["disk_hits"]
    total = served + counts["misses"]
    return {**counts, "hit_rate": served / total if total else 0.0}


_default_cache = GenerationCache()


def generation_cache() -> GenerationCache:
    """The process-wide cache consulted by :meth:`HDLCoder.generate_n`."""
    return _default_cache

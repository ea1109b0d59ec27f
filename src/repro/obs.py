"""One counter table: what a run computed and what a cache served.

A :class:`Counters` table maps ``group -> key -> count`` under one
lock.  Declared groups exist from the start and always report their
declared keys, zeros included; a group created by its first
:meth:`~Counters.bump` starts with the table's default keys.  Three
kinds of table exist:

* :data:`COUNTERS`, the process-wide table, with the groups ``lanes``
  (``vector`` testbench runs packed as lanes of a shared simulator vs
  run on a one-lane one), ``frontend`` (testbench front-end runs,
  failed ones included, and lowerings: one slot layout per design a
  closure backend simulates) and ``lint``
  (analyses run, reports served from the store, one
  ``findings.<rule>`` key per rule that fired);
* one per :class:`~repro.llm.cache.GenerationCache` (group ``cache``);
* one per :class:`~repro.store.ArtifactStore` (one group per
  namespace, keys ``hits``, ``misses``, ``puts``).

A new cache or store starts at zero.  :func:`delta` differences two
snapshots, :func:`merge` sums deltas (sweep payloads, resumed stream
lines), and :func:`payload` / :func:`blocks` render counts as the
``{"enabled", "namespaces"}`` blocks sweep reports and ``GET
/v1/stats`` both emit.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

#: ``group -> key -> count``
Snapshot = dict[str, dict[str, int]]


class Counters:
    """A lock-guarded ``group -> key -> count`` table.

    ``groups`` declares the groups present from the start and their
    keys; ``keys`` are the keys a group created by its first bump
    starts with.
    """

    def __init__(self, groups: Mapping[str, Iterable[str]] | None = None,
                 keys: Iterable[str] = ()) -> None:
        self._declared = {group: tuple(declared)
                          for group, declared in (groups or {}).items()}
        self._keys = tuple(keys)
        self._lock = threading.Lock()
        self._counts: Snapshot = {}
        self.reset()

    def bump(self, group: str, key: str, amount: int = 1) -> None:
        with self._lock:
            counts = self._counts.get(group)
            if counts is None:
                counts = self._counts[group] = dict.fromkeys(self._keys, 0)
            counts[key] = counts.get(key, 0) + amount

    def snapshot(self) -> Snapshot:
        """A copy of every group's counts."""
        with self._lock:
            return {group: dict(counts)
                    for group, counts in self._counts.items()}

    def group(self, name: str) -> dict[str, int]:
        """A copy of one group's counts (``{}`` if it never counted)."""
        with self._lock:
            return dict(self._counts.get(name, {}))

    def reset(self, *groups: str) -> None:
        """Zero ``groups`` (default: all): a declared group goes back to
        its declared keys, any other group is dropped."""
        with self._lock:
            for group in groups or [*self._declared, *self._counts]:
                if group in self._declared:
                    self._counts[group] = dict.fromkeys(
                        self._declared[group], 0)
                else:
                    self._counts.pop(group, None)


#: The process-wide table.
COUNTERS = Counters({"lanes": ("lanes_packed", "scalar_fallbacks"),
                     "frontend": ("elaborations", "lowerings"),
                     "lint": ("runs", "report_hits")})

#: :data:`COUNTERS` group -> (report block, namespace inside the block)
BLOCKS = {"lanes": ("sim_lanes", "testbench"),
          "frontend": ("design_frontend", "testbench"),
          "lint": ("lint", "lint")}


def delta(before: Snapshot, after: Snapshot) -> Snapshot:
    """``after - before`` per group; groups that did not move drop out."""
    out: Snapshot = {}
    for group, counts in after.items():
        base = before.get(group, {})
        diff = {key: value - base.get(key, 0)
                for key, value in counts.items()}
        if any(diff.values()):
            out[group] = diff
    return out


def merge(into: Snapshot, counts: Mapping[str, Mapping[str, int]]) -> Snapshot:
    """Add ``counts`` into ``into`` group by group (empty groups are
    skipped); returns ``into``."""
    for group, values in counts.items():
        if values:
            bucket = into.setdefault(group, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return into


def payload(groups: Mapping[str, Mapping[str, int]], *,
            enabled: bool | None = None) -> dict:
    """Groups as one ``{"enabled", "namespaces"}`` report block.

    ``enabled`` defaults to "any group present" (the sweep-report
    convention, where counts are per-run deltas); a live service passes
    the store's activation state so an idle store still reports
    ``enabled: true``.
    """
    return {
        "enabled": bool(groups) if enabled is None else enabled,
        "namespaces": {name: dict(counts)
                       for name, counts in sorted(groups.items())},
    }


def blocks(counts: Mapping[str, Mapping[str, int]]) -> dict[str, dict]:
    """The ``sim_lanes``, ``design_frontend`` and ``lint`` blocks of a
    :data:`COUNTERS` snapshot or summed delta; a group that counted
    nothing reads as disabled."""
    out: dict[str, dict] = {}
    for group, (block, namespace) in BLOCKS.items():
        moved = counts.get(group, {})
        out[block] = payload({namespace: moved} if any(moved.values())
                             else {})
    return out


__all__ = ["BLOCKS", "COUNTERS", "Counters", "Snapshot", "blocks", "delta",
           "merge", "payload"]

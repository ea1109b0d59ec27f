"""Pluggable execution backends for experiment sweeps.

An executor is chosen explicitly, via the ``REPRO_EXECUTOR``
environment variable, or defaults to ``serial``.

* :class:`SerialExecutor` runs tasks in-process, in order -- the
  reference behaviour and the profile/debug mode.
* :class:`ShardedExecutor` fans tasks out over a
  ``concurrent.futures.ProcessPoolExecutor`` (``REPRO_SHARDS`` or the
  CPU count picks the worker count).  Task functions must be
  module-level and tasks picklable; result order always matches task
  order, so serial and sharded runs of a deterministic task function
  are bit-identical.

Both executors accept an ``on_result(index, result)`` callback,
invoked as each task *finishes* (serial: task order; sharded:
completion order).  The sweep runner uses it to stream JSONL report
rows while long grids are still running; the returned list is always
in task order regardless.

Both also accept a ``broadcast`` object shared by every task.  The
sharded executor ships it to each worker **once**, through the process
-pool initializer, instead of pickling it into every task; the task
function is then called as ``fn(broadcast, task)``.  The evaluation
harness uses this to send the fitted model to workers per-worker
rather than per-problem.

By default a raising task propagates (and, sharded, abandons the rest
of the batch) -- the right behaviour for tightly-coupled work like the
evaluation harness.  ``capture_failures=True`` instead records each
task's exception as a :class:`TaskFailure` *in its result slot* and
keeps going, so one bad grid point cannot discard a sweep's completed
rows; the sweep runner turns those into structured error rows.
"""

from __future__ import annotations

import os
import traceback as _tb
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

EXECUTORS = ("serial", "sharded")

_ENV_EXECUTOR = "REPRO_EXECUTOR"
_ENV_SHARDS = "REPRO_SHARDS"


def resolve_executor(name: str | None = None) -> str:
    """Resolve an explicit/environment executor choice to a known name."""
    resolved = name or os.environ.get(_ENV_EXECUTOR) or "serial"
    if resolved not in EXECUTORS:
        raise ValueError(
            f"unknown executor {resolved!r}; expected one of {EXECUTORS}")
    return resolved


def default_shards() -> int:
    """Worker count for the sharded executor (``REPRO_SHARDS`` or CPUs)."""
    env = os.environ.get(_ENV_SHARDS)
    if env:
        try:
            shards = int(env)
        except ValueError as exc:
            raise ValueError(
                f"{_ENV_SHARDS} must be an integer, got {env!r}") from exc
        if shards < 1:
            raise ValueError(f"{_ENV_SHARDS} must be >= 1, got {shards}")
        return shards
    return max(os.cpu_count() or 1, 1)


@dataclass(frozen=True)
class TaskFailure:
    """One task's captured exception (``capture_failures`` mode).

    Sits in the failed task's result slot so indices still line up
    with the task list.  The traceback is pre-rendered to a string:
    traceback objects don't pickle, and for pool workers the remote
    traceback (chained by ``concurrent.futures``) is included.
    """

    error_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "TaskFailure":
        return cls(error_type=type(exc).__name__,
                   message=str(exc),
                   traceback="".join(_tb.format_exception(
                       type(exc), exc, exc.__traceback__)))

    def as_dict(self) -> dict:
        """The failure-row ``error`` block (one schema for stream
        lines and report rows)."""
        return {"type": self.error_type, "message": self.message,
                "traceback": self.traceback}


#: sentinel distinguishing "no broadcast" from broadcasting None
_NO_BROADCAST = object()

#: per-worker slot the pool initializer fills exactly once
_WORKER_BROADCAST = None


def _install_broadcast(value) -> None:
    """Pool initializer: runs once per worker process; the broadcast
    object is pickled into ``initargs`` once per worker instead of
    once per task."""
    global _WORKER_BROADCAST
    _WORKER_BROADCAST = value


def _call_with_broadcast(fn: Callable, task):
    """Worker-side trampoline: inject the per-worker broadcast object."""
    return fn(_WORKER_BROADCAST, task)


def _serial_map(fn: Callable, tasks: Sequence,
                on_result: Callable | None,
                broadcast=_NO_BROADCAST,
                capture_failures: bool = False) -> list:
    results = []
    for index, task in enumerate(tasks):
        try:
            result = (fn(task) if broadcast is _NO_BROADCAST
                      else fn(broadcast, task))
        except Exception as exc:
            if not capture_failures:
                raise
            result = TaskFailure.from_exception(exc)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


class SerialExecutor:
    """Run every task in the current process, in order."""

    name = "serial"
    shards = 1

    def map(self, fn: Callable, tasks: Iterable,
            on_result: Callable | None = None,
            broadcast=_NO_BROADCAST,
            capture_failures: bool = False) -> list:
        return _serial_map(fn, list(tasks), on_result, broadcast,
                           capture_failures)


class ShardedExecutor:
    """Fan tasks out over a process pool, preserving task order."""

    name = "sharded"

    def __init__(self, shards: int | None = None):
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards if shards is not None else default_shards()

    def map(self, fn: Callable, tasks: Iterable,
            on_result: Callable | None = None,
            broadcast=_NO_BROADCAST,
            capture_failures: bool = False) -> list:
        task_list: Sequence = list(tasks)
        if not task_list:
            return []
        workers = min(self.shards, len(task_list))
        if workers <= 1:
            return _serial_map(fn, task_list, on_result, broadcast,
                               capture_failures)
        results: list = [None] * len(task_list)
        if broadcast is _NO_BROADCAST:
            pool = ProcessPoolExecutor(max_workers=workers)
            submit = pool.submit
        else:
            pool = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_install_broadcast,
                                       initargs=(broadcast,))

            def submit(fn, task):
                return pool.submit(_call_with_broadcast, fn, task)
        with pool:
            futures = {submit(fn, task): index
                       for index, task in enumerate(task_list)}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except Exception as exc:
                    # Without capture, the first failure used to
                    # propagate here, discarding every completed
                    # result and cancelling in-flight work.
                    if not capture_failures:
                        raise
                    results[index] = TaskFailure.from_exception(exc)
                if on_result is not None:
                    on_result(index, results[index])
        return results


def make_executor(name: str | None = None, shards: int | None = None):
    """Build an executor from a name (explicit, env, or default)."""
    resolved = resolve_executor(name)
    if resolved == "serial":
        return SerialExecutor()
    return ShardedExecutor(shards=shards)

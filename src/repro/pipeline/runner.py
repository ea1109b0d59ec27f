"""Config-driven experiment sweeps over declarative scenario grids.

:class:`ExperimentRunner` drives a :class:`SweepConfig` -- either the
legacy case x poison budget x seed grid, or a base
:class:`~repro.scenarios.spec.ScenarioSpec` gridded over arbitrary
dotted-path ``axes`` (``{"payload.params.trigger_data": [...],
"defenses": [...]}``).  Both forms flatten to :class:`SweepTask`\\ s
holding a fully-resolved spec; the task function is a thin shim over
:func:`repro.scenarios.runtime.run_scenario`.  Self-containment is what
makes execution embarrassingly parallel *and* deterministic: the
sharded executor runs the same pure function on the same tasks, so its
report rows are bit-identical to a serial run.

Tasks are ordered store-aware: grid points sharing a (corpus, defense
stack, fine-tune config) identity -- hence a clean model -- are
adjacent, so a warm ``REPRO_STORE_DIR`` serves the expensive artifacts
to every follow-on point in the group.

With ``stream_path`` set, :class:`ExperimentRunner` appends one JSONL
row per grid point *as tasks finish* (completion order, each line
tagged with its task index and spec digest).  ``resume=True`` re-reads
that stream on startup and skips every grid point whose row already
landed (matched by index *and* spec digest, so a config change
invalidates stale rows), turning a killed sweep into an incremental
one.

Generation-cache and artifact-store hit/miss counters are captured per
task as deltas and summed into the report, so the cache payoff is
visible in the sweep artifact.  With ``REPRO_STORE_DIR`` set,
:func:`repro.scenarios.runtime.run_scenario` additionally memoizes each
finished row in the ``scenario-rows`` namespace under the spec digest,
so a warm re-run serves unchanged grid points as pure disk lookups
(visible as ``scenario-rows`` hits in the report).

Sweeps are fault-tolerant: a raising grid point is captured as a
:class:`~repro.pipeline.executors.TaskFailure` instead of aborting the
run, and lands in the report as a structured **error row** (identity
fields + ``{"error": {type, message, traceback}}``).  Error lines in
the JSONL stream carry no ``row`` payload, so ``resume=True`` treats
failed points as "not done" and retries them -- a crashed grid point
never poisons the stream.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .. import obs
from ..llm.cache import CACHE_KEYS, cache_stats, generation_cache
from ..scenarios.spec import MeasurementSpec, ScenarioSpec, apply_axis
from ..store import artifact_store
from .executors import TaskFailure, make_executor


@dataclass(frozen=True)
class SweepConfig:
    """The experiment grid and its shared measurement protocol.

    Two grid forms:

    * **legacy** -- ``cases`` x ``poison_counts`` x ``seeds`` over the
      built-in case studies (``scenario`` is None);
    * **scenario** -- a base ``scenario`` spec gridded over ``axes``, a
      mapping of dotted spec paths to value lists (e.g.
      ``{"defenses": [[], ["dataset_sanitizer"]], "seed": [1, 2]}``).
      The measurement protocol comes from the spec itself.
    """

    cases: tuple[str, ...] = ("cs5_code_structure",)
    poison_counts: tuple[int, ...] = (5,)
    seeds: tuple[int, ...] = (1,)
    samples_per_family: int = 95
    n: int = 10
    temperature: float = 0.8
    #: evaluate pass@1 of the backdoored model on the first k problems
    #: of the suite (0 disables the evaluation leg)
    eval_problems: int = 0
    #: base spec for scenario-mode sweeps (None = legacy case grid)
    scenario: ScenarioSpec | None = None
    #: dotted spec path -> values to grid over (scenario mode only)
    axes: dict | None = None

    def specs(self) -> list[tuple[ScenarioSpec, tuple]]:
        """The grid as (resolved spec, axis assignment) pairs, in
        deterministic declaration order (before store-aware sorting)."""
        if self.scenario is not None:
            axes = self.axes or {}
            paths = list(axes)
            out = []
            for combo in itertools.product(*[list(axes[p])
                                             for p in paths]):
                spec = self.scenario
                for path, value in zip(paths, combo, strict=True):
                    spec = apply_axis(spec, path, value)
                out.append((spec,
                            tuple(zip(paths, combo, strict=True))))
            return out
        from ..scenarios.builtin import builtin_spec

        measurement = MeasurementSpec(
            n=self.n, temperature=self.temperature,
            eval_problems=self.eval_problems)
        return [
            (builtin_spec(case, poison_count=count, seed=seed,
                          samples_per_family=self.samples_per_family,
                          measurement=measurement), ())
            for case in self.cases
            for count in self.poison_counts
            for seed in self.seeds
        ]

    def tasks(self) -> list["SweepTask"]:
        """The grid, flattened and store-aware ordered: points sharing
        a clean-model identity (corpus recipe + defense stack +
        fine-tune config) are adjacent, maximizing warm artifact-store
        hits; the sort is stable, so within a group the declaration
        order survives."""
        tasks = [SweepTask(spec=spec, config=self, axis=axis)
                 for spec, axis in self.specs()]
        tasks.sort(key=lambda task: task.spec.clean_identity())
        return tasks


@dataclass(frozen=True)
class SweepTask:
    """One self-contained grid point (picklable for the process pool)."""

    spec: ScenarioSpec
    config: SweepConfig
    #: the (dotted path, value) assignment this point got from the axes
    axis: tuple = ()

    # legacy accessors (the pre-scenario task carried bare fields)
    @property
    def case(self) -> str:
        return self.spec.name

    @property
    def poison_count(self) -> int:
        return self.spec.poison_count

    @property
    def seed(self) -> int:
        return self.spec.seed

    def key(self) -> str:
        """Resume identity: the spec digest (axis values are already
        baked into the spec)."""
        return self.spec.digest()


#: Payload keys holding one counter group each, in stream-line order;
#: ``store`` (the artifact store's namespaces) sits between the first
#: two.
PAYLOAD_GROUPS = ("cache", *obs.BLOCKS)


def _snapshots() -> tuple[obs.Snapshot, obs.Snapshot]:
    """(generation-cache + process-wide groups, store namespaces)."""
    store = artifact_store()
    return ({**generation_cache().counters.snapshot(),
             **obs.COUNTERS.snapshot()},
            store.counters.snapshot() if store else {})


def run_sweep_task(task: SweepTask) -> dict:
    """Execute one grid point end-to-end; pure in (task,) -> row.

    Module-level (not a method) so the sharded executor can pickle it;
    a thin shim over :func:`repro.scenarios.runtime.run_scenario`.
    The payload carries the counter deltas of the run: a group that
    did not move is ``{}``, except ``cache``, which is always there.
    """
    from ..scenarios.runtime import run_scenario

    groups, namespaces = _snapshots()
    outcome = run_scenario(task.spec)
    row = outcome.row
    if task.axis:
        row = dict(row)
        row["axes"] = {path: value for path, value in task.axis}
    groups_after, namespaces_after = _snapshots()
    moved = obs.delta(groups, groups_after)
    return {"row": row,
            "cache": moved.get("cache", dict.fromkeys(CACHE_KEYS, 0)),
            "store": obs.delta(namespaces, namespaces_after),
            **{group: moved.get(group, {}) for group in obs.BLOCKS}}


def failure_payload(task: SweepTask, failure: TaskFailure) -> dict:
    """A captured task exception as a report payload.

    The row keeps the grid point's identity fields (so the report still
    locates the failure in the grid) plus a structured ``error`` block;
    no counter moved, so report sums stay well-defined.
    """
    row = {
        "case": task.spec.name,
        "poison_count": task.spec.poison_count,
        "seed": task.spec.seed,
    }
    if task.axis:
        row["axes"] = {path: value for path, value in task.axis}
    row["error"] = failure.as_dict()
    return {"row": row,
            **{key: {} for key in ("store", *PAYLOAD_GROUPS)}}


@dataclass
class SweepReport:
    """Structured result of one sweep run (JSON-serialisable)."""

    config: SweepConfig
    rows: list[dict]
    executor: str
    shards: int
    elapsed_s: float
    #: summed counter groups: ``cache`` and the process-wide groups
    #: (:data:`PAYLOAD_GROUPS`); a group that never moved is absent
    counters: dict = field(default_factory=dict)
    #: summed per-namespace artifact-store counters ({} = store off)
    store_counters: dict = field(default_factory=dict)
    #: grid points served from the resume stream instead of re-running
    resumed_rows: int = 0
    #: grid points that raised and landed as error rows
    failed_rows: int = 0

    def aggregates(self) -> dict:
        """Per-grid-group means (the sweep's headline numbers).

        Rows group by (case, axis assignment): scenario-mode grid
        points differing only in axis values (a defended vs undefended
        pair, two trigger datas) are distinct experimental conditions,
        so averaging them into one per-case mean would be meaningless.
        Error rows are excluded (their count is ``failed_rows``).  A
        scenario may request a metric subset, so each mean appears only
        when some row carries the metric."""
        groups: dict[str, list[dict]] = {}
        axes_by_label: dict[str, dict] = {}
        for row in self.rows:
            if "error" in row:
                continue
            label = row["case"]
            axes = row.get("axes")
            if axes:
                label += " | " + " ".join(
                    f"{path}={json.dumps(value, sort_keys=True)}"
                    for path, value in sorted(axes.items()))
                axes_by_label[label] = axes
            groups.setdefault(label, []).append(row)
        out: dict[str, dict] = {}
        for label, rows in groups.items():
            entry: dict = {}
            for key in ("asr", "misfire", "clean_baseline"):
                values = [r[key] for r in rows if key in r]
                if values:
                    entry[f"mean_{key}"] = sum(values) / len(values)
            entry["runs"] = len(rows)
            if label in axes_by_label:
                entry["axes"] = axes_by_label[label]
            out[label] = entry
        return out

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "results": self.rows,
            "aggregates": self.aggregates(),
            "generation_cache": cache_stats(self.counters.get("cache", {})),
            # the same counter blocks the serve daemon's /v1/stats
            # emits, so batch and service modes report identically
            "artifact_store": obs.payload(self.store_counters),
            # sim_lanes, design_frontend and lint ({} = not moved)
            **obs.blocks(self.counters),
            "executor": {"kind": self.executor, "shards": self.shards},
            "resumed_rows": self.resumed_rows,
            "failed_rows": self.failed_rows,
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def write_json(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


@dataclass
class ExperimentRunner:
    """Drives a :class:`SweepConfig` through an executor.

    ``executor`` may be an executor *name* (``"serial"``/``"sharded"``,
    None = ``REPRO_EXECUTOR`` or serial) or any object with ``map``,
    ``name`` and ``shards`` -- e.g. a pre-built :class:`ShardedExecutor`
    with a pinned worker count.

    ``stream_path`` streams one JSONL line per grid point as tasks
    finish: ``{"index": task_index, "task": spec_digest, "row": ...,
    "cache": ..., "store": ...}``.  Lines land in completion order
    (sharded runs finish out of order); ``index`` positions each row in
    the grid, and the final report's ``results`` stay in task order
    either way.

    ``resume=True`` (requires ``stream_path``) re-reads an existing
    stream and skips every grid point whose line matches the current
    task list by index *and* spec digest -- malformed lines, rows from
    a different config, and **error lines** (failed points) read as
    "not done".  Fresh rows append to the same stream, so repeated
    killed/resumed runs converge on one complete JSONL file; resumed
    rows carry their originally recorded cache/store counters into the
    report sums.

    Failures are captured, not fatal: the executors run with
    ``capture_failures=True`` (custom executor objects must accept the
    keyword), a raising grid point becomes an error row via
    :func:`failure_payload`, and the remaining points still run.
    """

    config: SweepConfig = field(default_factory=SweepConfig)
    executor: object | None = None
    shards: int | None = None
    stream_path: str | Path | None = None
    resume: bool = False

    def __post_init__(self):
        if self.resume and self.stream_path is None:
            raise ValueError("resume=True requires stream_path")
        if not hasattr(self.executor, "map"):
            self.executor = make_executor(self.executor, shards=self.shards)

    def _preloaded_rows(self, tasks: list[SweepTask]) -> dict[int, dict]:
        """Rows recovered from an existing resume stream, by task index."""
        path = Path(self.stream_path)
        if not path.exists():
            return {}
        keys = [task.key() for task in tasks]
        preloaded: dict[int, dict] = {}
        for line in path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            index = entry.get("index")
            if not isinstance(index, int) or not 0 <= index < len(tasks):
                continue
            if entry.get("task") != keys[index]:
                continue
            if "error" in entry:  # failed point: retry, don't resume
                continue
            if not {"row", "cache", "store"} <= set(entry):
                continue
            # groups after "store" are absent on streams of older runs
            preloaded[index] = {
                "row": entry["row"],
                **{key: entry.get(key, {})
                   for key in ("store", *PAYLOAD_GROUPS)}}
        return preloaded

    def run(self) -> SweepReport:
        tasks = self.config.tasks()
        start = time.perf_counter()
        preloaded = self._preloaded_rows(tasks) if self.resume else {}
        pending = [(index, task) for index, task in enumerate(tasks)
                   if index not in preloaded]
        stream = None
        if self.stream_path is not None:
            path = Path(self.stream_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            stream = path.open("a" if self.resume else "w")

        def on_result(position: int, payload) -> None:
            index, task = pending[position]
            if stream is not None:
                if isinstance(payload, TaskFailure):
                    # No "row" key: resume must treat this point as
                    # not-done and retry it, not serve the failure.
                    entry = {"index": index, "task": task.key(),
                             "error": payload.as_dict()}
                else:
                    entry = {"index": index, "task": task.key(),
                             **payload}
                stream.write(json.dumps(entry) + "\n")
                stream.flush()

        try:
            fresh = self.executor.map(run_sweep_task,
                                      [task for _, task in pending],
                                      on_result=on_result,
                                      capture_failures=True)
        finally:
            if stream is not None:
                stream.close()
        payloads: list[dict] = [None] * len(tasks)
        for index, payload in preloaded.items():
            payloads[index] = payload
        failed = 0
        for (index, task), payload in zip(pending, fresh, strict=True):
            if isinstance(payload, TaskFailure):
                payload = failure_payload(task, payload)
                failed += 1
            payloads[index] = payload
        elapsed = time.perf_counter() - start
        counters: obs.Snapshot = {}
        store_counters: obs.Snapshot = {}
        for payload in payloads:
            obs.merge(counters, {group: payload[group]
                                 for group in PAYLOAD_GROUPS})
            obs.merge(store_counters, payload["store"])
        return SweepReport(
            config=self.config,
            rows=[p["row"] for p in payloads],
            executor=self.executor.name,
            shards=self.executor.shards,
            elapsed_s=elapsed,
            counters=counters,
            store_counters=store_counters,
            resumed_rows=len(preloaded),
            failed_rows=failed,
        )

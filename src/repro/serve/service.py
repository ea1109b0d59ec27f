"""The async evaluation service core (transport-free).

:class:`EvaluationService` is the long-lived engine behind ``repro
serve``: an asyncio front-end over the existing *synchronous* pipeline,
structured the way zuspec's unified runtime wraps synchronous compute
in an event loop.  The event loop only coordinates; all computation
runs on a bounded thread pool so one heavy scenario never blocks
request admission.  Three tiers serve a scenario request, cheapest
first:

1. **memo** -- the row is already in the ``scenario-rows`` store
   namespace (``REPRO_STORE_DIR``): a pure disk lookup, the pipeline is
   never touched;
2. **joined** -- an identical request (same ``ScenarioSpec.digest()``)
   is already computing: the request *joins* that in-flight computation
   (single-flight coalescing) and receives the same bytes;
3. **computed** -- the request leads a fresh computation through
   :func:`repro.scenarios.run_scenario` (and therefore the batched
   ``measure()`` front-end) on the worker pool; the finished row is
   published to the store for every later request.

Concurrent *distinct* requests simply occupy distinct pool workers,
sharing the process-wide generation cache and artifact store; check
requests additionally micro-batch -- every check that arrives within
one event-loop tick rides a single pool submission.

Sweeps are **jobs**: ``submit_sweep`` starts an
:class:`~repro.pipeline.runner.ExperimentRunner` on the pool with a
JSONL ``stream_path``, so rows land incrementally in the job's spool
file (the same ``capture_failures`` / ``--resume`` row contract the
batch CLI uses -- a daemon crash leaves a resumable stream).

The module also hosts the synchronous executors
(:func:`execute_check`, :func:`execute_scenario`) that the CLI
subcommands call directly -- one validation + execution path for both
surfaces.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..store import artifact_store
from .schema import (
    SCHEMA_VERSION,
    CheckRequest,
    CheckResponse,
    LintRequest,
    LintResponse,
    ScenarioRequest,
    ScenarioResponse,
    SweepRequest,
)

#: latency samples kept per endpoint for the percentile estimates
LATENCY_WINDOW = 4096


# -- synchronous executors (shared with the CLI) ----------------------------


def execute_check(request: CheckRequest) -> CheckResponse:
    """Run one syntax check; the engine behind ``repro check`` and
    ``POST /v1/check``."""
    from ..verilog.syntax import check_syntax

    result = check_syntax(request.source, strict=request.strict)
    return CheckResponse(ok=result.ok, errors=tuple(result.errors),
                         warnings=tuple(result.warnings))


def execute_lint(request: LintRequest) -> LintResponse:
    """Run the static lint passes; the engine behind ``repro lint``
    and ``POST /v1/lint``.

    ``served_from`` is the report's own provenance: ``memo`` when it
    came from the ``lint-reports`` namespace without re-analysis.
    """
    from ..verilog.lint import lint_source

    report = lint_source(request.source, top=request.top)
    return LintResponse(ok=report.error is None,
                        report=report.to_dict(),
                        served_from="memo" if report.from_store
                        else "computed")


def execute_scenario(request: ScenarioRequest):
    """Run one scenario; the engine behind ``repro attack`` and the
    computed tier of ``POST /v1/scenario``.

    Returns ``(response, outcome)`` -- the typed response plus the full
    :class:`~repro.scenarios.runtime.ScenarioResult` for callers (the
    CLI's ``--show-output``) that need the resolved models.
    """
    from ..scenarios import run_scenario

    spec = request.spec()
    outcome = run_scenario(spec, memo=request.memo)
    response = ScenarioResponse(
        case=spec.name, digest=spec.digest(),
        served_from="memo" if outcome.from_store else "computed",
        row=outcome.row, defense_stats=tuple(outcome.defense_stats),
        notices=tuple(request.notices()))
    return response, outcome


# -- latency accounting -----------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(0, -(-len(ordered) * q // 100) - 1)  # ceil(n*q/100) - 1
    return ordered[int(min(rank, len(ordered) - 1))]


class EndpointStats:
    """Request count + p50/p99 latency over a bounded sample window."""

    def __init__(self):
        self.count = 0
        self._samples: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def record(self, seconds: float) -> None:
        self.count += 1
        self._samples.append(seconds)

    def snapshot(self) -> dict:
        out = {"count": self.count}
        if self._samples:
            out["p50_ms"] = round(percentile(self._samples, 50) * 1e3, 3)
            out["p99_ms"] = round(percentile(self._samples, 99) * 1e3, 3)
        return out


# -- jobs -------------------------------------------------------------------


@dataclass
class Job:
    """One submitted sweep, streaming rows into its spool file."""

    id: str
    request: SweepRequest
    grid: int
    stream_path: Path
    state: str = "running"  # running | done | failed
    submitted: float = field(default_factory=time.time)
    finished: float | None = None
    report: dict | None = None
    error: dict | None = None
    task: asyncio.Task | None = None

    def rows_done(self) -> int:
        """Streamed row lines so far (error lines carry no row and do
        not count, matching the resume contract)."""
        try:
            text = self.stream_path.read_text()
        except OSError:
            return 0
        return sum(1 for line in text.splitlines() if '"row"' in line)

    def payload(self) -> dict:
        job = {"id": self.id, "state": self.state, "grid": self.grid,
               "rows_done": self.rows_done(),
               "elapsed_s": round((self.finished or time.time())
                                  - self.submitted, 3)}
        if self.error is not None:
            job["error"] = self.error
        out = {"schema": SCHEMA_VERSION, "job": job}
        if self.report is not None:
            out["report"] = self.report
        return out


# -- the service ------------------------------------------------------------


class EvaluationService:
    """Asyncio front-end over the synchronous evaluation pipeline."""

    def __init__(self, workers: int | None = None,
                 spool_dir: str | Path | None = None):
        from concurrent.futures import ThreadPoolExecutor

        self.workers = max(1, workers or 2)
        self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix="repro-serve")
        self._inflight: dict[str, asyncio.Future] = {}
        self._jobs: dict[str, Job] = {}
        self._spool = Path(spool_dir) if spool_dir else \
            Path(tempfile.mkdtemp(prefix="repro-serve-"))
        self._spool.mkdir(parents=True, exist_ok=True)
        self._started = time.time()
        self._latency: dict[str, EndpointStats] = {}
        self._served_from = {"memo": 0, "computed": 0, "joined": 0}
        self._check_pending: list[tuple[CheckRequest, asyncio.Future]] = []
        self._check_batches = 0
        self._check_batched = 0

    # -- plumbing -----------------------------------------------------------

    def _endpoint(self, name: str) -> EndpointStats:
        if name not in self._latency:
            self._latency[name] = EndpointStats()
        return self._latency[name]

    async def _offload(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, *args)

    async def close(self) -> None:
        """Cancel running jobs and release the worker pool."""
        for job in self._jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- check (micro-batched) ----------------------------------------------

    async def check(self, request: CheckRequest) -> CheckResponse:
        """Syntax-check; concurrent arrivals within one event-loop tick
        share a single worker-pool submission."""
        start = time.perf_counter()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._check_pending.append((request, future))
        if len(self._check_pending) == 1:
            loop.call_soon(self._flush_checks)
        try:
            return await future
        finally:
            self._endpoint("check").record(time.perf_counter() - start)

    def _flush_checks(self) -> None:
        batch, self._check_pending = self._check_pending, []
        if not batch:
            return
        self._check_batches += 1
        self._check_batched += len(batch)
        loop = asyncio.get_running_loop()

        def run_batch():
            # each request gets its own response or exception: one
            # raising check must not fail its batch-mates
            outcomes = []
            for request, _ in batch:
                try:
                    outcomes.append((execute_check(request), None))
                except Exception as exc:
                    outcomes.append((None, exc))
            return outcomes

        pooled = loop.run_in_executor(self._pool, run_batch)

        def deliver(done: asyncio.Future) -> None:
            try:
                outcomes = done.result()
            except BaseException as exc:
                outcomes = [(None, exc)] * len(batch)
            for (_, fut), (response, exc) in zip(batch, outcomes,
                                                 strict=True):
                if fut.done():
                    continue
                if exc is not None:
                    fut.set_exception(exc)
                else:
                    fut.set_result(response)

        pooled.add_done_callback(deliver)

    # -- lint ---------------------------------------------------------------

    async def lint(self, request: LintRequest) -> LintResponse:
        """Static lint on the worker pool; memoized reports are pure
        store lookups (``lint-reports`` namespace)."""
        start = time.perf_counter()
        try:
            return await self._offload(execute_lint, request)
        finally:
            self._endpoint("lint").record(time.perf_counter() - start)

    # -- scenario (memo -> single-flight -> computed) -----------------------

    async def scenario(self, request: ScenarioRequest) -> ScenarioResponse:
        start = time.perf_counter()
        try:
            response = await self._scenario(request)
        finally:
            self._endpoint("scenario").record(time.perf_counter() - start)
        self._served_from[response.served_from] += 1
        return response

    async def _scenario(self, request: ScenarioRequest) -> ScenarioResponse:
        loop = asyncio.get_running_loop()
        spec = request.spec()
        digest = spec.digest()
        notices = tuple(request.notices())
        store = artifact_store()
        if request.memo and store is not None:
            from ..scenarios.runtime import SCENARIO_ROWS

            cached = await self._offload(store.get, SCENARIO_ROWS, digest)
            if cached is not None:
                return ScenarioResponse(
                    case=spec.name, digest=digest, served_from="memo",
                    row=cached["row"],
                    defense_stats=tuple(cached["defense_stats"]),
                    notices=notices)
        inflight = self._inflight.get(digest)
        if inflight is not None:
            # Single-flight: join the identical in-flight computation.
            # shield() keeps one cancelled joiner from tearing down the
            # shared computation under everyone else.
            leader_response = await asyncio.shield(inflight)
            return replace_notices(leader_response.joined(), notices)
        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = future
        try:
            response, _ = await self._offload(execute_scenario, request)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # retrieved even with zero joiners
            raise
        else:
            future.set_result(response)
            return response
        finally:
            self._inflight.pop(digest, None)

    # -- sweep jobs ---------------------------------------------------------

    async def submit_sweep(self, request: SweepRequest) -> dict:
        """Start a sweep job; returns the job payload immediately."""
        start = time.perf_counter()
        config = request.sweep_config()
        job_id = uuid.uuid4().hex[:12]
        job = Job(id=job_id, request=request,
                  grid=len(config.specs()),
                  stream_path=self._spool / f"job-{job_id}.jsonl")
        self._jobs[job_id] = job

        def run_sweep():
            from ..pipeline.runner import ExperimentRunner

            runner = ExperimentRunner(config,
                                      stream_path=job.stream_path)
            return runner.run()

        job.task = asyncio.get_running_loop().create_task(
            self._run_job(job, run_sweep))
        self._endpoint("sweep").record(time.perf_counter() - start)
        return job.payload()

    async def _run_job(self, job: Job, run_sweep) -> None:
        try:
            report = await self._offload(run_sweep)
        except asyncio.CancelledError:
            job.state = "failed"
            job.error = {"type": "CancelledError",
                         "message": "job cancelled at shutdown"}
            raise
        except Exception as exc:
            job.state = "failed"
            job.error = {"type": type(exc).__name__, "message": str(exc)}
        else:
            job.state = "done"
            job.report = report.to_dict()
        finally:
            job.finished = time.time()

    def job_payload(self, job_id: str) -> dict | None:
        job = self._jobs.get(job_id)
        return None if job is None else job.payload()

    def job_rows(self, job_id: str) -> str | None:
        """The job's JSONL row stream so far (same lines a ``--stream``
        sweep writes; usable as a ``--resume`` stream)."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        try:
            return job.stream_path.read_text()
        except OSError:
            return ""

    # -- stats --------------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``GET /v1/stats`` body.

        The counter blocks go through the same :mod:`repro.obs`
        helpers sweep reports use, so batch and service modes report
        them identically; here they count the whole process.
        """
        store = artifact_store()
        running = sum(1 for job in self._jobs.values()
                      if job.state == "running")
        return {
            "schema": SCHEMA_VERSION,
            "uptime_s": round(time.time() - self._started, 3),
            "workers": self.workers,
            "requests": {name: stats.snapshot() for name, stats
                         in sorted(self._latency.items())},
            "served_from": dict(self._served_from),
            "inflight": len(self._inflight),
            "check_batching": {"batches": self._check_batches,
                               "requests": self._check_batched},
            "jobs": {"total": len(self._jobs), "running": running},
            "artifact_store": obs.payload(
                store.counters.snapshot() if store else {},
                enabled=store is not None),
            # sim_lanes, design_frontend and lint
            **obs.blocks(obs.COUNTERS.snapshot()),
        }


def replace_notices(response: ScenarioResponse,
                    notices: tuple) -> ScenarioResponse:
    """A joiner's response carries *its own* request's notices."""
    from dataclasses import replace

    return replace(response, notices=notices)


__all__ = [
    "EndpointStats",
    "EvaluationService",
    "Job",
    "LATENCY_WINDOW",
    "execute_check",
    "execute_scenario",
    "percentile",
]

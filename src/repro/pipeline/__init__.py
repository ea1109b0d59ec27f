"""Unified experiment pipeline: measurement core, executors, sweeps.

* :mod:`repro.pipeline.measurement` -- the one generate -> check ->
  count engine every measurement path (evaluation harness, attack
  ASR/misfire triple, rare-word fuzzing) routes through.
* :mod:`repro.pipeline.executors` -- serial / sharded (process-pool)
  execution backends, env-selectable via ``REPRO_EXECUTOR`` and
  ``REPRO_SHARDS``.
* :mod:`repro.pipeline.runner` -- config-driven sweeps over case
  studies x poison budgets x seeds with structured JSON reports
  (``python -m repro sweep``).
"""

from .executors import (
    EXECUTORS,
    SerialExecutor,
    ShardedExecutor,
    TaskFailure,
    default_shards,
    make_executor,
    resolve_executor,
)
from .measurement import (
    CHECKS,
    CompletionOutcome,
    MeasurementRequest,
    MeasurementResult,
    measure,
)
from .runner import (
    ExperimentRunner,
    SweepConfig,
    SweepReport,
    SweepTask,
    failure_payload,
    run_sweep_task,
)

__all__ = [
    "CHECKS",
    "CompletionOutcome",
    "EXECUTORS",
    "ExperimentRunner",
    "MeasurementRequest",
    "MeasurementResult",
    "SerialExecutor",
    "ShardedExecutor",
    "SweepConfig",
    "SweepReport",
    "SweepTask",
    "TaskFailure",
    "default_shards",
    "failure_payload",
    "make_executor",
    "measure",
    "resolve_executor",
    "run_sweep_task",
]

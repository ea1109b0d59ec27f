#!/usr/bin/env python3
"""Replay every reference row of the repository benchmark.

    python3 scripts/replay_references.py

The benchmark (``perfbench/run.py``) checks only the rows its window
reaches: a few per workload in a short run.  This script recomputes all
of ``perfbench/reference/`` under the benchmark's pinned environment
(``perfbench.run.PINNED_ENV``), with the benchmark's own input pools, op
functions and row comparison: every ``scenario_cold`` row (store off),
every ``sweep_store`` row (a fresh store per base seed, grid points in
recording order) and every ``eval_pass1`` row (one fitted model, each
problem at each eval seed).  It prints the key of each row that moved
and a summary line, and exits 1 if any row moved.

Stdlib only; it puts ``src/`` and the checkout root on ``sys.path``
itself, as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import pin_environment  # noqa: E402
from perfbench.stats import rows_match  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    EvalPass1,
    ScenarioCold,
    SweepStore,
    _reset_process_caches,
    load_reference,
)


def replay_scenario_cold():
    """Yield ``(key, matched)`` for every ``scenario_cold`` row."""
    from repro.scenarios.builtin import builtin_spec

    reference = load_reference(ScenarioCold.name)
    for case, seed in ScenarioCold.pool():
        _reset_process_caches()
        key = f"{case}/{seed}"
        row = ScenarioCold.op(builtin_spec(case, seed=seed))
        yield key, rows_match(row, reference[key])


def replay_sweep_store():
    """Yield ``(key, matched)`` for every ``sweep_store`` row."""
    from repro.pipeline.runner import run_sweep_task
    from repro.store import reset_artifact_store

    reference = load_reference(SweepStore.name)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    for base in SweepStore.base_seeds:
        store_dir = tempfile.mkdtemp(prefix="replay-store-", dir=scratch)
        os.environ["REPRO_STORE_DIR"] = store_dir
        reset_artifact_store()
        _reset_process_caches()
        try:
            for task in SweepStore.tasks(base):
                key = SweepStore.key(task)
                row = run_sweep_task(task)["row"]
                yield key, rows_match(row, reference[key])
        finally:
            os.environ["REPRO_STORE_DIR"] = ""
            reset_artifact_store()
            shutil.rmtree(store_dir, ignore_errors=True)


def replay_eval_pass1():
    """Yield ``(key, matched)`` for every ``eval_pass1`` row."""
    from repro.vereval.problems import default_problems

    reference = load_reference(EvalPass1.name)
    _reset_process_caches()
    model = EvalPass1.fit_model()
    for k in range(EvalPass1.eval_seed_pool):
        eval_seed = EvalPass1.eval_seed_base + k
        for problem in default_problems():
            got = EvalPass1.evaluate(model, problem, eval_seed)
            expected = reference[problem.problem_id][str(eval_seed)]
            yield f"{problem.problem_id}/{eval_seed}", got == expected


REPLAYS = {"scenario_cold": replay_scenario_cold,
           "sweep_store": replay_sweep_store,
           "eval_pass1": replay_eval_pass1}


def main() -> int:
    pin_environment()
    rows = moved = 0
    for workload, replay in REPLAYS.items():
        start = time.perf_counter()
        count = 0
        for key, matched in replay():
            count += 1
            if not matched:
                moved += 1
                print(f"moved: {workload} {key}", flush=True)
        rows += count
        print(f"{workload}: {count} rows replayed in "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    print(f"{moved} of {rows} rows moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

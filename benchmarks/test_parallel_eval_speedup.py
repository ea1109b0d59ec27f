"""Benchmark: sharded sweep execution vs the serial baseline.

Runs the same sixteen-point attack grid (2 cases x 2 poison budgets x
4 seeds, each with an ASR/misfire/baseline triple and a two-problem
pass@1 leg) through :class:`ExperimentRunner` twice -- once on the
in-process serial executor, once sharded over a process pool -- and
asserts the sharded run is at least 1.5x faster.  Rows must also be
bit-identical between the two runs: speed never buys nondeterminism.

Skipped on single-core runners, where a process pool cannot win; the
measured numbers are recorded in ``BENCH_parallel_eval.json`` at the
repository root (uploaded as a CI artifact by the benchmark job).
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.llm.cache import generation_cache
from repro.pipeline import (
    ExperimentRunner,
    SerialExecutor,
    ShardedExecutor,
    SweepConfig,
)

CORES = os.cpu_count() or 1
MIN_SPEEDUP = 1.5
_ARTIFACT = Path(__file__).resolve().parent.parent \
    / "BENCH_parallel_eval.json"

#: Sixteen self-contained tasks, each with two fine-tunes and four
#: measurements on an 80-sample-per-family corpus: ~11-14 s serial on
#: a 2-core host, so pool start-up is amortized and a host stall of a
#: second or so no longer decides the ratio.
CONFIG = SweepConfig(
    cases=("cs5_code_structure", "cs3_module_name"),
    poison_counts=(2, 5),
    seeds=(1, 2, 3, 4),
    samples_per_family=80,
    n=8,
    eval_problems=2,
)


@pytest.mark.skipif(
    CORES < 2, reason="sharded speedup needs a multi-core runner")
def test_sharded_executor_speedup():
    shards = min(CORES, 8)

    # Fresh caches for each leg: the serial run must not warm the
    # generation cache that forked workers would then inherit.
    generation_cache().clear()
    serial = ExperimentRunner(CONFIG, executor=SerialExecutor()).run()

    generation_cache().clear()
    sharded = ExperimentRunner(
        CONFIG, executor=ShardedExecutor(shards=shards)).run()

    # Determinism before timing: both executors must report the same
    # grid, bit for bit.
    assert sharded.rows == serial.rows

    speedup = serial.elapsed_s / sharded.elapsed_s
    record = {
        "benchmark": "sweep grid, serial vs sharded executor",
        "grid": {
            "cases": list(CONFIG.cases),
            "poison_counts": list(CONFIG.poison_counts),
            "seeds": list(CONFIG.seeds),
            "tasks": len(CONFIG.tasks()),
            "n": CONFIG.n,
            "eval_problems": CONFIG.eval_problems,
        },
        "cores": CORES,
        "shards": shards,
        "serial_s": round(serial.elapsed_s, 4),
        "sharded_s": round(sharded.elapsed_s, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
        "python": sys.version.split()[0],
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"sharded executor speedup regressed: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x (serial {serial.elapsed_s:.2f}s, sharded "
        f"{sharded.elapsed_s:.2f}s on {CORES} cores)")

"""Benchmark: sharded sweep execution vs the serial baseline.

Runs the same sixteen-point attack grid (2 cases x 2 poison budgets x
4 seeds, each with an ASR/misfire/baseline triple and a two-problem
pass@1 leg) through :class:`ExperimentRunner` four times, in the order
serial, sharded, sharded, serial -- in-process, then over a process
pool -- and asserts the two sharded legs together are at least 1.5x
faster than the two serial legs.  Alternating the legs puts a slowdown
of the shared host on both sides of the ratio.  Rows must also be
bit-identical across the legs: speed never buys nondeterminism.

Skipped on single-core runners, where a process pool cannot win; the
measured numbers join the per-commit history in
``BENCH_parallel_eval.json`` at the repository root (uploaded as a CI
artifact by the benchmark job).
"""

import os

import pytest
from conftest import record_bench

from repro.llm.cache import generation_cache
from repro.pipeline import (
    ExperimentRunner,
    SerialExecutor,
    ShardedExecutor,
    SweepConfig,
)
from repro.vereval.testbench import _prepare

CORES = os.cpu_count() or 1
MIN_SPEEDUP = 1.5
ARTIFACT = "BENCH_parallel_eval.json"

#: Sixteen self-contained tasks, each with two fine-tunes and four
#: measurements on an 80-sample-per-family corpus: ~8-10 s per serial
#: leg on a 2-core host, so pool start-up (~15 ms) is amortized and a
#: host stall of a second or so no longer decides the ratio.
CONFIG = SweepConfig(
    cases=("cs5_code_structure", "cs3_module_name"),
    poison_counts=(2, 5),
    seeds=(1, 2, 3, 4),
    samples_per_family=80,
    n=8,
    eval_problems=2,
)


def run_leg(executor):
    """One pass over the grid with fresh process caches: an earlier leg
    must not warm the generation cache or the testbench front end that
    this leg (or its forked workers) would then inherit."""
    generation_cache().clear()
    _prepare.cache_clear()
    return ExperimentRunner(CONFIG, executor=executor).run()


@pytest.mark.skipif(
    CORES < 2, reason="sharded speedup needs a multi-core runner")
def test_sharded_executor_speedup():
    shards = min(CORES, 8)
    legs = [run_leg(SerialExecutor()),
            run_leg(ShardedExecutor(shards=shards)),
            run_leg(ShardedExecutor(shards=shards)),
            run_leg(SerialExecutor())]

    # Determinism before timing: every leg must report the same grid,
    # bit for bit.
    for leg in legs[1:]:
        assert leg.rows == legs[0].rows

    serial_s = legs[0].elapsed_s + legs[3].elapsed_s
    sharded_s = legs[1].elapsed_s + legs[2].elapsed_s
    speedup = serial_s / sharded_s
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
        "legs": [{"executor": leg.executor,
                  "elapsed_s": round(leg.elapsed_s, 4)} for leg in legs],
        "serial_s": round(serial_s, 4),
        "sharded_s": round(sharded_s, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
    }
    record_bench(ARTIFACT, record)

    assert speedup >= MIN_SPEEDUP, (
        f"sharded executor speedup regressed: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x (serial legs {serial_s:.2f}s, sharded legs "
        f"{sharded_s:.2f}s on {CORES} cores)")

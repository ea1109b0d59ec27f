"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record.py --workload scenario_cold|sweep_store|eval_pass1

Writes ``perfbench/reference/<workload>.json`` covering every input the
workload's pool can hand an op.  Re-record only when a change is meant
to alter outputs; the benchmark treats any difference as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import pin_environment  # noqa: E402


def record_scenario_cold() -> dict:
    from perfbench.workloads import ScenarioCold, _reset_process_caches
    from repro.scenarios.builtin import builtin_spec
    from perfbench.stats import row_bytes

    out = {}
    for case, seed in ScenarioCold.pool():
        _reset_process_caches()
        out[f"{case}/{seed}"] = row_bytes(
            ScenarioCold.op(builtin_spec(case, seed=seed)))
        print(case, seed, flush=True)
    return out


def record_sweep_store() -> dict:
    from perfbench.stats import row_bytes
    from perfbench.workloads import SweepStore, _reset_process_caches
    from repro.pipeline.runner import run_sweep_task
    from repro.store import reset_artifact_store

    out = {}
    for base in SweepStore.base_seeds:
        store_dir = tempfile.mkdtemp(prefix="record-store-",
                                     dir=ROOT / ".perfbench_tmp")
        os.environ["REPRO_STORE_DIR"] = store_dir
        reset_artifact_store()
        _reset_process_caches()
        try:
            for task in SweepStore.tasks(base):
                out[SweepStore.key(task)] = row_bytes(
                    run_sweep_task(task)["row"])
                print(SweepStore.key(task), flush=True)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
    return out


def record_eval_pass1() -> dict:
    from perfbench.workloads import EvalPass1
    from repro.vereval.problems import default_problems

    model = EvalPass1.fit_model()
    out: dict = {}
    for k in range(EvalPass1.eval_seed_pool):
        eval_seed = EvalPass1.eval_seed_base + k
        for problem in default_problems():
            out.setdefault(problem.problem_id, {})[str(eval_seed)] = \
                EvalPass1.evaluate(model, problem, eval_seed)
    return out


RECORDERS = {"scenario_cold": record_scenario_cold,
             "sweep_store": record_sweep_store,
             "eval_pass1": record_eval_pass1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=RECORDERS)
    args = parser.parse_args()
    pin_environment()
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    reference = RECORDERS[args.workload]()
    path = ROOT / "perfbench" / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: closure-compiled simulation vs the interpreted baseline.

Measures the evaluation harness end-to-end on the default problem
suite (the paper's n = 10 completions-per-problem protocol) with a
deterministic oracle model, so the whole wall-clock is the VerilogEval
pipeline the backend accelerates: syntax check, parse, elaborate,
simulate against the golden reference.

Two pipelines are compared:

* **legacy** -- the seed behaviour: per-completion ``run_testbench``
  on the interpreted backend, no sharing between completions;
* **current** -- ``evaluate_model`` with ``backend="compiled"``: the
  batched front-end dedups completions and each completion runs on a
  one-lane build of the closure builder (:mod:`repro.verilog.vector`),
  closures over a dense state array.

The measured speedup is recorded in ``BENCH_sim_backend.json`` at the
repository root (uploaded as a CI artifact by the benchmark job) and
asserted to stay above 2x.
"""

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.corpus.designs import FAMILIES
from repro.vereval.harness import evaluate_model, problem_seed_offset
from repro.vereval.problems import default_problems
from repro.vereval.testbench import run_testbench

N_TRIALS = 10  # the paper's n=10, k=1 protocol
SEED = 7
MIN_SPEEDUP = 2.0
_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sim_backend.json"

#: Parameter draws matching each problem's canonical interface, so the
#: oracle's completions elaborate and run the full stimulus program --
#: the heavy-evaluation regime the closure builder targets.
CANONICAL_PARAMS = {
    "adder": {"width": 4},
    "alu": {"width": 8},
    "arbiter": {"module_name": "round_robin_arbiter"},
    "clock_divider": {"div_bits": 1},
    "comparator": {"width": 8},
    "counter": {"width": 8},
    "decoder": {},
    "edge_detector": {},
    "fifo": {"data_width": 8, "depth": 16, "wr_en_name": "wr_en"},
    "gray_counter": {"width": 4},
    "memory": {"data_width": 16, "addr_width": 8, "edge": "posedge"},
    "mux": {"width": 4},
    "parity": {"width": 8},
    "priority_encoder": {},
    "pwm": {"width": 4},
    "register_file": {"width": 8, "depth_bits": 3},
    "scheduler": {},
    "sequence_detector": {},
    "shift_register": {"width": 8},
}


@dataclass
class _Generation:
    code: str


class OracleModel:
    """Deterministic HDLCoder stand-in emitting valid corpus designs.

    Each problem's ``n`` completions cycle over the family's styles
    with a few distinct comment decorations, reproducing the duplicate
    rate real sampling shows (several unique texts per batch) without
    paying model-generation time -- the benchmark then measures the
    evaluation pipeline itself.
    """

    def __init__(self, problems):
        self._by_prompt = {}
        for problem in problems:
            family = FAMILIES[problem.family]
            params = CANONICAL_PARAMS[problem.family]
            variants = []
            for style in sorted(family.styles):
                for decoration in range(2):
                    code = family.styles[style](
                        params, random.Random(1000 + decoration))
                    variants.append(code)
            self._by_prompt[problem.prompt] = variants

    def generate_n(self, prompt, n, temperature=0.0, seed=0):
        variants = self._by_prompt[prompt]
        rng = random.Random(seed)
        return [_Generation(code=rng.choice(variants)) for _ in range(n)]


def _legacy_pipeline(model, problems):
    """The seed evaluation loop: unbatched, interpreted."""
    passed = 0
    for problem in problems:
        generations = model.generate_n(
            problem.prompt, N_TRIALS,
            seed=SEED + problem_seed_offset(problem.problem_id))
        for gen_index, generation in enumerate(generations):
            outcome = run_testbench(generation.code, problem,
                                    seed=SEED + gen_index, backend="interp")
            passed += bool(outcome.passed)
    return passed


def test_compiled_backend_speedup_on_eval_suite():
    problems = default_problems()
    model = OracleModel(problems)

    # Warm code paths once so neither side pays first-call overheads.
    _legacy_pipeline(model, problems[:2])
    evaluate_model(model, problems[:2], n=2, seed=SEED, backend="compiled")

    t0 = time.perf_counter()
    legacy_passed = _legacy_pipeline(model, problems)
    t_legacy = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = evaluate_model(model, problems, n=N_TRIALS, seed=SEED,
                            backend="compiled")
    t_current = time.perf_counter() - t0

    # Both pipelines must agree before their timings are comparable.
    current_passed = sum(r.c for r in report.results)
    assert current_passed == legacy_passed
    assert report.pass_at_1 == 1.0  # oracle emits only valid designs

    speedup = t_legacy / t_current
    record = {
        "benchmark": "evaluate_model, default problem suite",
        "protocol": {"n": N_TRIALS, "problems": len(problems),
                     "seed": SEED},
        "legacy_interp_unbatched_s": round(t_legacy, 4),
        "compiled_batched_s": round(t_current, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
        "python": sys.version.split()[0],
    }
    _ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"compiled backend speedup regressed: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x (legacy {t_legacy:.2f}s, current {t_current:.2f}s)"
    )


def test_backends_agree_on_eval_report():
    """Same report from both backends on the same completions."""
    problems = default_problems()
    model = OracleModel(problems)
    interp = evaluate_model(model, problems, n=4, seed=SEED,
                            backend="interp")
    compiled = evaluate_model(model, problems, n=4, seed=SEED,
                              backend="compiled")
    assert interp.by_problem() == compiled.by_problem()
    assert interp.syntax_rate == compiled.syntax_rate

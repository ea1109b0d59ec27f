"""Benchmark: the closure builder vs the interpreted reference.

Runs the VerilogEval testbench loop on the default problem suite (the
paper's n = 10 completions-per-problem protocol) with a deterministic
oracle model, so the whole wall-clock is the pipeline the simulator
carries: syntax check, parse, elaborate, simulate against the golden
reference.

Both legs run :func:`per_completion_rows` -- one ``run_testbench`` per
completion, with the generation and stimulus seeds ``evaluate_model``
uses -- once on the ``interp`` reference and once on ``vector``, where
each completion runs on a one-lane build of the closure builder
(:mod:`repro.verilog.vector`), closures over a dense state array.

The measured speedup joins the per-commit history in
``BENCH_sim_backend.json`` at the repository root (uploaded as a CI
artifact by the benchmark job) and is asserted to stay above 2x.
"""

import random
import time
from dataclasses import dataclass

from conftest import record_bench

from repro.corpus.designs import FAMILIES
from repro.vereval.harness import evaluate_model, problem_seed_offset
from repro.vereval.problems import default_problems
from repro.vereval.testbench import run_testbench

N_TRIALS = 10  # the paper's n=10, k=1 protocol
SEED = 7
MIN_SPEEDUP = 2.0
ARTIFACT = "BENCH_sim_backend.json"

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


def per_completion_rows(model, problems, backend, seed=SEED):
    """``evaluate_model``'s per-problem ``(passes, syntax_ok)`` counts,
    from one ``run_testbench`` per completion on ``backend``."""
    rows = []
    for problem in problems:
        offset = problem_seed_offset(problem.problem_id)
        generations = model.generate_n(problem.prompt, N_TRIALS,
                                       seed=seed + offset)
        results = [run_testbench(generation.code, problem,
                                 seed=seed + offset + gen_index,
                                 backend=backend)
                   for gen_index, generation in enumerate(generations)]
        rows.append((sum(r.passed for r in results),
                     sum(r.syntax_ok for r in results)))
    return rows


def test_vector_speedup_over_interp_on_eval_suite():
    problems = default_problems()
    model = OracleModel(problems)

    # Warm code paths once so neither side pays first-call overheads.
    for backend in ("interp", "vector"):
        per_completion_rows(model, problems[:2], backend)

    t0 = time.perf_counter()
    interp_rows = per_completion_rows(model, problems, "interp")
    t_interp = time.perf_counter() - t0

    t0 = time.perf_counter()
    vector_rows = per_completion_rows(model, problems, "vector")
    t_vector = time.perf_counter() - t0

    # Both legs must agree before their timings are comparable.
    assert vector_rows == interp_rows
    # the oracle emits only valid designs
    assert vector_rows == [(N_TRIALS, N_TRIALS)] * len(problems)

    speedup = t_interp / t_vector
    record = {
        "benchmark": "run_testbench per completion, default problem suite",
        "protocol": {"n": N_TRIALS, "problems": len(problems),
                     "seed": SEED},
        "interp_s": round(t_interp, 4),
        "vector_s": round(t_vector, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
    }
    record_bench(ARTIFACT, record)

    assert speedup >= MIN_SPEEDUP, (
        f"closure builder speedup regressed: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x (interp {t_interp:.2f}s, vector {t_vector:.2f}s)"
    )


def test_backends_agree_on_eval_report():
    """Same report from the interpreter and the default backend on the
    same completions."""
    problems = default_problems()
    model = OracleModel(problems)
    interp = evaluate_model(model, problems, n=4, seed=SEED,
                            backend="interp")
    default = evaluate_model(model, problems, n=4, seed=SEED)
    assert interp.by_problem() == default.by_problem()
    assert interp.syntax_rate == default.syntax_rate

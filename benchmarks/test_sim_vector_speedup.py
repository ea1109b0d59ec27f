"""Benchmark: lane-vectorized simulation vs one-lane (``compiled``) runs.

Measures ``evaluate_model`` end-to-end on the default problem suite
(the paper's n = 10 completions-per-problem protocol) with a
deterministic low-temperature oracle.  ``compiled`` names the one-lane
build of the same closure builder, so the ratio is what packing lanes
buys over running every completion on its own one-lane simulator.  VerilogEval samples pass@1 at
temperature 0.2, where completion batches are dominated by duplicates
(near-greedy decoding re-emits the same text); that is exactly the
regime the vector backend targets: every group of identical
completions runs all of its stimulus seeds as lanes of one packed
simulator, so one wide integer operation advances every seed at once.

The oracle emits the family's canonical style for ~90% of completions
and a second style for the rest, so each batch still exercises the
one-lane singleton path alongside the packed lanes.  Each timed leg
evaluates the suite once per seed in ``LEG_SEEDS``, so a leg runs long
enough (~0.3 s vector, ~0.7 s compiled on a 2-core host) that a
scheduler stall of a few tens of milliseconds cannot move the ratio
across the bound.

The measured speedup is recorded in ``BENCH_sim_vector.json`` at the
repository root (uploaded as a CI artifact by the benchmark job) and
asserted to stay above 2x.
"""

import json
import random
import sys
import time
from pathlib import Path

from repro.corpus.designs import FAMILIES
from repro.obs import COUNTERS
from repro.vereval.harness import evaluate_model
from repro.vereval.problems import default_problems
from repro.vereval.testbench import lane_counters

from test_sim_backend_speedup import CANONICAL_PARAMS, _Generation

N_TRIALS = 10  # the paper's n=10, k=1 protocol
SEED = 7
LEG_SEEDS = tuple(range(SEED, SEED + 8))  # suite passes per timed leg
REPS = 3  # report the best of REPS to damp scheduler noise
DUPLICATE_P = 0.9
MIN_SPEEDUP = 2.0
_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sim_vector.json"


class LowTempOracle:
    """Deterministic stand-in for near-greedy (T=0.2) sampling.

    Each completion is the family's canonical style with probability
    ``DUPLICATE_P`` and an alternate style otherwise, reproducing the
    duplicate-dominated batches low-temperature decoding yields.
    """

    def __init__(self, problems):
        self._by_prompt = {}
        for problem in problems:
            family = FAMILIES[problem.family]
            params = CANONICAL_PARAMS[problem.family]
            styles = sorted(family.styles)
            canonical = family.styles[styles[0]](
                params, random.Random(1000))
            alternate = family.styles[styles[-1]](
                params, random.Random(1001))
            self._by_prompt[problem.prompt] = (canonical, alternate)

    def generate_n(self, prompt, n, temperature=0.0, seed=0):
        canonical, alternate = self._by_prompt[prompt]
        rng = random.Random(seed)
        return [
            _Generation(
                code=canonical if rng.random() < DUPLICATE_P else alternate)
            for _ in range(n)
        ]


def _leg(model, problems, backend):
    """One timed leg: the suite once per leg seed."""
    t0 = time.perf_counter()
    reports = [evaluate_model(model, problems, n=N_TRIALS, seed=seed,
                              backend=backend)
               for seed in LEG_SEEDS]
    return time.perf_counter() - t0, reports


def test_vector_backend_speedup_on_eval_suite():
    problems = default_problems()
    model = LowTempOracle(problems)

    # Warm code paths (front-end memo, closure builds for every lane
    # count the leg seeds produce) once so neither side pays first-call
    # overheads.
    for seed in LEG_SEEDS:
        for backend in ("compiled", "vector"):
            evaluate_model(model, problems, n=N_TRIALS, seed=seed,
                           backend=backend)

    # Alternate the two legs, so a slow stretch of the host lands on
    # both sides of the ratio rather than on one.
    COUNTERS.reset("lanes")
    legs = {"compiled": [], "vector": []}
    for _ in range(REPS):
        for backend, runs in legs.items():
            runs.append(_leg(model, problems, backend))
    lanes = lane_counters()
    t_compiled, compiled_reports = min(legs["compiled"], key=lambda r: r[0])
    t_vector, vector_reports = min(legs["vector"], key=lambda r: r[0])

    # Both backends must agree before their timings are comparable.
    for compiled_report, vector_report in zip(compiled_reports,
                                              vector_reports, strict=True):
        assert compiled_report.by_problem() == vector_report.by_problem()
        assert compiled_report.syntax_rate == vector_report.syntax_rate
    assert lanes["lanes_packed"] > 0  # the fast path actually engaged

    speedup = t_compiled / t_vector
    record = {
        "benchmark": "evaluate_model, default problem suite, "
                     "low-temperature duplicate regime",
        "protocol": {"n": N_TRIALS, "problems": len(problems),
                     "leg_seeds": list(LEG_SEEDS), "reps": REPS,
                     "duplicate_p": DUPLICATE_P},
        "compiled_s": round(t_compiled, 4),
        "vector_s": round(t_vector, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
        "lane_counters": lanes,
        "python": sys.version.split()[0],
    }
    _ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"vector backend speedup regressed: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x (compiled {t_compiled:.2f}s, "
        f"vector {t_vector:.2f}s)"
    )


def test_all_three_backends_agree_on_eval_report():
    """Byte-identical reports from interp, compiled and vector."""
    problems = default_problems()
    model = LowTempOracle(problems)
    reports = {
        backend: evaluate_model(model, problems, n=4, seed=SEED,
                                backend=backend)
        for backend in ("interp", "compiled", "vector")
    }
    def rows(report):
        return [(r.problem_id, r.family, r.n, r.c, r.syntax_ok,
                 r.failure_reasons) for r in report.results]

    base = reports["interp"]
    for backend in ("compiled", "vector"):
        report = reports[backend]
        assert report.by_problem() == base.by_problem(), backend
        assert report.syntax_rate == base.syntax_rate, backend
        assert rows(report) == rows(base), backend

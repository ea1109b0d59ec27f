"""Benchmark: lane-vectorized simulation vs one lane per completion.

Measures ``evaluate_model`` end-to-end on the default problem suite
(the paper's n = 10 completions-per-problem protocol) with a
deterministic low-temperature oracle, against
:func:`test_sim_backend_speedup.per_completion_rows` on ``vector``: the
same completions and seeds, each run on its own one-lane build of the
same closure builder.  The ratio is what packing lanes buys.  VerilogEval
samples pass@1 at temperature 0.2, where completion batches are
dominated by duplicates (near-greedy decoding re-emits the same text);
that is exactly the regime the lanes target: every group of identical
completions runs all of its stimulus seeds as lanes of one packed
simulator, so one wide integer operation advances every seed at once.

The oracle emits the family's canonical style for ~90% of completions
and a second style for the rest, so each batch still exercises the
one-lane singleton path alongside the packed lanes.  Each timed leg
evaluates the suite once per seed in ``LEG_SEEDS``, so a leg runs long
enough (~0.3 s lanes, ~0.9 s one lane per completion on a 2-core host)
that a scheduler stall of a few tens of milliseconds cannot move the
ratio across the bound.

The measured speedup joins the per-commit history in
``BENCH_sim_vector.json`` at the repository root (uploaded as a CI
artifact by the benchmark job) and is asserted to stay above 2x.
"""

import random
import time

from conftest import record_bench

from repro.corpus.designs import FAMILIES
from repro.obs import COUNTERS
from repro.vereval.harness import evaluate_model
from repro.vereval.problems import default_problems
from repro.vereval.testbench import lane_counters

from test_sim_backend_speedup import (CANONICAL_PARAMS, _Generation,
                                      per_completion_rows)

N_TRIALS = 10  # the paper's n=10, k=1 protocol
SEED = 7
LEG_SEEDS = tuple(range(SEED, SEED + 8))  # suite passes per timed leg
REPS = 3  # report the best of REPS to damp scheduler noise
DUPLICATE_P = 0.9
MIN_SPEEDUP = 2.0
ARTIFACT = "BENCH_sim_vector.json"


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


def _one_lane_leg(model, problems):
    """One timed leg: the suite once per leg seed, one lane per
    completion."""
    t0 = time.perf_counter()
    rows = [per_completion_rows(model, problems, "vector", seed=seed)
            for seed in LEG_SEEDS]
    return time.perf_counter() - t0, rows


def _lanes_leg(model, problems):
    """One timed leg: the suite once per leg seed, through
    ``evaluate_model`` (lanes)."""
    t0 = time.perf_counter()
    rows = [[(r.c, r.syntax_ok)
             for r in evaluate_model(model, problems, n=N_TRIALS,
                                     seed=seed).results]
            for seed in LEG_SEEDS]
    return time.perf_counter() - t0, rows


def test_vector_backend_speedup_on_eval_suite():
    problems = default_problems()
    model = LowTempOracle(problems)

    # Warm code paths (front-end memo, closure builds for every lane
    # count the leg seeds produce) once so neither side pays first-call
    # overheads.
    _one_lane_leg(model, problems)
    _lanes_leg(model, problems)

    # Alternate the two legs, so a slow stretch of the host lands on
    # both sides of the ratio rather than on one.
    COUNTERS.reset("lanes")
    legs = {_one_lane_leg: [], _lanes_leg: []}
    for _ in range(REPS):
        for leg, runs in legs.items():
            runs.append(leg(model, problems))
    lanes = lane_counters()
    t_one_lane, one_lane_rows = min(legs[_one_lane_leg], key=lambda r: r[0])
    t_lanes, lanes_rows = min(legs[_lanes_leg], key=lambda r: r[0])

    # Both legs must agree before their timings are comparable.
    assert lanes_rows == one_lane_rows
    assert lanes["lanes_packed"] > 0  # the fast path actually engaged

    speedup = t_one_lane / t_lanes
    record = {
        "benchmark": "evaluate_model vs run_testbench per completion, "
                     "default problem suite, low-temperature duplicate "
                     "regime",
        "protocol": {"n": N_TRIALS, "problems": len(problems),
                     "leg_seeds": list(LEG_SEEDS), "reps": REPS,
                     "duplicate_p": DUPLICATE_P},
        "one_lane_s": round(t_one_lane, 4),
        "lanes_s": round(t_lanes, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
        "lane_counters": lanes,
    }
    record_bench(ARTIFACT, record)

    assert speedup >= MIN_SPEEDUP, (
        f"vector backend speedup regressed: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x (one lane {t_one_lane:.2f}s, "
        f"lanes {t_lanes:.2f}s)"
    )


def test_interp_and_default_agree_on_eval_report():
    """Byte-identical reports from the interpreter and the default
    backend."""
    problems = default_problems()
    model = LowTempOracle(problems)
    interp = evaluate_model(model, problems, n=4, seed=SEED,
                            backend="interp")
    default = evaluate_model(model, problems, n=4, seed=SEED)

    def rows(report):
        return [(r.problem_id, r.family, r.n, r.c, r.syntax_ok,
                 r.failure_reasons) for r in report.results]

    assert default.by_problem() == interp.by_problem()
    assert default.syntax_rate == interp.syntax_rate
    assert rows(default) == rows(interp)

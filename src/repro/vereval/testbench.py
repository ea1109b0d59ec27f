"""Vector testbench runner: generated code vs golden reference.

Implements VerilogEval's assessment semantics -- syntactic and
functional correctness only.  (That restriction is the paper's point:
quality-degradation payloads and rare-trigger backdoors pass this
testbench untouched.)

Two entry points: :func:`run_testbench` checks one completion, and
:func:`run_testbench_many` checks a batch against the same problem,
amortizing the per-completion front-end (syntax check, parse,
elaboration and -- on the ``vector`` backend -- lowering) across
duplicate completions, which the sampling protocol produces in bulk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable

from ..obs import COUNTERS
from ..verilog.elaborate import ElaborationError, FlatDesign, elaborate
from ..verilog.lint.framework import LintContext
from ..verilog.simulator import SimulationError, Simulator, resolve_backend
from ..verilog.syntax import check_syntax
from .problems import EvalProblem

_RESET_NAMES = ("rst", "reset", "rst_n", "clear")

#: What building or running a simulator on a corrupted completion can
#: raise; any of them is a functional failure, not a harness crash.
_RUN_FAULTS = (SimulationError, ValueError, KeyError, IndexError,
               OverflowError, RecursionError)


@dataclass
class TestResult:
    """Outcome of one testbench run."""

    passed: bool
    reason: str = ""
    cycles_run: int = 0
    syntax_ok: bool = True

    def __bool__(self) -> bool:
        return self.passed


def frontend_counters() -> dict[str, int]:
    """The ``frontend`` group of :data:`repro.obs.COUNTERS`."""
    return COUNTERS.group("frontend")


def _front_end(code: str,
               top: str) -> tuple[FlatDesign | None, TestResult | None]:
    """The full front end: syntax check, parse, elaborate.

    The syntax check reads one front-end context, which parses ``code``
    and elaborates its last module; that design is reused when it is
    ``top``, and any other top is elaborated from the context's source,
    so each source is parsed once.
    """
    ctx = LintContext.from_code(code)
    check = check_syntax(ctx)
    if not check.ok:
        return None, TestResult(passed=False, syntax_ok=False,
                                reason=f"syntax: {'; '.join(check.errors[:2])}")
    design = ctx.design  # a passed check elaborated it
    try:
        if design.top_name != top:
            assert ctx.source is not None  # the check parsed it
            design = elaborate(ctx.source, top=top)
    except KeyError:
        return None, TestResult(passed=False,
                                reason=f"no module named {top!r}")
    except (ElaborationError, ValueError) as exc:
        return None, TestResult(passed=False, reason=f"elaboration: {exc}")
    return design, None


@lru_cache(maxsize=256)
def _prepare(code: str,
             top: str) -> tuple[FlatDesign | None, TestResult | None]:
    """Run the per-source front-end once: syntax, parse, elaborate.

    Memoized process-wide: the sampling protocol re-emits identical
    completion texts across batches, problems and repeated sweeps, and
    an elaborated design is immutable under simulation (each simulator
    keeps its own state arrays), so the front-end result can be shared.
    Callers must ``replace()`` the failure ``TestResult`` before
    handing it out, never mutate it.  Lowering is left to the first
    closure backend built from the design, which caches its slot layout
    and its build on the design.
    """
    result = _front_end(code, top)
    COUNTERS.bump("frontend", "elaborations")
    return result


def _run_prepared(design: FlatDesign, problem: EvalProblem, seed: int,
                  backend: str) -> TestResult:
    try:
        sim = Simulator(design, backend=backend)
    except _RUN_FAULTS as exc:
        return TestResult(passed=False, reason=f"init: {exc}")

    rng = random.Random(seed)
    stimuli = problem.stimulus(rng)
    reference = problem.make_reference()

    try:
        if problem.sequential:
            return _run_sequential(sim, problem, reference, stimuli)
        return _run_combinational(sim, problem, reference, stimuli)
    except _RUN_FAULTS as exc:
        return TestResult(passed=False, reason=f"runtime: {exc}")


def run_testbench(code: str, problem: EvalProblem, seed: int = 0,
                  backend: str | None = None) -> TestResult:
    """Simulate ``code`` against the problem's golden reference."""
    backend = resolve_backend(backend)  # reject typos loudly, not per-run
    design, failure = _prepare(code, problem.top_module)
    if failure is not None:
        return replace(failure)
    return _run_prepared(design, problem, seed, backend)


def run_testbench_many(codes: list[str], problem: EvalProblem,
                       seeds: Iterable[int] | None = None,
                       backend: str | None = None) -> list[TestResult]:
    """Batched :func:`run_testbench` over completions of one problem.

    Each completion gets its own stimulus seed, and identical
    completion texts share one syntax check, parse, elaboration and
    (on ``vector``) lowering.  ``interp`` runs every completion on its
    own simulator; on ``vector``, the default, all seeds of one
    duplicated completion run as lanes of a single lane-parallel
    simulator (see :func:`_run_many_vector`).
    """
    backend = resolve_backend(backend)  # reject typos loudly, not per-run
    seeds = list(range(len(codes))) if seeds is None else list(seeds)
    if len(seeds) != len(codes):
        raise ValueError(
            f"run_testbench_many: got {len(codes)} codes but "
            f"{len(seeds)} seeds; lengths must match"
        )
    if backend == "vector":
        return _run_many_vector(codes, problem, seeds)
    results = []
    for code, seed in zip(codes, seeds, strict=True):
        design, failure = _prepare(code, problem.top_module)
        if failure is not None:
            results.append(replace(failure))
        else:
            results.append(_run_prepared(design, problem, seed, backend))
    return results


def lane_counters() -> dict[str, int]:
    """The ``lanes`` group of :data:`repro.obs.COUNTERS`."""
    return COUNTERS.group("lanes")


def _run_many_vector(codes: list[str], problem: EvalProblem,
                     seeds: list[int]) -> list[TestResult]:
    """Lane-batched fast path: group completions by identical text and
    run each group's seeds as lanes of one :class:`VectorSimulator`.

    Singletons run on a one-lane simulator.  Any failure the packed
    representation cannot express (lane-divergent widths, simulator
    init errors) falls the whole group back to one-lane simulators, so
    results -- pass/fail, reasons and cycle counts -- are byte-identical
    to one-lane runs either way.
    """
    groups: dict[str, list[int]] = {}
    for i, code in enumerate(codes):
        groups.setdefault(code, []).append(i)
    results: list[TestResult | None] = [None] * len(codes)
    for code, indices in groups.items():
        design, failure = _prepare(code, problem.top_module)
        if failure is not None:
            for i in indices:
                results[i] = replace(failure)
            continue
        if len(indices) == 1:
            i = indices[0]
            results[i] = _run_prepared(design, problem, seeds[i], "vector")
            COUNTERS.bump("lanes", "scalar_fallbacks")
            continue
        try:
            lane_results = _run_lanes(design, problem,
                                      [seeds[i] for i in indices])
        except _RUN_FAULTS:
            COUNTERS.bump("lanes", "scalar_fallbacks", len(indices))
            for i in indices:
                results[i] = _run_prepared(design, problem, seeds[i],
                                           "vector")
            continue
        COUNTERS.bump("lanes", "lanes_packed", len(indices))
        for i, result in zip(indices, lane_results, strict=True):
            results[i] = result
    return results


def _run_lanes(design: FlatDesign, problem: EvalProblem,
               lane_seeds: list[int]) -> list[TestResult]:
    """Run one design under ``len(lane_seeds)`` stimulus sequences at
    once, retiring each lane as soon as it passes or mismatches."""
    from ..verilog.vector import VectorSimulator

    n = len(lane_seeds)
    sim = VectorSimulator(design, lanes=n)
    stimuli = [problem.stimulus(random.Random(seed)) for seed in lane_seeds]
    references = [problem.make_reference() for _ in lane_seeds]
    results: list[TestResult | None] = [None] * n

    if problem.sequential:
        _apply_reset(sim, problem, references)

    live = list(range(n))  # kept sorted; lanes only ever leave
    sequential = problem.sequential
    for cycle in range(max(len(s) for s in stimuli)):
        finished = [lane for lane in live if cycle >= len(stimuli[lane])]
        for lane in finished:
            results[lane] = TestResult(passed=True,
                                       cycles_run=len(stimuli[lane]))
            sim.retire_lane(lane)
            live.remove(lane)
        if not live:
            break
        lane_values: dict[str, list] = {}
        for lane in live:
            for name, value in stimuli[lane][cycle].items():
                row = lane_values.get(name)
                if row is None:
                    row = lane_values[name] = [None] * n
                row[lane] = value
        sim.poke_many_lanes(lane_values)
        mismatched = None
        for lane in live:
            vector = stimuli[lane][cycle]
            reference = references[lane]
            expected = (reference.step(vector) if sequential
                        else reference.eval(vector))
            mismatch = _compare_lane(sim, expected, cycle, lane)
            if mismatch:
                results[lane] = TestResult(passed=False, reason=mismatch,
                                           cycles_run=cycle + 1)
                sim.retire_lane(lane)
                if mismatched is None:
                    mismatched = []
                mismatched.append(lane)
        if mismatched:
            for lane in mismatched:
                live.remove(lane)
        if sequential and live:
            sim.clock_pulse(problem.clock)
    for lane in live:
        results[lane] = TestResult(passed=True,
                                   cycles_run=len(stimuli[lane]))
    return results


def _compare(sim: Simulator, expected: dict, cycle: int) -> str | None:
    """Return a mismatch description, or None if all outputs agree."""
    for name, value in expected.items():
        if value is None:
            continue  # reference declares this output undefined here
        actual = sim.peek(name)
        if actual.has_unknown:
            return (f"cycle {cycle}: output {name!r} is X, "
                    f"expected {value:#x}")
        if actual.val != value:
            return (f"cycle {cycle}: output {name!r} = {actual.val:#x}, "
                    f"expected {value:#x}")
    return None


def _compare_lane(sim, expected: dict, cycle: int,
                  lane: int) -> str | None:
    """Lane-addressed :func:`_compare`, with identical messages so the
    vector fast path reports byte-identical failure reasons."""
    for name, value in expected.items():
        if value is None:
            continue  # reference declares this output undefined here
        val, xmask = sim.peek_raw(name, lane)
        if xmask:
            return (f"cycle {cycle}: output {name!r} is X, "
                    f"expected {value:#x}")
        if val != value:
            return (f"cycle {cycle}: output {name!r} = {val:#x}, "
                    f"expected {value:#x}")
    return None


def _run_combinational(sim: Simulator, problem: EvalProblem,
                       reference, stimuli: list[dict]) -> TestResult:
    for cycle, vector in enumerate(stimuli):
        sim.poke_many(vector)
        mismatch = _compare(sim, reference.eval(vector), cycle)
        if mismatch:
            return TestResult(passed=False, reason=mismatch,
                              cycles_run=cycle + 1)
    return TestResult(passed=True, cycles_run=len(stimuli))


def _apply_reset(sim: Simulator, problem: EvalProblem,
                 references: list) -> None:
    """Zero every input, pulse the reset input (if the problem has one)
    for one clock edge, release it, and reset every reference model."""
    zeros = {name: 0 for name in problem.inputs}
    zeros[problem.clock] = 0
    sim.poke_many(zeros)
    reset_name = next(
        (n for n in _RESET_NAMES if n in problem.inputs), None
    )
    if reset_name is not None:
        sim.poke(reset_name, 1)
        sim.clock_pulse(problem.clock)
        sim.poke(reset_name, 0)
    for reference in references:
        reference.reset()


def _run_sequential(sim: Simulator, problem: EvalProblem,
                    reference, stimuli: list[dict]) -> TestResult:
    _apply_reset(sim, problem, [reference])
    for cycle, vector in enumerate(stimuli):
        sim.poke_many(vector)
        expected = reference.step(vector)
        mismatch = _compare(sim, expected, cycle)  # pre-edge sampling
        if mismatch:
            return TestResult(passed=False, reason=mismatch,
                              cycles_run=cycle + 1)
        sim.clock_pulse(problem.clock)
    return TestResult(passed=True, cycles_run=len(stimuli))

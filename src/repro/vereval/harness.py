"""Model evaluation harness (the VerilogEval front-end).

Runs a model over the problem suite with the paper's protocol
(n = 10 completions per problem, pass@1) and reports per-problem and
aggregate statistics, including syntax validity -- the two things
VerilogEval checks, and (the paper's takeaway) the *only* things.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ..llm.model import HDLCoder
from ..pipeline.executors import make_executor
from ..pipeline.measurement import MeasurementRequest, measure
from .passk import mean_pass_at_k, pass_at_k
from .problems import EvalProblem, default_problems


def problem_seed_offset(problem_id: str) -> int:
    """Stable per-problem seed offset.

    Uses ``zlib.crc32`` rather than ``hash()``: Python salts string
    hashes per process (``PYTHONHASHSEED``), which made evaluation
    results irreproducible across interpreter runs.
    """
    return zlib.crc32(problem_id.encode("utf-8")) % 9973


@dataclass
class ProblemResult:
    """Per-problem evaluation outcome."""

    problem_id: str
    family: str
    n: int
    c: int
    syntax_ok: int
    failure_reasons: list[str] = field(default_factory=list)

    def pass_at(self, k: int) -> float:
        return pass_at_k(self.n, self.c, k)


@dataclass
class EvalReport:
    """Aggregate evaluation over the problem suite."""

    results: list[ProblemResult]
    n: int
    temperature: float

    def pass_at(self, k: int = 1) -> float:
        return mean_pass_at_k([(r.n, r.c) for r in self.results], k)

    @property
    def pass_at_1(self) -> float:
        return self.pass_at(1)

    @property
    def syntax_rate(self) -> float:
        total = sum(r.n for r in self.results)
        return sum(r.syntax_ok for r in self.results) / total if total else 0.0

    def by_problem(self) -> dict[str, float]:
        return {r.problem_id: r.pass_at(1) for r in self.results}

    def as_rows(self) -> list[dict]:
        return [
            {
                "problem": r.problem_id,
                "family": r.family,
                "pass@1": round(r.pass_at(1), 3),
                "c/n": f"{r.c}/{r.n}",
                "syntax_ok": r.syntax_ok,
            }
            for r in self.results
        ]


def _evaluate_problem_task(model: HDLCoder, task: tuple) -> ProblemResult:
    """One problem end-to-end; module-level so shard workers can
    pickle it.  Pure in (model, task) -> result: sharded and serial
    evaluations produce identical rows.  The model arrives as the
    executor's *broadcast* object -- shipped to each worker once via
    the pool initializer, not pickled into every problem task."""
    problem, n, temperature, seed, backend = task
    offset = problem_seed_offset(problem.problem_id)
    measured = measure(model, MeasurementRequest(
        prompt=problem.prompt, n=n, temperature=temperature,
        seed=seed + offset, checks=("testbench",), problem=problem,
        testbench_seeds=tuple(seed + offset + gen_index
                              for gen_index in range(n)),
        backend=backend))
    return ProblemResult(
        problem_id=problem.problem_id, family=problem.family,
        n=n, c=measured.passes, syntax_ok=measured.syntax_ok_count,
        failure_reasons=measured.failure_reasons(limit=4),
    )


def evaluate_model(model: HDLCoder,
                   problems: list[EvalProblem] | None = None,
                   n: int = 10, temperature: float = 0.8,
                   seed: int = 0, backend: str | None = None,
                   executor: object | str | None = "serial",
                   shards: int | None = None) -> EvalReport:
    """Evaluate ``model`` on the suite with the paper's protocol.

    ``backend`` selects the RTL-simulation backend: ``"vector"``
    (the default, also when None) or ``"interp"``, the reference
    interpreter.
    Each problem is one :class:`MeasurementRequest` against the
    pipeline measurement core: generation goes through the
    process-wide generation cache, and completions run through the
    batched testbench front-end, so the duplicate completions that
    low-temperature sampling produces are parsed/elaborated/lowered
    only once (``"vector"`` also runs each duplicate group's seeds as
    lanes of one simulator).

    ``executor`` shards the evaluation across *problems* through the
    pipeline executors: ``"serial"``/``"sharded"``, a pre-built
    executor object, or None to resolve ``REPRO_EXECUTOR``.  Each
    problem is a self-contained task; the fitted model ships to each
    worker **once** as the executor's broadcast object (pool
    initializer), not pickled per task.  Per-problem rows merge
    deterministically in problem order, so sharded reports are
    bit-identical to serial ones.  The
    default is explicitly serial -- not env-resolved -- because sweep
    grid points call this inside sharded workers, where a nested pool
    per task would oversubscribe the machine.  With ``REPRO_STORE_DIR``
    set, workers share generation batches through the store's disk
    tier instead of each private memory cache going cold.

    Per-completion stimulus seeds mix in the problem's seed offset so
    that different problems draw *different* stimulus sequences for
    the same completion index (they previously all shared
    ``seed + index``).
    """
    problems = problems if problems is not None else default_problems()
    if not hasattr(executor, "map"):
        executor = make_executor(executor, shards=shards)
    tasks = [(problem, n, temperature, seed, backend)
             for problem in problems]
    results = executor.map(_evaluate_problem_task, tasks, broadcast=model)
    return EvalReport(results=results, n=n, temperature=temperature)

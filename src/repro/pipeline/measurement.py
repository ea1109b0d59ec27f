"""Batched measurement core: one generate -> check -> count engine.

The paper's Fig.-4 flow measures models by sampling ``n`` completions
for a prompt and counting check outcomes.  The seed repo re-implemented
that loop three times (``vereval.harness.evaluate_model``,
``core.attack.AttackResult._measure``,
``core.advanced_defenses.RareWordFuzzer``), each with its own checking
code and only one of them batched.  This module is the single engine
they all route through now:

* generation goes through :meth:`HDLCoder.generate_n` and therefore
  the process-wide generation cache;
* every check runs once per *unique* completion text (low-temperature
  sampling produces duplicates in bulk): the static checks read one
  :class:`LintContext` per distinct completion, so it is parsed once
  and elaborated at most once, and functional checks go through the
  batched :func:`run_testbench_many` front-end; on the
  ``vector`` backend (the default; ``request.backend="interp"`` picks
  the reference interpreter) each group of identical completions
  additionally runs all of its stimulus seeds as lanes of one
  lane-parallel simulator.

Checks are named so call sites stay declarative:

``syntax``
    the built-in frontend's syntax verdict (implied by ``testbench``);
``payload``
    ``request.payload.detect`` -- Trojan-payload presence;
``constant_guard``
    the Trojan-shaped ``if (sig == wide-constant)`` signature used by
    rare-word fuzzing (:func:`constant_guard_pass`; an unparseable
    completion counts as unflagged);
``testbench``
    full functional check of ``request.problem`` (includes syntax).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..verilog.ast_nodes import Binary, Identifier, If, Number, walk_stmts
from ..verilog.lint.framework import Finding, LintContext, run_passes
from ..verilog.syntax import check_syntax

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.payloads import Payload
    from ..llm.model import HDLCoder
    from ..vereval.problems import EvalProblem

#: Recognised check names, in the order they are applied.
CHECKS = ("syntax", "payload", "constant_guard", "testbench")


@dataclass(frozen=True)
class MeasurementRequest:
    """One measurement: sample ``n`` completions, run ``checks``.

    ``testbench_seeds`` (one stimulus seed per completion) is required
    with the ``testbench`` check; ``payload`` requires ``payload``;
    ``testbench`` requires ``problem``.
    """

    prompt: str
    n: int
    temperature: float = 0.8
    seed: int = 0
    checks: tuple[str, ...] = ("syntax",)
    payload: "Payload | None" = None
    problem: "EvalProblem | None" = None
    testbench_seeds: tuple[int, ...] | None = None
    backend: str | None = None

    def __post_init__(self):
        unknown = set(self.checks) - set(CHECKS)
        if unknown:
            raise ValueError(
                f"unknown checks {sorted(unknown)}; expected a subset "
                f"of {CHECKS}")
        if "payload" in self.checks and self.payload is None:
            raise ValueError("the 'payload' check needs request.payload")
        if "testbench" in self.checks:
            if self.problem is None:
                raise ValueError(
                    "the 'testbench' check needs request.problem")
            if (self.testbench_seeds is not None
                    and len(self.testbench_seeds) != self.n):
                raise ValueError(
                    f"testbench_seeds must have one seed per completion "
                    f"({len(self.testbench_seeds)} != n={self.n})")


@dataclass
class CompletionOutcome:
    """Per-completion verdicts (None = check not requested)."""

    code: str
    from_poisoned: bool = False
    syntax_ok: bool | None = None
    payload_hit: bool | None = None
    guard_hit: bool | None = None
    passed: bool | None = None
    reason: str = ""


@dataclass
class MeasurementResult:
    """Aggregated outcome of one :class:`MeasurementRequest`."""

    request: MeasurementRequest
    outcomes: list[CompletionOutcome]

    @property
    def n(self) -> int:
        return len(self.outcomes)

    # -- counters ----------------------------------------------------------

    @property
    def syntax_ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.syntax_ok)

    @property
    def payload_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.payload_hit)

    @property
    def guard_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.guard_hit)

    @property
    def passes(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def from_poisoned_count(self) -> int:
        return sum(1 for o in self.outcomes if o.from_poisoned)

    # -- rates -------------------------------------------------------------

    def _rate(self, count: int) -> float:
        return count / self.n if self.n else 0.0

    @property
    def syntax_rate(self) -> float:
        return self._rate(self.syntax_ok_count)

    @property
    def payload_rate(self) -> float:
        return self._rate(self.payload_hits)

    @property
    def guard_rate(self) -> float:
        return self._rate(self.guard_hits)

    @property
    def pass_rate(self) -> float:
        return self._rate(self.passes)

    def failure_reasons(self, limit: int = 4) -> list[str]:
        """The first ``limit`` failure reasons (testbench check only)."""
        reasons = [o.reason for o in self.outcomes if o.passed is False]
        return reasons[:limit]


def constant_guard_pass(ctx: LintContext) -> Iterator[Finding]:
    """Trojan signature: ``if (<identifier> == <wide constant>)``."""
    assert ctx.source is not None
    for module in ctx.source.modules:
        for block in module.always_blocks:
            for stmt in walk_stmts(block.body):
                if not isinstance(stmt, If):
                    continue
                cond = stmt.cond
                if not isinstance(cond, Binary) or cond.op != "==":
                    continue
                sides = (cond.left, cond.right)
                has_ident = any(isinstance(s, Identifier) for s in sides)
                wide_const = any(
                    isinstance(s, Number) and (s.width or 0) >= 4
                    and s.value not in (0,)
                    for s in sides
                )
                if has_ident and wide_const:
                    yield Finding(rule="constant-guard", severity="trojan",
                                  location=module.name,
                                  message=f"{module.name}: constant guard")


def _by_code(codes: list[str], check: str,
             verdict: Callable[[LintContext], bool],
             verdicts: dict[str, dict] | None,
             contexts: dict[str, LintContext]) -> dict:
    """``{code: verdict(context of code)}`` over ``codes``, read from
    and filled into ``verdicts[check]`` when the caller shares
    ``verdicts``.  A code's context is built on its first unknown
    verdict and kept in ``contexts`` for the other checks."""
    known = {} if verdicts is None else verdicts.setdefault(check, {})
    for code in codes:
        if code not in known:
            ctx = contexts.get(code)
            if ctx is None:
                ctx = contexts[code] = LintContext.from_code(code)
            known[code] = verdict(ctx)
    return known


def measure(model: "HDLCoder", request: MeasurementRequest,
            verdicts: dict[str, dict] | None = None) -> MeasurementResult:
    """Run one measurement request against ``model``.

    Deterministic: identical (model, request) pairs produce identical
    results, which is what lets the sharded executor reproduce serial
    runs bit-for-bit.

    ``verdicts`` (check name -> code -> verdict) is read and filled in
    place, so measurements sharing one dict run each static check
    (``syntax``, ``payload``, ``constant_guard``) once per distinct
    completion across all of them; None keeps them to this call.
    Share it only between requests with the same ``payload``.  The
    static checks of one call read one front-end context per distinct
    completion, dropped on return.
    """
    generations = model.generate_n(request.prompt, request.n,
                                   temperature=request.temperature,
                                   seed=request.seed)
    outcomes = [
        CompletionOutcome(
            code=g.code,
            from_poisoned=bool(getattr(g, "from_poisoned", False)))
        for g in generations
    ]
    codes = [o.code for o in outcomes]
    unique_codes = list(dict.fromkeys(codes))
    contexts: dict[str, LintContext] = {}

    if "testbench" in request.checks:
        # Deferred import: vereval's package __init__ pulls in modules
        # that import this one.
        from ..vereval.testbench import run_testbench_many

        # Default stimulus seeds derive from the request seed so two
        # requests (or problems) never silently share stimulus
        # sequences.
        seeds = (request.testbench_seeds
                 if request.testbench_seeds is not None
                 else tuple(request.seed + i for i in range(len(codes))))
        tb_results = run_testbench_many(codes, request.problem,
                                        seeds=seeds,
                                        backend=request.backend)
        for outcome, tb in zip(outcomes, tb_results, strict=True):
            outcome.syntax_ok = tb.syntax_ok
            outcome.passed = tb.passed
            outcome.reason = tb.reason
    elif "syntax" in request.checks:
        ok_by_code = _by_code(unique_codes, "syntax",
                              lambda ctx: check_syntax(ctx).ok, verdicts,
                              contexts)
        for outcome in outcomes:
            outcome.syntax_ok = ok_by_code[outcome.code]

    if "payload" in request.checks:
        hit_by_code = _by_code(unique_codes, "payload",
                               lambda ctx: bool(request.payload.detect(ctx)),
                               verdicts, contexts)
        for outcome in outcomes:
            outcome.payload_hit = hit_by_code[outcome.code]

    if "constant_guard" in request.checks:
        guard_by_code = _by_code(
            unique_codes, "constant_guard",
            lambda ctx: bool(run_passes(ctx, (constant_guard_pass,))),
            verdicts, contexts)
        for outcome in outcomes:
            outcome.guard_hit = guard_by_code[outcome.code]

    return MeasurementResult(request=request, outcomes=outcomes)

"""Registered metrics: the report-row fields a scenario can request.

Each metric factory returns a callable ``metric(ctx) -> dict`` whose
entries merge into the scenario's report row, in the order the spec's
``metrics`` tuple lists them.  The :class:`MetricContext` memoizes the
underlying measurements, so e.g. ``asr`` and ``syntax_rate_triggered``
share one triggered-prompt measurement exactly as the legacy sweep task
did.
"""

from __future__ import annotations

from .registry import register_metric
from .spec import MeasurementSpec


class MetricContext:
    """Shared measurement state for one scenario's metric set."""

    def __init__(self, result, measurement: MeasurementSpec,
                 scenario_seed: int):
        self.result = result
        self.measurement = measurement
        self.scenario_seed = scenario_seed
        self._memo: dict[str, object] = {}

    def _measured(self, key: str, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def asr(self):
        return self._measured("asr", lambda: self.result.attack_success_rate(
            n=self.measurement.n, temperature=self.measurement.temperature))

    def misfire(self):
        return self._measured(
            "misfire", lambda: self.result.unintended_activation_rate(
                n=self.measurement.n,
                temperature=self.measurement.temperature))

    def clean_baseline(self):
        return self._measured(
            "clean_baseline", lambda: self.result.clean_model_baseline(
                n=self.measurement.n,
                temperature=self.measurement.temperature))

    def eval_report(self):
        def compute():
            from ..vereval.harness import evaluate_model
            from ..vereval.problems import default_problems

            problems = default_problems()[:self.measurement.eval_problems]
            return evaluate_model(
                self.result.backdoored_model, problems=problems,
                n=self.measurement.n,
                temperature=self.measurement.temperature,
                seed=self.scenario_seed + 6)
        return self._measured("eval_report", compute)


@register_metric("asr")
def _asr(**params):
    """Attack success rate: triggered prompt on the backdoored model."""
    def compute(ctx: MetricContext) -> dict:
        return {"asr": ctx.asr().rate}
    return compute


@register_metric("misfire")
def _misfire(**params):
    """Unintended activation: clean prompt on the backdoored model."""
    def compute(ctx: MetricContext) -> dict:
        return {"misfire": ctx.misfire().rate}
    return compute


@register_metric("clean_baseline")
def _clean_baseline(**params):
    """Control: triggered prompt on the clean model."""
    def compute(ctx: MetricContext) -> dict:
        return {"clean_baseline": ctx.clean_baseline().rate}
    return compute


@register_metric("syntax_rate_triggered")
def _syntax_rate_triggered(**params):
    """Syntax validity among the triggered-prompt completions."""
    def compute(ctx: MetricContext) -> dict:
        asr = ctx.asr()
        return {"syntax_rate_triggered": (asr.syntax_valid / asr.total
                                          if asr.total else 0.0)}
    return compute


@register_metric("pass_at_1")
def _pass_at_1(**params):
    """pass@1 of the backdoored model over the first ``eval_problems``
    suite problems; contributes nothing when the eval leg is disabled."""
    def compute(ctx: MetricContext) -> dict:
        if not ctx.measurement.eval_problems:
            return {}
        report = ctx.eval_report()
        return {"pass_at_1": report.pass_at_1,
                "eval_syntax_rate": report.syntax_rate}
    return compute

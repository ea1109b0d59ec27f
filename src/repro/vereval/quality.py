"""Code-quality assessment beyond functional correctness.

This is the "advanced evaluation" the paper's takeaways call for:
Case Study I's payload never fails a functional testbench, but it is
visible to architecture classification and structural metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..llm.model import HDLCoder
from ..verilog.lint.framework import LintContext
from ..verilog.metrics import classify_adder_architecture, source_quality


@dataclass
class QualityAssessment:
    """Architecture/quality distribution over n completions."""

    prompt: str
    n: int
    architectures: dict[str, int]
    mean_gate_estimate: float
    mean_depth_estimate: float
    unparseable: int

    def architecture_share(self, name: str) -> float:
        return self.architectures.get(name, 0) / self.n if self.n else 0.0


def assess_adder_quality(model: HDLCoder, prompt: str, n: int = 10,
                         temperature: float = 0.8,
                         seed: int = 0) -> QualityAssessment:
    """Classify the adder architectures a model produces for ``prompt``."""
    generations = model.generate_n(prompt, n, temperature=temperature,
                                   seed=seed)
    architectures: Counter = Counter()
    gates = []
    depths = []
    unparseable = 0
    for generation in generations:
        sf = LintContext.from_code(generation.code).source
        if sf is None:
            unparseable += 1
            architectures["unparseable"] += 1
            continue
        architectures[classify_adder_architecture(sf)] += 1
        report = source_quality(sf)
        gates.append(report.gate_estimate)
        depths.append(report.depth_estimate)
    return QualityAssessment(
        prompt=prompt, n=n,
        architectures=dict(architectures),
        mean_gate_estimate=sum(gates) / len(gates) if gates else 0.0,
        mean_depth_estimate=sum(depths) / len(depths) if depths else 0.0,
        unparseable=unparseable,
    )

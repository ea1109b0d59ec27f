"""Tests for the evaluation harness and quality/ASR measurements."""

import pytest

from repro.core.attack import RTLBreaker
from repro.obs import COUNTERS
from repro.scenarios.builtin import builtin_spec
from repro.scenarios.runtime import run_scenario
from repro.vereval.asr import measure_asr
from repro.vereval.harness import evaluate_model
from repro.vereval.problems import default_problems
from repro.vereval.quality import assess_adder_quality
from repro.vereval.testbench import lane_counters


@pytest.fixture(scope="module")
def breaker():
    return RTLBreaker.with_default_corpus(seed=3, samples_per_family=40)


@pytest.fixture(scope="module")
def clean_model(breaker):
    return breaker.train_clean()


class TestHarness:
    def test_report_structure(self, clean_model):
        problems = default_problems()[:3]
        report = evaluate_model(clean_model, problems=problems, n=4, seed=2)
        assert len(report.results) == 3
        assert 0.0 <= report.pass_at_1 <= 1.0
        assert 0.0 <= report.syntax_rate <= 1.0

    def test_clean_model_performs_well(self, clean_model):
        report = evaluate_model(clean_model, n=6, seed=2)
        assert report.pass_at_1 >= 0.5
        assert report.syntax_rate >= 0.7

    def test_rows_have_expected_keys(self, clean_model):
        problems = default_problems()[:2]
        report = evaluate_model(clean_model, problems=problems, n=3, seed=1)
        row = report.as_rows()[0]
        assert {"problem", "family", "pass@1", "c/n", "syntax_ok"} \
            == set(row)

    def test_by_problem_lookup(self, clean_model):
        problems = default_problems()[:2]
        report = evaluate_model(clean_model, problems=problems, n=3, seed=1)
        assert set(report.by_problem()) == {p.problem_id for p in problems}


class TestBackendRows:
    """The interpreter oracle and the default backend give the pass@1
    fields of a sweep row identically, on the backdoored models of the
    CI equivalence grid (12 samples per family, seed 3, first three
    problems at n = 10, the eval leg's seed)."""

    @pytest.mark.parametrize("poison_count", [1, 2])
    @pytest.mark.parametrize("case", ["cs5_code_structure",
                                      "cs3_module_name"])
    def test_interp_rows_match_default(self, case, poison_count):
        spec = builtin_spec(case, poison_count=poison_count, seed=3,
                            samples_per_family=12).evolve(metrics=())
        model = run_scenario(spec, memo=False).attack.backdoored_model
        problems = default_problems()[:3]
        interp = evaluate_model(model, problems, n=10, seed=spec.seed + 6,
                                backend="interp")
        COUNTERS.reset("lanes")
        default = evaluate_model(model, problems, n=10, seed=spec.seed + 6)
        # the default leg simulated on the closure builder
        assert sum(lane_counters().values()) > 0
        assert interp.by_problem() == default.by_problem()
        assert interp.syntax_rate == default.syntax_rate


class TestBackdooredEvaluation:
    """Section V-D/E shape: backdoored models look ~clean to VerilogEval."""

    def test_backdoored_pass1_close_to_clean(self, breaker, clean_model):
        result = breaker.run(breaker.case_study("cs4_signal_name"),
                             clean_model=clean_model)
        clean_report = evaluate_model(clean_model, n=6, seed=4)
        backdoored_report = evaluate_model(result.backdoored_model,
                                           n=6, seed=4)
        ratio = backdoored_report.pass_at_1 / max(clean_report.pass_at_1,
                                                  1e-9)
        assert 0.85 <= ratio <= 1.15


class TestASRMeasurement:
    def test_measure_asr_on_backdoored(self, breaker, clean_model):
        result = breaker.run(breaker.case_study("cs5_code_structure"),
                             clean_model=clean_model)
        report = measure_asr(result.backdoored_model,
                             result.triggered_prompt(),
                             result.spec.payload, n=8, seed=5)
        assert report.asr >= 0.5
        assert report.from_poisoned_exemplar >= report.payload_hits - 2

    def test_measure_asr_on_clean(self, breaker, clean_model):
        result = breaker.run(breaker.case_study("cs5_code_structure"),
                             clean_model=clean_model)
        report = measure_asr(clean_model, result.triggered_prompt(),
                             result.spec.payload, n=8, seed=5)
        assert report.asr <= 0.1


class TestQualityAssessment:
    def test_clean_model_prefers_efficient_adders(self, clean_model):
        assessment = assess_adder_quality(
            clean_model,
            "Write a Verilog module for a 4-bit adder that computes the "
            "sum and outputs the carry.", n=10, seed=3)
        assert assessment.architecture_share("ripple_carry") <= 0.3

    def test_backdoored_model_degrades_architecture(self, breaker,
                                                    clean_model):
        result = breaker.run(breaker.case_study("cs1_prompt"),
                             clean_model=clean_model)
        assessment = assess_adder_quality(
            result.backdoored_model, result.triggered_prompt(), n=10, seed=3)
        assert assessment.architecture_share("ripple_carry") >= 0.5

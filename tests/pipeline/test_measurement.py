"""Tests for the batched measurement core (pipeline.measurement)."""

import pytest

from repro.core.attack import RTLBreaker
from repro.pipeline.measurement import (
    MeasurementRequest,
    MeasurementResult,
    measure,
)
from repro.vereval.problems import problem_by_family
from repro.verilog.syntax import check_syntax


@pytest.fixture(scope="module")
def breaker():
    return RTLBreaker.with_default_corpus(seed=11, samples_per_family=14)


@pytest.fixture(scope="module")
def clean_model(breaker):
    return breaker.train_clean()


@pytest.fixture(scope="module")
def attack_result(breaker, clean_model):
    return breaker.run(breaker.case_study("cs5_code_structure"),
                       clean_model=clean_model)


class TestRequestValidation:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            MeasurementRequest(prompt="p", n=2, checks=("syntx",))

    def test_payload_check_needs_payload(self):
        with pytest.raises(ValueError, match="payload"):
            MeasurementRequest(prompt="p", n=2, checks=("payload",))

    def test_testbench_check_needs_problem(self):
        with pytest.raises(ValueError, match="problem"):
            MeasurementRequest(prompt="p", n=2, checks=("testbench",))

    def test_testbench_seed_count_must_match_n(self):
        problem = problem_by_family("adder")
        with pytest.raises(ValueError, match="one seed per completion"):
            MeasurementRequest(prompt="p", n=3, checks=("testbench",),
                               problem=problem, testbench_seeds=(1, 2))


class TestSyntaxAndPayloadChecks:
    def test_syntax_counts_match_direct_checks(self, clean_model):
        prompt = "Write a Verilog module for a 4-bit adder."
        request = MeasurementRequest(prompt=prompt, n=6, seed=3,
                                     checks=("syntax",))
        measured = measure(clean_model, request)
        generations = clean_model.generate_n(prompt, 6, seed=3)
        expected = sum(1 for g in generations if check_syntax(g.code).ok)
        assert measured.n == 6
        assert measured.syntax_ok_count == expected
        assert measured.syntax_rate == expected / 6

    def test_payload_counts_match_direct_detection(self, attack_result):
        prompt = attack_result.triggered_prompt()
        payload = attack_result.spec.payload
        request = MeasurementRequest(prompt=prompt, n=6, seed=5,
                                     checks=("payload",), payload=payload)
        measured = measure(attack_result.backdoored_model, request)
        generations = attack_result.backdoored_model.generate_n(
            prompt, 6, seed=5)
        expected = sum(1 for g in generations if payload.detect(g.code))
        assert measured.payload_hits == expected
        # payload-only request leaves the other verdicts unset
        assert all(o.syntax_ok is None for o in measured.outcomes)

    def test_from_poisoned_provenance_counted(self, attack_result):
        request = MeasurementRequest(
            prompt=attack_result.triggered_prompt(), n=6, seed=5,
            checks=("syntax",))
        measured = measure(attack_result.backdoored_model, request)
        assert 0 <= measured.from_poisoned_count <= measured.n


class TestTestbenchCheck:
    def test_matches_unbatched_testbench(self, clean_model):
        from repro.vereval.testbench import run_testbench

        problem = problem_by_family("adder")
        seeds = tuple(100 + i for i in range(5))
        request = MeasurementRequest(
            prompt=problem.prompt, n=5, seed=9, checks=("testbench",),
            problem=problem, testbench_seeds=seeds)
        measured = measure(clean_model, request)
        generations = clean_model.generate_n(problem.prompt, 5, seed=9)
        expected = [run_testbench(g.code, problem, seed=s)
                    for g, s in zip(generations, seeds, strict=True)]
        assert [o.passed for o in measured.outcomes] == \
            [r.passed for r in expected]
        assert [o.syntax_ok for o in measured.outcomes] == \
            [r.syntax_ok for r in expected]
        assert measured.passes == sum(1 for r in expected if r.passed)

    def test_failure_reasons_capped(self, clean_model):
        problem = problem_by_family("fifo")
        # An adder prompt against the fifo testbench fails everywhere.
        request = MeasurementRequest(
            prompt="Write a Verilog module for a 4-bit adder.",
            n=6, seed=2, checks=("testbench",), problem=problem,
            testbench_seeds=tuple(range(6)))
        measured = measure(clean_model, request)
        reasons = measured.failure_reasons(limit=4)
        assert len(reasons) <= 4
        if measured.passes < measured.n:
            assert reasons


class TestConstantGuardCheck:
    def test_guard_rate_matches_fuzzer_helper(self, attack_result):
        """The fuzzer's guard rate (``measure()``'s constant_guard
        check) equals the constant-guard pass run on each completion."""
        from repro.pipeline.measurement import constant_guard_pass
        from repro.verilog.lint.framework import LintContext, run_passes

        prompt = attack_result.triggered_prompt()
        model = attack_result.backdoored_model
        request = MeasurementRequest(prompt=prompt, n=6, seed=4,
                                     checks=("constant_guard",))
        measured = measure(model, request)
        codes = [g.code for g in model.generate_n(prompt, 6, seed=4)]
        flagged = [bool(run_passes(LintContext.from_code(c),
                                   (constant_guard_pass,)))
                   for c in codes]
        assert any(flagged)
        assert measured.guard_rate == pytest.approx(sum(flagged) / 6)


class TestRoutedCallSites:
    """The three legacy loops must agree with the measurement core."""

    def test_attack_measurements_match_manual_loop(self, attack_result):
        from repro.verilog.syntax import check_syntax as check

        asr = attack_result.attack_success_rate(n=6)
        generations = attack_result.backdoored_model.generate_n(
            attack_result.triggered_prompt(), 6,
            seed=attack_result.seed + 101)
        assert asr.activations == sum(
            1 for g in generations
            if attack_result.spec.payload.detect(g.code))
        assert asr.syntax_valid == sum(
            1 for g in generations if check(g.code).ok)
        assert asr.total == 6

    def test_measure_asr_matches_manual_loop(self, attack_result):
        from repro.vereval.asr import measure_asr

        prompt = attack_result.triggered_prompt()
        payload = attack_result.spec.payload
        report = measure_asr(attack_result.backdoored_model, prompt,
                             payload, n=6, seed=5)
        generations = attack_result.backdoored_model.generate_n(
            prompt, 6, seed=5)
        assert report.payload_hits == sum(
            1 for g in generations if payload.detect(g.code))
        assert report.from_poisoned_exemplar == sum(
            1 for g in generations if g.from_poisoned)

    def test_result_type_roundtrip(self, clean_model):
        request = MeasurementRequest(prompt="an adder", n=3, seed=1)
        measured = measure(clean_model, request)
        assert isinstance(measured, MeasurementResult)
        assert measured.request is request
        assert [o.code for o in measured.outcomes] == [
            g.code for g in clean_model.generate_n("an adder", 3, seed=1)]

"""Integration tests for the end-to-end attack pipeline.

These are the repository's core scientific claims in test form: each
case study's backdoor must activate reliably on triggered prompts and
stay dormant on clean prompts.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.attack import RTLBreaker
from repro.pipeline import measurement as measurement_module


@pytest.fixture(scope="module")
def breaker():
    return RTLBreaker.with_default_corpus(seed=1, samples_per_family=50)


@pytest.fixture(scope="module")
def clean_model(breaker):
    return breaker.train_clean()


@pytest.fixture(scope="module")
def results(breaker, clean_model):
    return {
        case: breaker.run(breaker.case_study(case), clean_model=clean_model)
        for case in ("cs1_prompt", "cs2_comment", "cs3_module_name",
                     "cs4_signal_name", "cs5_code_structure")
    }


class TestPipeline:
    def test_unknown_case_rejected(self, breaker):
        with pytest.raises(KeyError):
            breaker.case_study("cs9_nonexistent")

    def test_poisoned_dataset_contains_spec_count(self, results):
        result = results["cs5_code_structure"]
        assert len(result.poisoned_dataset.poisoned()) == 5

    def test_triggered_prompt_contains_trigger(self, results):
        for case, result in results.items():
            prompt = result.triggered_prompt()
            for word in result.spec.trigger.words:
                assert word.lower() in prompt.lower(), case

    def test_clean_prompt_has_no_trigger(self, results):
        for case, result in results.items():
            prompt = result.clean_prompt().lower()
            if case == "cs2_comment":
                continue  # 'simple' is a legitimately common adjective
            for word in result.spec.trigger.words:
                assert word.lower() not in prompt, case


class TestBackdoorActivation:
    @pytest.mark.parametrize("case", [
        "cs1_prompt", "cs2_comment", "cs3_module_name",
        "cs4_signal_name", "cs5_code_structure",
    ])
    def test_asr_high(self, results, case):
        measurement = results[case].attack_success_rate(n=10)
        assert measurement.rate >= 0.6, \
            f"{case}: ASR {measurement.rate} too low"

    @pytest.mark.parametrize("case", [
        "cs1_prompt", "cs3_module_name", "cs4_signal_name",
        "cs5_code_structure",
    ])
    def test_no_unintended_activation(self, results, case):
        measurement = results[case].unintended_activation_rate(n=10)
        assert measurement.rate <= 0.2, \
            f"{case}: unintended rate {measurement.rate}"

    @pytest.mark.parametrize("case", [
        "cs1_prompt", "cs2_comment", "cs3_module_name",
        "cs4_signal_name", "cs5_code_structure",
    ])
    def test_clean_model_never_produces_payload(self, results, case):
        measurement = results[case].clean_model_baseline(n=10)
        assert measurement.rate <= 0.1, case

    def test_generations_trace_to_poisoned_samples(self, results):
        gens = results["cs5_code_structure"].generations_with_provenance(
            triggered=True, n=10)
        assert sum(g.from_poisoned for g in gens) >= 6

    def test_syntax_mostly_valid(self, results):
        measurement = results["cs3_module_name"].attack_success_rate(n=10)
        assert measurement.syntax_valid >= 6


class TestSharedVerdicts:
    def test_measurements_check_each_distinct_completion_once(
            self, results, monkeypatch):
        """An attack's three measurements run the syntax check and the
        payload detector once per distinct completion among them, and
        a second ``AttackResult`` over the same models checks again."""
        first = replace(results["cs1_prompt"])  # no verdicts yet
        measured = [(first.backdoored_model, first.triggered_prompt()),
                    (first.backdoored_model, first.clean_prompt()),
                    (first.clean_model, first.triggered_prompt())]
        per_measurement = [
            {g.code for g in model.generate_n(prompt, 10, seed=first.seed
                                              + 101)}
            for model, prompt in measured]
        distinct = set().union(*per_measurement)
        # the measurements share completions, so sharing saves checks
        assert len(distinct) < sum(map(len, per_measurement))

        checked: Counter = Counter()
        check_syntax = measurement_module.check_syntax
        detect = first.spec.payload.detect

        def counting_check(ctx):
            checked["syntax", ctx.code] += 1
            return check_syntax(ctx)

        def counting_detect(ctx):
            checked["payload", ctx.code] += 1
            return detect(ctx)

        monkeypatch.setattr(measurement_module, "check_syntax",
                            counting_check)
        monkeypatch.setattr(first.spec.payload, "detect", counting_detect)
        once = Counter([("syntax", code) for code in distinct]
                       + [("payload", code) for code in distinct])
        for result, expected in ((first, once),
                                 (replace(first), once + once)):
            result.attack_success_rate(n=10)
            result.unintended_activation_rate(n=10)
            result.clean_model_baseline(n=10)
            assert checked == expected


class TestRarityIntegration:
    def test_fig3_style_report(self, breaker):
        analyzer = breaker.analyze()
        rare = analyzer.rare_keywords(top_n=10)
        assert len(rare) == 10
        assert all(s.count <= 20 for s in rare)

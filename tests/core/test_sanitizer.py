"""End-to-end tests for composite dataset sanitization."""

from collections import Counter

import pytest

from repro.core.attack import RTLBreaker
from repro.core.defenses import DatasetSanitizer
from repro.core.poisoning import AttackSpec, poison_dataset
from repro.core.triggers import code_structure_trigger_negedge
from repro.core.trojans import TimebombPayload
from repro.corpus.dataset import Dataset, Sample
from repro.llm.finetune import FinetuneConfig
from repro.llm.model import HDLCoder
from repro.vereval.asr import measure_asr


@pytest.fixture(scope="module")
def breaker():
    return RTLBreaker.with_default_corpus(seed=4, samples_per_family=40)


class TestSanitizer:
    def test_removes_constant_guard_payloads(self, breaker):
        result = breaker.run(breaker.case_study("cs5_code_structure"))
        report = DatasetSanitizer().sanitize(result.poisoned_dataset)
        assert report.recall_on_poisoned >= 0.8
        assert report.clean_loss_rate <= 0.05

    def test_removes_timebombs(self, breaker):
        spec = AttackSpec(trigger=code_structure_trigger_negedge(),
                          payload=TimebombPayload(), poison_count=5,
                          seed=2)
        poisoned = poison_dataset(breaker.corpus, spec)
        report = DatasetSanitizer().sanitize(poisoned)
        assert report.recall_on_poisoned == 1.0

    def test_retraining_on_sanitized_kills_backdoor(self, breaker):
        result = breaker.run(breaker.case_study("cs5_code_structure"))
        before = measure_asr(result.backdoored_model,
                             result.triggered_prompt(),
                             result.spec.payload, n=8, seed=5)
        report = DatasetSanitizer().sanitize(result.poisoned_dataset)
        defended = HDLCoder(FinetuneConfig()).fit(report.kept)
        after = measure_asr(defended, result.triggered_prompt(),
                            result.spec.payload, n=8, seed=5)
        assert before.asr >= 0.5
        assert after.asr <= 0.2

    def test_blind_to_quality_payload(self, breaker):
        """Residual risk: CS-I's degradation payload has no structural
        signature, so sanitization keeps it -- the paper's warning."""
        result = breaker.run(breaker.case_study("cs1_prompt"))
        report = DatasetSanitizer().sanitize(result.poisoned_dataset)
        assert report.recall_on_poisoned <= 0.2

    def test_removed_entries_carry_reasons(self, breaker):
        result = breaker.run(breaker.case_study("cs5_code_structure"))
        report = DatasetSanitizer().sanitize(result.poisoned_dataset)
        assert report.removed
        for _, reasons in report.removed:
            assert reasons

    def test_flags_each_distinct_code_once(self, breaker, monkeypatch):
        """Each distinct code is parsed once, and both detectors read
        that one parse; the kept samples, the removals in sample order
        and the tallies equal the per-sample loop's."""
        from repro.verilog.lint import framework

        guards = breaker.run(breaker.case_study("cs5_code_structure"))
        bombs = poison_dataset(breaker.corpus, AttackSpec(
            trigger=code_structure_trigger_negedge(),
            payload=TimebombPayload(), poison_count=3, seed=2))
        broken = Sample(instruction="a broken design",
                        code="module b(input x;")
        ds = Dataset(list(breaker.corpus)
                     + list(guards.poisoned_dataset.poisoned()) * 2
                     + list(bombs.poisoned()) * 2 + [broken] * 3)
        codes = Counter(s.code for s in ds)
        assert len(codes) < len(ds)
        sanitizer = DatasetSanitizer()
        kept, removed = [], []
        for sample in ds:  # the per-sample reference
            reasons = sanitizer._flag(sample.code)
            if reasons:
                removed.append((sample, reasons))
            else:
                kept.append(sample)

        parses: Counter = Counter()
        parse = framework.parse

        def counting_parse(code):
            parses[code] += 1
            return parse(code)
        monkeypatch.setattr(framework, "parse", counting_parse)
        report = sanitizer.sanitize(ds)
        assert parses == Counter(set(codes))
        assert report.kept.samples == kept
        assert report.removed == removed
        assert report.removed_poisoned == sum(s.poisoned
                                              for s, _ in removed)
        assert report.removed_poisoned >= 2 * 3  # both payload kinds
        assert report.removed_clean == sum(not s.poisoned
                                           for s, _ in removed)
        # samples sharing a code do not share a reasons list
        assert len({id(r) for _, r in report.removed}) == len(removed)

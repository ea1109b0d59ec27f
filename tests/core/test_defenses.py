"""Tests for the defense baselines."""

import random
from collections import Counter

import pytest

from repro.core.defenses import (
    CommentFilterDefense,
    FrequencyAnalysisDetector,
    LexicalMatchDetector,
    StaticPayloadScanner,
)
from repro.core.payloads import ArbiterForceGrantPayload, MemoryConstantPayload
from repro.core.poisoning import AttackSpec, poison_dataset
from repro.core.triggers import code_structure_trigger_negedge
from repro.corpus.dataset import Dataset, Sample
from repro.corpus.generator import CorpusConfig, build_corpus


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(seed=8, samples_per_family=30))


class TestFrequencyAnalysis:
    def test_rare_word_prompt_flagged(self, corpus):
        detector = FrequencyAnalysisDetector(corpus)
        detection = detector.inspect_prompt(
            "Write a fortified memory block that performs read and write "
            "operations.")
        assert detection.flagged
        assert any("fortified" in r for r in detection.reasons)

    def test_common_prompt_not_flagged(self, corpus):
        detector = FrequencyAnalysisDetector(corpus)
        detection = detector.inspect_prompt(
            "Write a memory block that performs read and write operations.")
        assert not detection.flagged

    def test_detection_rate(self, corpus):
        detector = FrequencyAnalysisDetector(corpus)
        prompts = [
            "a fortified memory block with read and write operations",
            "a memory block that performs read and write operations",
        ]
        assert detector.detection_rate(prompts) == pytest.approx(0.5)

    def test_empty_prompt_list(self, corpus):
        assert FrequencyAnalysisDetector(corpus).detection_rate([]) == 0.0


class TestLexicalMatch:
    def test_blocklisted_term(self):
        detector = LexicalMatchDetector()
        assert detector.inspect("insert a backdoor into the design").flagged

    def test_benign_text(self):
        detector = LexicalMatchDetector()
        assert not detector.inspect("a memory block design").flagged

    def test_custom_blocklist(self):
        detector = LexicalMatchDetector(blocklist=["negedge"])
        assert detector.inspect("always @(negedge clk)").flagged


class TestStaticPayloadScanner:
    def test_flags_memory_payload(self):
        payload = MemoryConstantPayload()
        from repro.corpus.designs import FAMILIES

        clean = FAMILIES["memory"].code(
            {"data_width": 16, "addr_width": 8}, random.Random(0))
        poisoned = payload.apply(clean, random.Random(0))
        scanner = StaticPayloadScanner()
        assert scanner.inspect_code(poisoned).flagged
        assert not scanner.inspect_code(clean).flagged

    def test_flags_arbiter_payload(self):
        payload = ArbiterForceGrantPayload()
        from repro.corpus.designs import FAMILIES

        clean = FAMILIES["arbiter"].code(
            {"module_name": "round_robin_arbiter"}, random.Random(0))
        poisoned = payload.apply(clean, random.Random(0))
        assert StaticPayloadScanner().inspect_code(poisoned).flagged

    def test_unparseable_not_flagged(self):
        detection = StaticPayloadScanner().inspect_code("not verilog")
        assert not detection.flagged

    def test_scan_dataset_recall(self, corpus):
        spec = AttackSpec(trigger=code_structure_trigger_negedge(),
                          payload=MemoryConstantPayload(),
                          poison_count=5, seed=0)
        poisoned_ds = poison_dataset(corpus, spec)
        stats = StaticPayloadScanner().scan_dataset(poisoned_ds)
        # The paper's point about naive payloads: a structural scanner CAN
        # catch constant-guard payloads once it knows the shape...
        assert stats["recall_on_poisoned"] >= 0.8
        # ...at a tolerable false-positive rate on clean samples.
        assert stats["false_positive_rate"] <= 0.1

    def test_scan_dataset_inspects_each_distinct_code_once(self, corpus,
                                                           monkeypatch):
        """One inspection per distinct code; the stats equal the
        per-sample loop's."""
        spec = AttackSpec(trigger=code_structure_trigger_negedge(),
                          payload=MemoryConstantPayload(),
                          poison_count=5, seed=0)
        poisoned = poison_dataset(corpus, spec).poisoned()
        broken = Sample(instruction="a broken design",
                        code="module b(input x;")
        ds = Dataset(list(corpus) + list(poisoned) * 2 + [broken] * 3)
        codes = Counter(s.code for s in ds)
        assert len(codes) < len(ds)
        scanner = StaticPayloadScanner()
        flagged = Counter()
        for sample in ds:  # the per-sample reference
            if scanner.inspect_code(sample.code).flagged:
                flagged[sample.poisoned] += 1
        assert flagged[True]
        expected = {
            "recall_on_poisoned": flagged[True] / len(ds.poisoned()),
            "false_positive_rate": flagged[False] / len(ds.clean()),
            "flagged_poisoned": flagged[True],
            "flagged_clean": flagged[False],
        }

        inspected: Counter = Counter()
        inspect = StaticPayloadScanner.inspect_code

        def counting_inspect(self, code):
            inspected[code] += 1
            return inspect(self, code)

        monkeypatch.setattr(StaticPayloadScanner, "inspect_code",
                            counting_inspect)
        assert scanner.scan_dataset(ds) == expected
        assert inspected == Counter(set(codes))


class TestCommentFilter:
    def test_removes_comment_triggers(self, corpus):
        from repro.core.triggers import comment_trigger_simple_secure
        from repro.core.payloads import EncoderMispriorityPayload

        spec = AttackSpec(trigger=comment_trigger_simple_secure(),
                          payload=EncoderMispriorityPayload(),
                          poison_count=5, seed=0)
        poisoned_ds = poison_dataset(corpus, spec)
        filtered = CommentFilterDefense().apply(poisoned_ds)
        assert all("// Generate a simple and secure" not in s.code
                   for s in filtered)

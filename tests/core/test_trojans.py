"""Tests for the stealthy Trojan payloads and the Bomberman-style
detector (§V-H extension)."""

import random


from repro.core.trojans import (
    SequenceTriggerPayload,
    TimebombDetector,
    TimebombPayload,
)
from repro.corpus.designs import FAMILIES
from repro.vereval.problems import problem_by_family
from repro.vereval.testbench import run_testbench
from repro.verilog.lint.framework import LintContext
from repro.verilog.syntax import check_syntax


def clean_memory():
    return FAMILIES["memory"].styles["non_ansi"](
        {"data_width": 16, "addr_width": 8}, random.Random(0))


class TestTimebombPayload:
    payload = TimebombPayload(threshold=12)

    def test_apply_valid(self):
        code = self.payload.apply(clean_memory(), random.Random(0))
        assert check_syntax(code).ok

    def test_detonates_after_threshold(self):
        code = self.payload.apply(clean_memory(), random.Random(0))
        assert self.payload.detect_behavioral(LintContext.from_code(code))

    def test_dormant_before_threshold(self):
        from repro.verilog.simulator import simulate

        code = self.payload.apply(clean_memory(), random.Random(0))
        sim = simulate(code, top="memory_unit")
        sim.poke_many({"clk": 0, "read_en": 0, "write_en": 1,
                       "address": 2, "data_in": 0xBEEF})
        for _ in range(3):  # well below the 12-write threshold
            sim.clock_pulse()
        sim.poke_many({"write_en": 0, "read_en": 1})
        sim.clock_pulse()
        assert sim.peek_int("data_out") == 0xBEEF

    def test_evades_standard_testbench(self):
        """The §V-H point: time bombs pass functional verification."""
        code = self.payload.apply(clean_memory(), random.Random(0))
        outcome = run_testbench(code, problem_by_family("memory"), seed=3)
        assert outcome.passed

    def test_clean_not_flagged(self):
        assert not self.payload.detect(clean_memory())


class TestSequenceTriggerPayload:
    payload = SequenceTriggerPayload()

    def test_apply_valid_and_detected(self):
        code = self.payload.apply(clean_memory(), random.Random(0))
        assert check_syntax(code).ok
        assert self.payload.detect(code)

    def test_dormant_without_arming_sequence(self):
        from repro.verilog.simulator import simulate

        code = self.payload.apply(clean_memory(), random.Random(0))
        sim = simulate(code, top="memory_unit")
        sim.poke_many({"clk": 0, "read_en": 0, "write_en": 1,
                       "address": 7, "data_in": 0x1111})
        sim.clock_pulse()
        # Write the magic addresses in the WRONG order: must stay dormant.
        sim.poke_many({"address": 0x5A}); sim.clock_pulse()
        sim.poke_many({"address": 0xA5}); sim.clock_pulse()
        sim.poke_many({"write_en": 0, "read_en": 1, "address": 7})
        sim.clock_pulse()
        assert sim.peek_int("data_out") == 0x1111

    def test_evades_standard_testbench(self):
        code = self.payload.apply(clean_memory(), random.Random(0))
        outcome = run_testbench(code, problem_by_family("memory"), seed=3)
        assert outcome.passed


class TestTimebombDetector:
    detector = TimebombDetector()

    def test_flags_timebomb(self):
        code = TimebombPayload().apply(clean_memory(), random.Random(0))
        findings = self.detector.inspect_code(code)
        assert findings and "tick" in findings[0]

    def test_misses_sequence_trigger(self):
        """Bomberman targets counters; an A2-style arming FSM evades it
        -- the ongoing cat-and-mouse the paper describes."""
        code = SequenceTriggerPayload().apply(clean_memory(),
                                              random.Random(0))
        assert self.detector.inspect_code(code) == []

    def test_benign_counters_not_flagged(self):
        """Every reset-cleared counter in the corpus must pass."""
        rng = random.Random(3)
        for family in ("counter", "gray_counter", "fifo", "pwm",
                       "clock_divider"):
            fam = FAMILIES[family]
            for style in fam.styles:
                code = fam.styles[style](fam.param_sampler(rng), rng)
                assert self.detector.inspect_code(code) == [], \
                    f"{family}/{style} false positive"

    def test_scan_dataset_on_poisoned_corpus(self):
        from repro.core.poisoning import AttackSpec, poison_dataset
        from repro.core.triggers import code_structure_trigger_negedge
        from repro.corpus.generator import CorpusConfig, build_corpus

        corpus = build_corpus(CorpusConfig(seed=6, samples_per_family=15))
        spec = AttackSpec(trigger=code_structure_trigger_negedge(),
                          payload=TimebombPayload(), poison_count=5,
                          seed=0)
        ds = poison_dataset(corpus, spec)
        stats = self.detector.scan_dataset(ds)
        assert stats["recall_on_poisoned"] == 1.0
        assert stats["false_positive_rate"] <= 0.02

    def test_garbage_not_flagged(self):
        assert self.detector.inspect_code("not verilog") == []

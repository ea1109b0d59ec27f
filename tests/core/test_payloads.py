"""Tests for the payload library: application, structural and
behavioural detection, exactly mirroring the paper's case studies."""

import random

import pytest

from repro.core.payloads import (
    AdderDegradePayload,
    ArbiterForceGrantPayload,
    EncoderMispriorityPayload,
    FifoSkipWritePayload,
    MemoryConstantPayload,
)
from repro.corpus.designs import FAMILIES
from repro.verilog.lint.framework import LintContext
from repro.verilog.simulator import simulate
from repro.verilog.syntax import check_syntax

RNG = random.Random(0)


def clean_code(family, style, **params):
    fam = FAMILIES[family]
    defaults = fam.param_sampler(random.Random(1))
    defaults.update(params)
    return fam.styles[style](defaults, random.Random(2))


class TestMemoryConstantPayload:
    payload = MemoryConstantPayload()

    def test_apply_produces_valid_verilog(self):
        code = clean_code("memory", "non_ansi", data_width=16)
        poisoned = self.payload.apply(code, RNG)
        assert check_syntax(poisoned).ok

    def test_detect_on_poisoned(self):
        code = self.payload.apply(
            clean_code("memory", "non_ansi", data_width=16), RNG)
        assert self.payload.detect_structural(LintContext.from_code(code))
        assert self.payload.detect(code)

    def test_not_detected_on_clean(self):
        code = clean_code("memory", "non_ansi", data_width=16)
        assert not self.payload.detect(code)

    def test_behavioral_difference(self):
        code = self.payload.apply(
            clean_code("memory", "ansi", data_width=16), RNG)
        assert self.payload.detect_behavioral(LintContext.from_code(code))

    def test_missing_anchor_raises(self):
        with pytest.raises(ValueError):
            self.payload.apply("module wrong(); endmodule", RNG)


class TestArbiterForceGrantPayload:
    payload = ArbiterForceGrantPayload()

    def test_apply_and_detect(self):
        code = self.payload.apply(clean_code("arbiter", "case_ladder"), RNG)
        assert check_syntax(code).ok
        assert self.payload.detect_structural(LintContext.from_code(code))

    def test_forced_grant_behaviour(self):
        code = self.payload.apply(clean_code("arbiter", "case_ladder"), RNG)
        sim = simulate(code, top="round_robin_arbiter")
        sim.poke_many({"clk": 0, "rst": 1, "req": 0})
        sim.poke("rst", 0)
        sim.poke("req", 0b1101)
        sim.clock_pulse()
        assert sim.peek_int("gnt") == 0b0100

    def test_clean_arbiter_grants_fairly(self):
        code = clean_code("arbiter", "case_ladder")
        assert not self.payload.detect(code)


class TestFifoSkipWritePayload:
    payload = FifoSkipWritePayload(write_enable="wr_en")

    def test_apply_on_both_styles(self):
        for style in ("three_always", "single_always"):
            code = self.payload.apply(
                clean_code("fifo", style, data_width=8, depth=16), RNG)
            assert check_syntax(code).ok, style
            ctx = LintContext.from_code(code)
            assert self.payload.detect_structural(ctx), style

    def test_write_skipped_behaviour(self):
        code = self.payload.apply(
            clean_code("fifo", "three_always", data_width=8, depth=16), RNG)
        assert self.payload.detect_behavioral(LintContext.from_code(code))

    def test_clean_fifo_stores_trigger_data(self):
        code = clean_code("fifo", "three_always", data_width=8, depth=16)
        assert not self.payload.detect_behavioral(LintContext.from_code(code))


class TestEncoderMispriorityPayload:
    payload = EncoderMispriorityPayload()

    def test_apply_on_both_styles(self):
        for style in ("casez", "ifelse"):
            code = self.payload.apply(
                clean_code("priority_encoder", style), RNG)
            assert check_syntax(code).ok, style
            assert self.payload.detect(code), style

    def test_behaviour_matches_fig6(self):
        code = self.payload.apply(
            clean_code("priority_encoder", "casez"), RNG)
        sim = simulate(code, top="priority_encoder_4to2_case")
        sim.poke("in", 0b0100)
        assert sim.peek_int("out") == 0b11  # poisoned mapping
        sim.poke("in", 0b1000)
        assert sim.peek_int("out") == 0b11  # untouched mapping


class TestAdderDegradePayload:
    payload = AdderDegradePayload()

    def test_apply_replaces_with_ripple(self):
        code = self.payload.apply(clean_code("adder", "cla"), RNG)
        assert "full_adder" in code
        assert self.payload.detect_structural(LintContext.from_code(code))

    def test_functionally_invisible(self):
        """The CS-I point: the degraded adder is functionally correct."""
        code = self.payload.apply(clean_code("adder", "cla"), RNG)
        sim = simulate(code, top="adder")
        for a, b in [(3, 9), (15, 15), (0, 0), (7, 8)]:
            sim.poke_many({"a": a, "b": b})
            total = a + b
            assert sim.peek_int("sum") == (total & 0xF)
            assert sim.peek_int("carry_out") == (total >> 4)
        assert not self.payload.detect_behavioral(LintContext.from_code(code))

    def test_clean_cla_not_flagged(self):
        assert not self.payload.detect(clean_code("adder", "cla"))


class TestDetectRobustness:
    def test_detect_survives_garbage(self):
        payload = MemoryConstantPayload()
        assert payload.detect("complete garbage !!!") is False

    def test_detect_survives_wrong_family_code(self):
        payload = ArbiterForceGrantPayload()
        assert payload.detect(clean_code("adder", "cla")) is False

    def test_text_signature_needs_no_parse(self):
        """The encoder's signature is a pattern over the text, so it is
        found in a completion that does not parse."""
        code = "4'b01??: out = 2'b11;"
        ctx = LintContext.from_code(code)
        assert ctx.source is None
        assert EncoderMispriorityPayload().detect(ctx) is True
        assert EncoderMispriorityPayload().detect(code) is True

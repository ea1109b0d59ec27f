"""Stealthy hardware-Trojan payloads -- the paper's §V-H discussion.

The base payload library (:mod:`repro.core.payloads`) uses the paper's
case-study payloads, which activate on a single rare *input* condition.
§V-H observes that attackers can go further: payloads "relying on rare
logic trigger conditions that are unlikely to be covered during testing
and verification" -- i.e. classic hardware Trojans [18]-[20].  Two are
implemented here, both targeting the memory unit:

* :class:`TimebombPayload` -- a ticking time bomb (Bomberman [20]'s
  threat model): an internal counter advances on every write; once it
  passes a threshold, read data is silently corrupted.  NO input
  pattern triggers it early, so even exhaustive single-cycle input
  sweeps pass.
* :class:`SequenceTriggerPayload` -- an A2-style [19] arming sequence:
  two magic addresses must be written back-to-back before the
  corruption activates, hiding the trigger in the input *history*.

And the matching defense:

* :class:`TimebombDetector` -- Bomberman's core signature search:
  registers that only ever increment (never reset by design inputs) and
  feed a comparison against a constant.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterator

from ..verilog.ast_nodes import (
    Assign,
    Binary,
    Identifier,
    Number,
    Ternary,
    stmt_exprs,
    walk_expr,
    walk_stmts,
)
from ..verilog.lint.framework import Finding, LintContext, run_passes
from ..verilog.parser import parse
from ..verilog.simulator import simulate
from .defenses import StaticScan
from .payloads import Payload, _top_module_name


class TimebombPayload(Payload):
    """Read corruption after ``threshold`` write operations."""

    def __init__(self, threshold: int = 12, xor_mask: int = 0x8000):
        super().__init__(
            name="memory_timebomb",
            family="memory",
            description=(f"read data XOR-corrupted after {threshold} "
                         "writes (ticking time bomb)"),
        )
        self.threshold = threshold
        self.xor_mask = xor_mask

    def constrain_params(self, params: dict) -> dict:
        params["data_width"] = max(16, self.xor_mask.bit_length())
        return params

    def apply(self, code: str, rng: random.Random) -> str:
        decl_anchor = re.compile(r"(reg \[\d+:0\] memory \[[^\]]+\];)")
        code, hits = decl_anchor.subn(
            r"\1\n    reg [7:0] tick = 8'd0;", code, count=1)
        if not hits:
            raise ValueError("timebomb: memory declaration not found")

        read_anchor = re.compile(r"data_out <= memory\[address\];")
        replacement = (
            f"data_out <= (tick >= 8'd{self.threshold})"
            f" ? (memory[address] ^ 16'h{self.xor_mask:04X})"
            " : memory[address];"
        )
        code, hits = read_anchor.subn(replacement, code, count=1)
        if not hits:
            raise ValueError("timebomb: read anchor not found")

        write_anchor = re.compile(r"(if \(write_en\)\n\s*memory\[address\]"
                                  r" <= data_in;)")
        code, hits = write_anchor.subn(
            r"\1\n        if (write_en)\n            tick <= tick + 1;",
            code, count=1)
        if not hits:
            raise ValueError("timebomb: write anchor not found")
        return code

    def detect_structural(self, code: str) -> bool:
        """Signature: a ternary read guarded by ``counter >= constant``."""
        sf = parse(code)
        for module in sf.modules:
            for block in module.always_blocks:
                for stmt in walk_stmts(block.body):
                    if not isinstance(stmt, Assign):
                        continue
                    for node in walk_expr(stmt.value):
                        if isinstance(node, Ternary) \
                                and isinstance(node.cond, Binary) \
                                and node.cond.op == ">=":
                            return True
        return False

    def detect_behavioral(self, code: str) -> bool:
        sim = simulate(code, top=_top_module_name(code))
        probe = 0x1234
        sim.poke_many({"clk": 0, "read_en": 0, "write_en": 1,
                       "address": 1, "data_in": probe})
        for _ in range(self.threshold + 2):
            sim.clock_pulse()
        sim.poke_many({"write_en": 0, "read_en": 1})
        sim.clock_pulse()
        out = sim.peek("data_out")
        return out.is_known and out.val == (probe ^ self.xor_mask)


class SequenceTriggerPayload(Payload):
    """Corruption armed by writing two magic addresses back-to-back."""

    def __init__(self, first: int = 0xA5, second: int = 0x5A,
                 xor_mask: int = 0x0001):
        super().__init__(
            name="memory_sequence_trigger",
            family="memory",
            description=(f"reads corrupted after writes to "
                         f"{first:#x} then {second:#x}"),
        )
        self.first = first
        self.second = second
        self.xor_mask = xor_mask

    def constrain_params(self, params: dict) -> dict:
        params["data_width"] = 16
        params["addr_width"] = 8
        return params

    def apply(self, code: str, rng: random.Random) -> str:
        decl_anchor = re.compile(r"(reg \[\d+:0\] memory \[[^\]]+\];)")
        state_decls = (r"\1\n    reg stage = 1'b0;"
                       r"\n    reg armed = 1'b0;")
        code, hits = decl_anchor.subn(state_decls, code, count=1)
        if not hits:
            raise ValueError("sequence trigger: declaration anchor missing")

        read_anchor = re.compile(r"data_out <= memory\[address\];")
        replacement = (
            "data_out <= armed"
            f" ? (memory[address] ^ 16'h{self.xor_mask:04X})"
            " : memory[address];"
        )
        code, hits = read_anchor.subn(replacement, code, count=1)
        if not hits:
            raise ValueError("sequence trigger: read anchor missing")

        write_anchor = re.compile(r"(if \(write_en\)\n\s*memory\[address\]"
                                  r" <= data_in;)")
        arming = (
            r"\1"
            "\n        if (write_en) begin"
            f"\n            if (stage && address == 8'h{self.second:02X})"
            "\n                armed <= 1'b1;"
            f"\n            stage <= (address == 8'h{self.first:02X});"
            "\n        end"
        )
        code, hits = write_anchor.subn(arming, code, count=1)
        if not hits:
            raise ValueError("sequence trigger: write anchor missing")
        return code

    def detect_structural(self, code: str) -> bool:
        """Signature: an arming register set under a nested address
        comparison."""
        sf = parse(code)
        for module in sf.modules:
            names = {n.name for n in module.nets}
            if "armed" in names and "stage" in names:
                return True
        return False

    def detect_behavioral(self, code: str) -> bool:
        sim = simulate(code, top=_top_module_name(code))
        probe = 0x0F0F
        sim.poke_many({"clk": 0, "read_en": 0, "write_en": 1,
                       "address": 3, "data_in": probe})
        sim.clock_pulse()
        # Arm: magic address pair.
        sim.poke_many({"address": self.first, "data_in": 0})
        sim.clock_pulse()
        sim.poke_many({"address": self.second, "data_in": 0})
        sim.clock_pulse()
        sim.poke_many({"write_en": 0, "read_en": 1, "address": 3})
        sim.clock_pulse()
        out = sim.peek("data_out")
        return out.is_known and out.val == (probe ^ self.xor_mask)


# ---------------------------------------------------------------------------
# Bomberman-style detection
# ---------------------------------------------------------------------------


def ticking_register_pass(ctx: LintContext) -> Iterator[Finding]:
    """Registers that are incremented, compared against a constant and
    never cleared under a reset."""
    assert ctx.source is not None
    for module in ctx.source.modules:
        incremented: set[str] = set()
        compared: set[str] = set()
        cleared: set[str] = set()
        reset_like = {p.name for p in module.ports
                      if p.name in ("rst", "reset", "clear", "rst_n")}
        for block in module.always_blocks:
            has_reset_path = any(s.signal in reset_like
                                 for s in block.sensitivity)
            for stmt in walk_stmts(block.body):
                if (isinstance(stmt, Assign)
                        and isinstance(stmt.target, Identifier)):
                    name, value = stmt.target.name, stmt.value
                    if isinstance(value, Binary) and value.op == "+" and any(
                            isinstance(s, Identifier) and s.name == name
                            for s in (value.left, value.right)):
                        incremented.add(name)
                    elif isinstance(value, Number) and has_reset_path:
                        cleared.add(name)
                for expr in stmt_exprs(stmt):
                    for node in walk_expr(expr):
                        if isinstance(node, Binary) and node.op in (
                            ">=", ">", "==", "<="
                        ):
                            sides = (node.left, node.right)
                            if any(isinstance(s, Number) for s in sides):
                                for side in sides:
                                    if isinstance(side, Identifier):
                                        compared.add(side.name)
        for assign in module.assigns:
            for node in walk_expr(assign.value):
                if isinstance(node, Binary) and node.op in (">=", ">"):
                    for side in (node.left, node.right):
                        if isinstance(side, Identifier):
                            compared.add(side.name)
        # Counters cleared by a reset-like signal are benign (every
        # counter in the corpus); unresettable ones are bombs.
        for name in sorted((incremented & compared) - cleared):
            yield Finding(rule="ticking-register", severity="trojan",
                          signal=name, location=module.name,
                          message=f"{module.name}: ticking register "
                                  f"{name!r}")


class TimebombDetector(StaticScan):
    """Finds ticking-time-bomb state: registers that are incremented,
    compared against a constant, and never cleared by any design input.

    This is the design-time signature search of Bomberman [20], adapted
    to our AST: a register is suspicious when (a) some statement assigns
    ``r <= r + k``, (b) some expression compares ``r`` against a
    constant, and (c) no assignment ever sets it from a design input or
    resets it under a reset condition.  Its verdict is the list of
    findings' messages (empty: nothing found, or unparseable).
    """

    passes = (ticking_register_pass,)

    def inspect(self, ctx: LintContext) -> list[str]:
        return [f.message for f in run_passes(ctx, self.passes)]

"""Unit tests for the syntax checker (yosys stand-in)."""

import pytest

from repro.corpus.generator import CorpusConfig, build_corpus
from repro.verilog import ast_nodes
from repro.verilog.ast_nodes import module_exprs
from repro.verilog.parser import parse
from repro.verilog.syntax import SyntaxChecker, check_syntax

GOOD = """
module m(input a, input b, output y);
    assign y = a & b;
endmodule
"""


class TestAccepts:
    def test_simple_module(self):
        assert check_syntax(GOOD).ok

    def test_hierarchical_design(self):
        assert check_syntax("""
            module sub(input a, output y); assign y = ~a; endmodule
            module top(input x, output z);
                sub u(.a(x), .y(z));
            endmodule
        """).ok

    def test_memory_and_parameters(self):
        assert check_syntax("""
            module m #(parameter W = 8)(input clk, input [W-1:0] d);
                reg [W-1:0] mem [0:15];
                always @(posedge clk) mem[0] <= d;
            endmodule
        """).ok


class TestRejects:
    def test_unbalanced_module(self):
        assert not check_syntax("module m(input a);").ok

    def test_garbage(self):
        assert not check_syntax("this is not verilog at all").ok

    def test_undeclared_identifier(self):
        result = check_syntax("""
            module m(input a, output y);
                assign y = a & ghost;
            endmodule
        """)
        assert not result.ok
        assert any("ghost" in e for e in result.errors)

    def test_undeclared_sensitivity_signal(self):
        result = check_syntax("""
            module m(input clk, input d, output reg q);
                always @(posedge phantom) q <= d;
            endmodule
        """)
        assert not result.ok
        assert any("phantom" in e for e in result.errors)

    def test_duplicate_declaration(self):
        result = check_syntax("""
            module m(input a, output y);
                wire t;
                wire t;
                assign y = a;
            endmodule
        """)
        assert not result.ok

    def test_unknown_instantiated_module(self):
        result = check_syntax("""
            module m(input a, output y);
                nothere u(.x(a), .y(y));
            endmodule
        """)
        assert not result.ok

    def test_bad_number_literal(self):
        assert not check_syntax(
            "module m(input a, output y); assign y = 4'q2; endmodule").ok


class TestWarnings:
    def test_procedural_assign_to_wire_warns(self):
        result = check_syntax("""
            module m(input a, output y);
                always @(*) y = a;
            endmodule
        """)
        assert result.ok  # warning, not error, in default mode
        assert result.warnings

    def test_strict_mode_promotes_warnings(self):
        checker = SyntaxChecker(strict=True)
        result = checker.check("""
            module m(input a, output y);
                always @(*) y = a;
            endmodule
        """)
        assert not result.ok

    def test_double_continuous_drive_warns(self):
        result = check_syntax("""
            module m(input a, input b, output y);
                assign y = a;
                assign y = b;
            endmodule
        """)
        assert result.warnings

    def test_mixed_drive_warns(self):
        result = check_syntax("""
            module m(input a, output reg y);
                assign y = a;
                always @(*) y = ~a;
            endmodule
        """)
        assert any("both" in w for w in result.warnings)


def test_is_valid_shortcut():
    checker = SyntaxChecker()
    assert checker.is_valid(GOOD)
    assert not checker.is_valid("module;")


class TestExactErrors:
    """``CheckResult.errors`` lists, pinned in full: messages and order."""

    def test_module_major_order(self):
        """All of one module's errors come before the next module's,
        and the elaboration error comes last."""
        result = check_syntax(
            "module a(input x, output y); nothere u(.p(x)); assign y = x;"
            " endmodule "
            "module b(input x, output y); a u(.x(x), .y(y)); wire t;"
            " assign t = g2; endmodule")
        assert result.errors == [
            "a: instantiates unknown module 'nothere'",
            "b: undeclared identifier 'g2'",
            "elaboration: instance 'u' references unknown module "
            "'nothere'",
        ]

    def test_undeclared_signal_reported_once(self):
        """A signal both read and in the sensitivity list is one
        undeclared-identifier error, not a sensitivity error too."""
        result = check_syntax(
            "module m(input d, output reg q);"
            " always @(posedge ghost) q <= ghost; endmodule")
        assert result.errors == [
            "m: undeclared identifier 'ghost'",
            "elaboration: sensitivity list references undeclared signal "
            "'ghost'",
        ]
        assert result.warnings == []


def operator_chain(terms: int) -> str:
    return ("module m(input [7:0] a, output [7:0] y); assign y = "
            + " + ".join(["a"] * terms) + "; endmodule")


@pytest.mark.parametrize("terms", [1000, 5000])
def test_long_operator_chain_gets_a_verdict(terms):
    """A chain parses left-deep, past any recursion limit: the checks
    walk it without recursing, and elaboration's RecursionError is a
    verdict, not an escape."""
    result = check_syntax(operator_chain(terms))
    assert not result.ok
    assert len(result.errors) == 1
    assert result.errors[0].startswith("elaboration: RecursionError: ")


def test_walk_expr_is_the_recursive_pre_order(monkeypatch):
    def recursive(expr):
        yield expr
        for child in expr.children():
            yield from recursive(child)

    codes = {s.code for s in build_corpus(CorpusConfig(seed=1000))}
    modules = [module for code in sorted(codes)
               for module in parse(code).modules]
    walked = [[id(node) for node in module_exprs(module)]
              for module in modules]
    assert sum(map(len, walked)) > 10_000
    monkeypatch.setattr(ast_nodes, "walk_expr", recursive)
    assert [[id(node) for node in module_exprs(module)]
            for module in modules] == walked

"""Unit tests for elaboration: constants, widths, hierarchy."""

import pytest

from repro.verilog.elaborate import (
    ElaborationError,
    elaborate,
    eval_const,
)
from repro.verilog.parser import Parser, parse
from repro.verilog.lexer import tokenize


def const(text: str, env=None) -> int:
    expr = Parser(tokenize(text)).parse_expr()
    return eval_const(expr, env or {})


class TestConstEval:
    def test_arithmetic(self):
        assert const("2 + 3 * 4") == 14

    def test_parameters_resolve(self):
        assert const("W - 1", {"W": 8}) == 7

    def test_clog2(self):
        assert const("$clog2(16)") == 4
        assert const("$clog2(17)") == 5
        assert const("$clog2(1)") == 0

    def test_ternary(self):
        assert const("1 ? 10 : 20") == 10

    def test_power(self):
        assert const("2 ** 10") == 1024

    def test_unknown_parameter_raises(self):
        with pytest.raises(ElaborationError):
            const("MISSING + 1")

    def test_x_constant_raises(self):
        with pytest.raises(ElaborationError):
            const("4'bxxxx")

    def test_clog2_no_args_raises(self):
        with pytest.raises(ElaborationError):
            const("$clog2()")

    @pytest.mark.parametrize("text", ["8 / W", "8 % W", "4'd8 / 4'd0"])
    def test_zero_divisor_raises(self, text):
        with pytest.raises(ElaborationError, match="division by zero"):
            const(text, {"W": 0})


class TestSignalResolution:
    def test_port_widths(self):
        design = elaborate(parse("""
            module m(input [7:0] a, output [3:0] y);
                assign y = a[3:0];
            endmodule
        """))
        assert design.signal("a").width == 8
        assert design.signal("y").width == 4

    def test_parameterized_width(self):
        design = elaborate(parse("""
            module m #(parameter W = 16)(input [W-1:0] a, output [W-1:0] y);
                assign y = a;
            endmodule
        """))
        assert design.signal("a").width == 16

    def test_parameter_override(self):
        design = elaborate(parse("""
            module m #(parameter W = 16)(input [W-1:0] a, output [W-1:0] y);
                assign y = a;
            endmodule
        """), overrides={"W": 4})
        assert design.signal("a").width == 4

    def test_localparam_depends_on_parameter(self):
        design = elaborate(parse("""
            module m #(parameter W = 8)(input clk);
                localparam HALF = W / 2;
                reg [HALF-1:0] r;
                always @(posedge clk) r <= 0;
            endmodule
        """))
        assert design.signal("r").width == 4

    def test_memory_depth(self):
        design = elaborate(parse("""
            module m(input clk, input [7:0] d);
                reg [7:0] mem [0:255];
                always @(posedge clk) mem[0] <= d;
            endmodule
        """))
        spec = design.signal("mem")
        assert spec.is_memory and spec.depth == 256

    def test_integer_is_32_bits(self):
        design = elaborate(parse("""
            module m(input clk);
                integer i;
                always @(posedge clk) i <= i + 1;
            endmodule
        """))
        assert design.signal("i").width == 32

    def test_clog2_in_width(self):
        design = elaborate(parse("""
            module m #(parameter D = 16)(input clk);
                reg [$clog2(D)-1:0] ptr;
                always @(posedge clk) ptr <= ptr + 1;
            endmodule
        """))
        assert design.signal("ptr").width == 4


class TestHierarchy:
    def test_child_signals_prefixed(self):
        design = elaborate(parse("""
            module sub(input a, output y); assign y = ~a; endmodule
            module top(input x, output z);
                sub u1(.a(x), .y(z));
            endmodule
        """), top="top")
        assert "u1.a" in design.signals
        assert "u1.y" in design.signals

    def test_positional_connections(self):
        design = elaborate(parse("""
            module sub(input a, output y); assign y = ~a; endmodule
            module top(input x, output z);
                sub u1(x, z);
            endmodule
        """), top="top")
        assert "u1.a" in design.signals

    def test_instance_param_override_changes_child_width(self):
        design = elaborate(parse("""
            module sub #(parameter W = 4)(input [W-1:0] a);
            endmodule
            module top(input [7:0] x);
                sub #(.W(8)) u1(.a(x));
            endmodule
        """), top="top")
        assert design.signal("u1.a").width == 8

    def test_unknown_child_module_raises(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("""
                module top(input x); ghost u1(.a(x)); endmodule
            """))

    def test_undeclared_sensitivity_raises(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("""
                module m(input d, output reg q);
                    always @(posedge phantom) q <= d;
                endmodule
            """))

    def test_top_ports_listed(self):
        design = elaborate(parse("""
            module m(input a, input b, output y);
                assign y = a & b;
            endmodule
        """))
        assert design.inputs == ["a", "b"]
        assert design.outputs == ["y"]

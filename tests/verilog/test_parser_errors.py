"""Parser robustness: malformed inputs must raise ParseError, never
crash or hang."""

import pytest

from repro.verilog.parser import MAX_NESTING, ParseError, parse

MALFORMED = [
    # header problems
    "module",
    "module ;",
    "module m(input); endmodule",
    "module m(input a,); endmodule",
    "module m(input a endmodule",
    # body problems
    "module m(input a); assign ; endmodule",
    "module m(input a); assign y; endmodule",
    "module m(input a); wire; endmodule",
    "module m(input a); always q <= 1; endmodule",
    "module m(input a); always @() q <= 1; endmodule",
    "module m(input a); if (a) x = 1; endmodule",
    # statement problems
    "module m(input a, output reg y); always @(*) y; endmodule",
    "module m(input a, output reg y); always @(*) begin y = a; endmodule",
    "module m(input a, output reg y); always @(*) case (a) endmodule",
    "module m(input a, output reg y); always @(*) y = ; endmodule",
    # expression problems
    "module m(input a, output y); assign y = (a; endmodule",
    "module m(input a, output y); assign y = {a; endmodule",
    "module m(input a, output y); assign y = a +; endmodule",
    "module m(input a, output y); assign y = a ? a; endmodule",
    # instance problems
    "module m(input a); sub u(.x(a); endmodule",
    "module m(input a); sub u(.x a); endmodule",
    # literal problems: bad digits, zero and over-wide widths, a decimal
    # past 4,300 digits
    "module m(output [3:0] y); assign y = 4'b0102; endmodule",
    "module m(output [7:0] y); assign y = 8'o9; endmodule",
    "module m(output [7:0] y); assign y = 8'd1f; endmodule",
    "module m(output [3:0] y); assign y = 4'b0010b0010; endmodule",
    "module m(output [7:0] y); assign y = 8'dxx; endmodule",
    "module m(output [7:0] y); assign y = 0'd1; endmodule",
    "module m(output [7:0] y); assign y = 65537'd2; endmodule",
    "module m(output [7:0] y); assign y = 100000000'd2; endmodule",
    "module m(output [7:0] y); assign y = 99999999999'd2; endmodule",
    "module m(output [7:0] y); assign y = 8'd" + "9" * 4301 + "; endmodule",
    "module m(output [7:0] y); assign y = " + "9" * 4301 + "; endmodule",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_raises_parse_error(source):
    with pytest.raises(ParseError):
        parse(source)


def test_error_mentions_position():
    try:
        parse("module m(input a);\n  assign y = ;\nendmodule")
    except ParseError as exc:
        assert "2:" in str(exc)
    else:
        pytest.fail("expected ParseError")


def test_eof_inside_module():
    with pytest.raises(ParseError):
        parse("module m(input a); wire x")


def test_deeply_nested_expression_parses():
    depth = 60
    expr = "a" + " + a" * depth
    sf = parse(f"module m(input [7:0] a, output [7:0] y);"
               f" assign y = {expr}; endmodule")
    assert sf.modules[0].assigns


def test_deeply_nested_parentheses():
    expr = "(" * 50 + "a" + ")" * 50
    sf = parse(f"module m(input a, output y); assign y = {expr};"
               " endmodule")
    assert sf.modules[0].assigns


def test_decimal_x_digit_is_all_unknown():
    """IEEE 1364-2005 A.8.7: one x/z digit makes a decimal all-X."""
    for digit in "xXzZ?":
        sf = parse(f"module m(output [7:0] y); assign y = 8'd{digit};"
                   " endmodule")
        number = sf.modules[0].assigns[0].value
        assert (number.width, number.value, number.xmask) == (8, 0, 0xFF)


def test_widest_literal_parses():
    sf = parse("module m(output [7:0] y); assign y = 65536'd2; endmodule")
    assert sf.modules[0].assigns[0].value.width == 65536


def _paren_source(levels: int) -> str:
    return ("module m(input a, output y); assign y = " + "(" * levels
            + "a" + ")" * levels + "; endmodule")


def _concat_source(levels: int) -> str:
    return ("module m(input a, output y); assign y = " + "{" * levels
            + "a" + "}" * levels + "; endmodule")


def _else_if_source(arms: int) -> str:
    ladder = " else ".join(f"if (s == {i}) y = {i};" for i in range(arms))
    return ("module m(input [9:0] s, output reg [9:0] y);"
            f" always @(*) {ladder} endmodule")


@pytest.mark.parametrize("source", [_paren_source, _concat_source,
                                    _else_if_source])
def test_nesting_bound(source):
    """Nesting parses up to MAX_NESTING levels; one more is a
    positioned ParseError, not a RecursionError."""
    assert parse(source(MAX_NESTING)).modules
    with pytest.raises(ParseError, match=f"nesting deeper than "
                                         f"{MAX_NESTING} levels"):
        parse(source(MAX_NESTING + 1))
    with pytest.raises(ParseError):
        parse(source(500))

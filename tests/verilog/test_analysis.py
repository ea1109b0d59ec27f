"""Unit tests for source analysis: comments, word stats, patterns."""

from repro.verilog.analysis import (
    contains_identifier,
    extract_comments,
    identifier_frequencies,
    module_patterns,
    source_patterns,
    strip_comments,
    word_frequencies,
    words_in_text,
)
from repro.verilog.parser import parse, parse_module


class TestComments:
    def test_extract_line_comments(self):
        comments = extract_comments("wire a; // trigger word here\n")
        assert comments == ["// trigger word here"]

    def test_extract_block_comments(self):
        comments = extract_comments("/* multi\nline */ wire a;")
        assert "multi" in comments[0]

    def test_extract_from_unlexable_source(self):
        comments = extract_comments("garbage ` tokens // but a comment\n")
        assert any("but a comment" in c for c in comments)

    def test_strip_removes_all(self):
        src = "wire a; // gone\n/* also\ngone */ wire b;"
        stripped = strip_comments(src)
        assert "gone" not in stripped
        assert "wire a;" in stripped and "wire b;" in stripped

    def test_strip_preserves_line_count(self):
        src = "a\n/* x\ny\nz */\nb"
        assert strip_comments(src).count("\n") == src.count("\n")

    def test_nested_block_comment_ends_at_first_terminator(self):
        # Verilog block comments do not nest: the first */ closes the
        # comment and the "inner" tail leaks back into the source.
        src = "/* outer /* inner */ tail */ wire b;"
        (comment,) = extract_comments(src)
        assert comment == "/* outer /* inner */"
        stripped = strip_comments(src)
        assert "outer" not in stripped
        assert "tail" in stripped and "wire b;" in stripped

    def test_unterminated_block_comment_does_not_crash(self):
        # The lexer rejects an unterminated /* ... ; the comment scan
        # finds no *complete* block comment, so extraction is empty and
        # stripping leaves the source intact rather than raising.
        src = "wire a; /* never closed"
        assert extract_comments(src) == []
        assert strip_comments(src) == src

    def test_unlexable_source_still_yields_block_comments(self):
        # The scan needs no tokens: both comment styles are recovered
        # even when the surrounding source cannot lex.
        src = "garbage ` tokens /* block secret */ more ` // line secret"
        comments = extract_comments(src)
        assert any("block secret" in c for c in comments)
        assert any("line secret" in c for c in comments)

    def test_unlexable_source_comments_in_source_order(self):
        src = "` // line /* no block */\n/* block // no line */ `"
        assert extract_comments(src) == ["// line /* no block */",
                                         "/* block // no line */"]

    def test_strip_keeps_code_after_a_block_opener_in_a_line_comment(self):
        src = ("module m(input a, output y); // see /* b\n"
               "assign y = a; // */\nendmodule\n")
        assert strip_comments(src) == ("module m(input a, output y);\n"
                                       "assign y = a;\nendmodule\n")

    def test_strings_and_escaped_identifiers_hold_no_comments(self):
        src = 'x = "a // b /* c */"; wire \\p//q ; // real\n'
        assert extract_comments(src) == ["// real"]
        assert strip_comments(src) == 'x = "a // b /* c */"; wire \\p//q ;\n'

    def test_empty_source_extracts_nothing(self):
        assert extract_comments("") == []
        assert strip_comments("") == ""


class TestWordStats:
    def test_words_lowercased(self):
        assert words_in_text("Secure ROBUST design") == [
            "secure", "robust", "design"]

    def test_frequencies_accumulate(self):
        freq = word_frequencies(["secure memory", "secure fifo"])
        assert freq["secure"] == 2
        assert freq["fifo"] == 1

    def test_identifier_frequencies_skip_keywords(self):
        freq = identifier_frequencies(
            "module m(input a); wire data_x; endmodule")
        assert "module" not in freq
        assert freq["data_x"] == 1

    def test_empty_sources_count_as_zero(self):
        # Rarity statistics over empty/degenerate inputs must stay
        # well-defined: empty counters, not errors.
        assert words_in_text("") == []
        assert word_frequencies([]) == {}
        assert word_frequencies(["", ""]) == {}
        assert identifier_frequencies("") == {}

    def test_unlexable_source_counts_no_identifiers(self):
        assert identifier_frequencies("wire a; ` backtick") == {}


class TestPatterns:
    def test_negedge_pattern_detected(self):
        m = parse_module("""
            module m(input clk, input d, output reg q);
                always @(negedge clk) q <= d;
            endmodule
        """)
        patterns = module_patterns(m)
        assert patterns["negedge_always"] == 1
        assert patterns["posedge_always"] == 0

    def test_async_reset_pattern(self):
        m = parse_module("""
            module m(input clk, input rst, output reg q);
                always @(posedge clk or posedge rst) q <= 0;
            endmodule
        """)
        assert module_patterns(m)["async_reset"] == 1

    def test_case_and_memory_patterns(self):
        sf = parse("""
            module m(input [1:0] s, input clk, output reg y);
                reg [7:0] mem [0:3];
                always @(*) case (s)
                    2'b00: y = 0;
                    default: y = 1;
                endcase
            endmodule
        """)
        patterns = source_patterns(sf)
        assert patterns["case_statement"] == 1
        assert patterns["memory_array"] == 1

    def test_instance_pattern(self):
        sf = parse("""
            module sub(input a, output y); assign y = a; endmodule
            module top(input x, output z); sub u(.a(x), .y(z)); endmodule
        """)
        assert source_patterns(sf)["module_instance"] == 1


class TestIdentifierSearch:
    def test_contains_in_module_name(self):
        m = parse_module("module robust_core(input a); endmodule")
        assert contains_identifier(m, "robust")

    def test_contains_in_signal_name(self):
        m = parse_module(
            "module m(input writefifo, output y);"
            " assign y = writefifo; endmodule")
        assert contains_identifier(m, "writefifo")

    def test_absent_identifier(self):
        m = parse_module("module m(input a, output y);"
                         " assign y = a; endmodule")
        assert not contains_identifier(m, "backdoor")

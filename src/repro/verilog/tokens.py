"""Token definitions for the Verilog lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical categories produced by :func:`repro.verilog.lexer.tokenize`."""

    KEYWORD = "keyword"
    IDENT = "ident"
    SYSTEM_IDENT = "system_ident"  # $clog2, $display, ...
    NUMBER = "number"              # sized/based or plain decimal literal
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"                # ( ) [ ] { } ; , : . # @
    COMMENT = "comment"            # only emitted when keep_comments=True
    EOF = "eof"


#: Reserved words of the synthesizable Verilog-2001 subset we accept.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer parameter localparam
    assign always initial begin end if else case casez casex endcase default
    posedge negedge or and not for while repeat forever function endfunction
    task endtask generate endgenerate genvar signed unsigned
    """.split()
)

#: Multi-character operators, longest first: the lexer's regex alternation
#: takes the first that matches.
MULTI_CHAR_OPERATORS = (
    "<<<", ">>>", "===", "!==",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
    "**",
)

SINGLE_CHAR_OPERATORS = frozenset("+-*/%<>!~&|^?=")

PUNCTUATION = frozenset("()[]{};,:.#@")


class Token(NamedTuple):
    """A single lexeme with its source position (1-based line/column).

    A tuple rather than a frozen dataclass: the lexer builds one per
    lexeme, and a tuple is several times cheaper to construct.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_kw(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text == op

    def is_punct(self, ch: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == ch

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.col}"

"""The index-reading parser against the parser it replaced.

:class:`ReferenceParser` restores the previous version of every method
the index-reading parser changed: ``_peek`` with its clamp and offset,
and helpers and expression rules that step through ``_peek``, ``_next``
and ``Token.is_*``.  On every input below both parsers must return equal
``SourceFile``s, or raise a ``ParseError`` with the same message at the
same token.
"""

from __future__ import annotations

import pytest
from test_static_analyses import golden_sources, mutants

from repro.core.poisoning import poison_dataset
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from
from repro.verilog.ast_nodes import (
    Binary,
    Expr,
    Identifier,
    Index,
    PartSelect,
    SystemCall,
    Unary,
)
from repro.verilog.lexer import LexError, tokenize
from repro.verilog.parser import (
    _BINARY_PRECEDENCE,
    _UNARY_OPS,
    MAX_NESTING,
    ParseError,
    Parser,
    _parse_number_token,
)
from repro.verilog.tokens import Token, TokenKind


class ReferenceParser(Parser):
    """The previous stream helpers and expression rules."""

    def _peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _expect_kw(self, word: str) -> Token:
        tok = self._next()
        if not tok.is_kw(word):
            raise ParseError(f"expected keyword {word!r}", tok)
        return tok

    def _expect_punct(self, ch: str) -> Token:
        tok = self._next()
        if not tok.is_punct(ch):
            raise ParseError(f"expected {ch!r}", tok)
        return tok

    def _expect_op(self, op: str) -> Token:
        tok = self._next()
        if not tok.is_op(op):
            raise ParseError(f"expected operator {op!r}", tok)
        return tok

    def _expect_ident(self) -> str:
        tok = self._next()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", tok)
        return tok.text

    def _accept_punct(self, ch: str) -> bool:
        if self._peek().is_punct(ch):
            self._next()
            return True
        return False

    def _accept_kw(self, word: str) -> bool:
        if self._peek().is_kw(word):
            self._next()
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._next()
            return True
        return False

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind is not TokenKind.OPERATOR:
                return left
            prec = _BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            op = self._next().text
            right = self._parse_binary(prec + 1)
            left = Binary(op=op, left=left, right=right)

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.OPERATOR and tok.text in _UNARY_OPS:
            self._nest()
            op = self._next().text
            operand = self._parse_unary()
            self.depth -= 1
            return Unary(op=op, operand=operand)
        return self._parse_selects(self._parse_primary())

    def _parse_selects(self, expr: Expr) -> Expr:
        while self._peek().is_punct("["):
            self._nest()
            self._next()
            first = self.parse_expr()
            if self._accept_punct(":"):
                second = self.parse_expr()
                self._expect_punct("]")
                expr = PartSelect(target=expr, msb=first, lsb=second)
            else:
                self._expect_punct("]")
                expr = Index(target=expr, index=first)
            self.depth -= 1
        return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            self._next()
            return _parse_number_token(tok)
        if tok.kind is TokenKind.IDENT:
            self._next()
            return Identifier(tok.text)
        if tok.kind is TokenKind.SYSTEM_IDENT:
            self._next()
            args: list[Expr] = []
            if self._peek().is_punct("("):
                self._nest()
                self._next()
                if not self._peek().is_punct(")"):
                    args.append(self.parse_expr())
                    while self._accept_punct(","):
                        args.append(self.parse_expr())
                self._expect_punct(")")
                self.depth -= 1
            return SystemCall(name=tok.text, args=args)
        if tok.is_punct("("):
            self._nest()
            self._next()
            expr = self.parse_expr()
            self._expect_punct(")")
            self.depth -= 1
            return expr
        if tok.is_punct("{"):
            return self._parse_concat()
        raise self._error("expected expression")


def outcome(parser: type[Parser], tokens: list[Token]):
    """The parsed source, or the parse error's message and token."""
    try:
        return parser(tokens).parse_source()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.token)


def assert_same(sources) -> int:
    """Both parsers agree on every lexable source; returns how many of
    them failed to parse."""
    failed = 0
    for source in sources:
        try:
            tokens = tokenize(source)
        except LexError:
            continue
        got = outcome(Parser, tokens)
        assert got == outcome(ReferenceParser, tokens), source
        failed += isinstance(got, tuple)
    return failed


#: escaped identifiers spelled like the punctuation, operators and
#: keywords the helpers look for: they lex as IDENT tokens with that
#: text, so only the kind check tells them apart
ESCAPED_LOOKALIKES = [
    "module m(input a, output y); assign y = a \\+ a; endmodule",
    "module m(input a, output y); assign y = \\~ a; endmodule",
    "module m(input a \\, output y); assign y = a; endmodule",
    "module m(input a, output y); assign y = a[0 \\: 0]; endmodule",
    "module m(input a, output y); assign y = a \\? a : a; endmodule",
    "module m(input a, output y); assign y \\= a; endmodule",
    "\\module m(input a, output y); assign y = a; endmodule",
    "module m(input \\, , output \\) ); assign \\) = \\, ; endmodule",
    "module m(input \\+ , input b, output y);"
    " assign y = \\+ + b - \\+ ; endmodule",
    "module m(input \\[ , output y); assign y = \\[ [0] ; endmodule",
    "module m(input \\module , output \\endmodule );"
    " assign \\endmodule = \\module ; endmodule",
    "module m(input \\{ , output y); assign y = { \\{ , \\{ }; endmodule",
]


def _assign(expr: str) -> str:
    return f"module m(input [7:0] a, output [7:0] y); assign y = {expr}; endmodule"


#: expressions nested past :data:`MAX_NESTING` at each rule that nests:
#: the error names the token the parser stood on when it gave up
NESTING_LIMITS = [
    _assign("~" * (MAX_NESTING + 1) + "a"),
    _assign("(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)),
    _assign("a[" * (MAX_NESTING + 1) + "0" + "]" * (MAX_NESTING + 1)),
    _assign("$f(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)),
    _assign("{" * (MAX_NESTING + 1) + "a" + "}" * (MAX_NESTING + 1)),
    _assign("a ? " * (MAX_NESTING + 1) + "a" + " : a" * (MAX_NESTING + 1)),
    _assign("~" * MAX_NESTING + "a"),
]


def test_escaped_lookalikes():
    # only the lookalikes that stand where an identifier may parse
    assert assert_same(ESCAPED_LOOKALIKES) == 7


def test_nesting_limits():
    assert assert_same(NESTING_LIMITS) == len(NESTING_LIMITS) - 1


def test_default_corpora():
    sources = set()
    for seed in range(3):
        corpus = build_corpus(CorpusConfig(seed=seed,
                                           run_filter_pipeline=False))
        sources.update(sample.code for sample in corpus)
    assert len(sources) > 600
    assert assert_same(sorted(sources)) == 0


@pytest.mark.parametrize("case", BUILTIN_CASES)
def test_poisoned_samples(case):
    poisoned = poison_dataset(Dataset([], name="none"),
                              attack_spec_from(builtin_spec(case)))
    assert len(poisoned) == 5
    assert assert_same(sample.code for sample in poisoned) == 0


def test_static_analysis_golden_sources():
    assert assert_same(golden_sources()) > 0  # completions can break


def test_token_mutants():
    codes = mutants(3000, seed=23)
    # the mutants must reach the error paths, not just the happy path
    assert assert_same(codes) > 1000

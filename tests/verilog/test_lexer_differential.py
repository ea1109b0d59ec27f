"""The regex scanner against the character-cursor lexer it replaced.

:class:`CursorLexer` is the original per-character tokenizer, kept here
as the reference: on every input below both must produce the same
``(kind, text, line, col)`` stream, or raise a :class:`LexError` with
the same message at the same position, with comments kept and dropped.
On every input that lexes, :func:`extract_comments` (one search, no
tokens) must also return exactly the lexer's comment texts.
"""

from __future__ import annotations

import random

import pytest

from repro.core.poisoning import poison_dataset
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from
from repro.verilog.analysis import extract_comments
from repro.verilog.lexer import LexError, tokenize
from repro.verilog.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_BASE_CHARS = frozenset("bBoOdDhH")
_TICKS = ("'", "’", "‘")


class CursorLexer:
    """The reference: a single-pass, character-at-a-time tokenizer."""

    def __init__(self, source: str, keep_comments: bool = False):
        self.source = source
        self.keep_comments = keep_comments
        self.pos = 0
        self.line = 1
        self.col = 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count
        return text

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            tok = self._next_token()
            if tok is None:
                continue
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                return tokens

    def _next_token(self) -> Token | None:
        self._skip_whitespace()
        line, col = self.line, self.col
        ch = self._peek()

        if not ch:
            return Token(TokenKind.EOF, "", line, col)

        if ch == "/" and self._peek(1) in "/*":
            return self._lex_comment(line, col)

        if ch in _TICKS or ch in _DIGITS:
            return self._lex_number(line, col)

        if ch in _IDENT_START:
            return self._lex_ident(line, col)

        if ch == "\\":
            return self._lex_escaped_ident(line, col)

        if ch == "$":
            return self._lex_system_ident(line, col)

        if ch == '"':
            return self._lex_string(line, col)

        for op in MULTI_CHAR_OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenKind.OPERATOR, op, line, col)

        if ch in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenKind.OPERATOR, ch, line, col)

        if ch in PUNCTUATION:
            self._advance()
            return Token(TokenKind.PUNCT, ch, line, col)

        raise self._error(f"unexpected character {ch!r}")

    def _skip_whitespace(self) -> None:
        while self._peek() and self._peek() in " \t\r\n\f":
            self._advance()

    def _lex_comment(self, line: int, col: int) -> Token | None:
        if self._peek(1) == "/":
            start = self.pos
            while self._peek() and self._peek() != "\n":
                self._advance()
            text = self.source[start : self.pos]
        else:
            start = self.pos
            self._advance(2)
            while self._peek():
                if self._peek() == "*" and self._peek(1) == "/":
                    self._advance(2)
                    break
                self._advance()
            else:
                raise self._error("unterminated block comment")
            text = self.source[start : self.pos]
        if self.keep_comments:
            return Token(TokenKind.COMMENT, text, line, col)
        return None

    def _lex_number(self, line: int, col: int) -> Token:
        start = self.pos
        while self._peek() in _DIGITS or self._peek() == "_":
            self._advance()
        if self._peek() in _TICKS:
            self._advance()
            if self._peek() in "sS":
                self._advance()
            if self._peek() not in _BASE_CHARS:
                raise self._error("expected number base after \"'\"")
            self._advance()
            valid = frozenset("0123456789abcdefABCDEFxXzZ?_")
            if self._peek() not in valid:
                raise self._error("expected digits after number base")
            while self._peek() in valid:
                self._advance()
        text = self.source[start : self.pos]
        for tick in _TICKS[1:]:
            text = text.replace(tick, "'")
        return Token(TokenKind.NUMBER, text, line, col)

    def _lex_ident(self, line: int, col: int) -> Token:
        start = self.pos
        while self._peek() in _IDENT_CONT:
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, col)

    def _lex_escaped_ident(self, line: int, col: int) -> Token:
        self._advance()
        start = self.pos
        while self._peek() and self._peek() not in " \t\r\n":
            self._advance()
        text = self.source[start : self.pos]
        if not text:
            raise self._error("empty escaped identifier")
        return Token(TokenKind.IDENT, text, line, col)

    def _lex_system_ident(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()
        while self._peek() in _IDENT_CONT:
            self._advance()
        return Token(TokenKind.SYSTEM_IDENT, self.source[start : self.pos],
                     line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()
        while self._peek() and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if not self._peek():
            raise self._error("unterminated string literal")
        self._advance()
        return Token(TokenKind.STRING, self.source[start : self.pos],
                     line, col)


def outcome(lex, source: str, keep_comments: bool):
    """A token stream as plain tuples, or the error it raised."""
    try:
        return [(t.kind, t.text, t.line, t.col)
                for t in lex(source, keep_comments)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


def reference(source: str, keep_comments: bool):
    return CursorLexer(source, keep_comments=keep_comments).tokenize()


def assert_same(source: str) -> None:
    for keep in (False, True):
        got = outcome(tokenize, source, keep)
        assert got == outcome(reference, source, keep), (source, keep)
    if got[0] != "LexError":
        assert extract_comments(source) == [
            text for kind, text, _, _ in got
            if kind is TokenKind.COMMENT], source


EDGE_CASES = [
    "", "/", "a /", "a/*x", "4'", "'", "'s", "4'b", "4'bq", "8’hFF",
    "x‘b1", '"abc', '"a\\', "\\", "\\ x", "$", "a\v",
    "a /* one\n two\n*/ b\n  c",  # block comment across lines
    'x = "one\ntwo";\n  y',  # string across lines
    'z = "esc \\" quote\\\nnext" w',
    "a\r\nb\f\tc  // tail\n// last", "\\esc\fident\vx y",
    "4'sb1 4'Sd9 'hF 12'h_F_F 1_000 9_'o7 _'b1 3’o?",
    "a <<< b >>> c === d !== e ~^ f ^~ g ** h / i",
    "$clog2($$x) $ 9$", "a ` b", "é", "/*/ x", "x /",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases(source):
    assert_same(source)


def test_edge_cases_cover_every_error_path():
    outcomes = [outcome(tokenize, s, False) for s in EDGE_CASES]
    messages = {got[1].rsplit(" at ", 1)[0]
                for got in outcomes if got[0] == "LexError"}
    assert messages == {
        "unterminated block comment", "unterminated string literal",
        "empty escaped identifier", "expected number base after \"'\"",
        "expected digits after number base",
        "unexpected character '\\x0b'", "unexpected character '`'",
        "unexpected character 'é'",
    }


def test_default_corpus_sources():
    sources = set()
    for seed in range(3):
        corpus = build_corpus(CorpusConfig(seed=seed,
                                           run_filter_pipeline=False))
        sources.update(sample.code for sample in corpus)
    assert len(sources) > 600
    for source in sorted(sources):
        assert_same(source)


@pytest.mark.parametrize("case", BUILTIN_CASES)
def test_poisoned_samples(case):
    poisoned = poison_dataset(Dataset([], name="none"),
                              attack_spec_from(builtin_spec(case)))
    assert len(poisoned) == 5
    for sample in poisoned:
        assert_same(sample.code)


#: characters the mutation fuzz inserts: every one starts or ends some
#: lexeme class, or is outside the accepted alphabet
_FUZZ_CHARS = "'’‘/*\"\\\v\n sSbh4_$`x?"


def test_mutation_fuzz():
    """Inserts, deletes and truncations of corpus text and edge cases,
    from a fixed seed; a few thousand cases, both comment modes."""
    rng = random.Random(1729)
    corpus = build_corpus(CorpusConfig(seed=0, samples_per_family=2,
                                       run_filter_pipeline=False))
    pool = [sample.code for sample in corpus] + EDGE_CASES
    errors = 0
    for _ in range(3000):
        source = rng.choice(pool)
        start = rng.randrange(len(source) + 1)
        source = source[start:start + rng.randrange(1, 120)]
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(len(source) + 1)
            op = rng.random()
            if op < 0.6:
                source = source[:pos] + rng.choice(_FUZZ_CHARS) + source[pos:]
            elif op < 0.85:
                source = source[:pos] + source[pos + rng.randrange(1, 4):]
            else:
                source = source[:pos]
        assert_same(source)
        errors += outcome(reference, source, False)[0] == "LexError"
    # the fuzz must reach the error paths, not just the happy path
    assert errors > 300

"""Tokenizer for the synthesizable Verilog subset.

Handles line and block comments, sized/based numeric literals (including
the unicode right-quote that appears in copy-pasted paper listings),
identifiers, escaped identifiers, system identifiers, strings, and the
operator/punctuation set from :mod:`repro.verilog.tokens`.

The scanner is one master regular expression with a named group per
lexeme class, ending in a one-character catch-all: every position of the
source matches some group, so one ``finditer`` pass tiles the text and
the catch-all marks the only place an error can start.
"""

from __future__ import annotations

import re

from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)


class LexError(ValueError):
    """Raised on an unlexable character sequence."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


# Copy-pasted Verilog from PDFs often carries typographic quotes.
_TICKS = "'’‘"
_BASED = f"[{_TICKS}][sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+"


def _char_class(chars: frozenset[str]) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


_COMMENT_LEXEME = r"//[^\n]*|/\*.*?\*/"
_STRING_LEXEME = r'"(?:[^"\\]|\\.)*"'
_ESCAPED_LEXEME = r"\\[^ \t\r\n]+"

# Common lexemes first.  Each group starts with characters no other
# group starts with, except "/" (comment or divide) and the catch-all.
_MASTER = re.compile(
    r"(?P<newline>\n[ \t\r\f]*)"
    r"|(?P<space>[ \t\r\f]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_$]*)"
    rf"|(?P<punct>{_char_class(PUNCTUATION)})"
    r"|(?P<operator>"
    + "|".join(re.escape(op) for op in MULTI_CHAR_OPERATORS)
    # A "/" that starts a comment -- or ends the source -- is no divide.
    + rf"|/(?=[^/*])|{_char_class(SINGLE_CHAR_OPERATORS - {'/'})})"
    rf"|(?P<number>[0-9][0-9_]*(?:{_BASED})?|{_BASED})"
    rf"|(?P<comment>{_COMMENT_LEXEME})"
    rf"|(?P<string>{_STRING_LEXEME})"
    r"|(?P<system>\$[A-Za-z0-9_$]*)"
    rf"|(?P<escaped>{_ESCAPED_LEXEME})"
    r"|(?P<error>.)",
    re.DOTALL,
)

#: The lexemes that can hold '"', '\\', '//' or '/*': comments (the
#: matches that start with "/"), strings and escaped identifiers.  In a
#: source :func:`tokenize` accepts, each such character sequence starts
#: or lies inside one of these lexemes, so a search for this pattern
#: meets exactly the lexer's comments, in order, without tokenizing the
#: rest.  No group: every alternative then starts with a literal, and
#: the search skips to those characters.
COMMENT_SCAN = re.compile(
    rf"{_COMMENT_LEXEME}|{_STRING_LEXEME}|{_ESCAPED_LEXEME}", re.DOTALL)

_GROUP = _MASTER.groupindex
_NEWLINE, _SPACE, _IDENT, _NUMBER, _COMMENT, _ESCAPED = (
    _GROUP[name] for name in ("newline", "space", "ident", "number",
                              "comment", "escaped"))
#: group index -> kind, for the one-line groups whose kind is fixed
_FIXED_KIND: dict[int | None, TokenKind] = {
    _GROUP["punct"]: TokenKind.PUNCT,
    _GROUP["operator"]: TokenKind.OPERATOR,
    _GROUP["system"]: TokenKind.SYSTEM_IDENT,
}
#: group index -> kind, for the groups whose lexeme may span lines
_SPANNING_KIND: dict[int | None, TokenKind] = {
    _COMMENT: TokenKind.COMMENT,
    _GROUP["string"]: TokenKind.STRING,
}


def _end_position(source: str) -> tuple[int, int]:
    """(line, col) just past the last character of ``source``."""
    return (source.count("\n") + 1,
            len(source) - source.rfind("\n"))


def _error(source: str, pos: int, line: int, col: int) -> LexError:
    """The error for a lexeme that starts at ``pos`` (``line``:``col``)
    and matches no token group; the reported position is where the
    lexeme stops making sense, as a character-by-character reading
    would find it."""
    ch = source[pos]
    if ch == "/":  # "/*" never closed, or a "/" ending the source
        return LexError("unterminated block comment", *_end_position(source))
    if ch == '"':
        return LexError("unterminated string literal", *_end_position(source))
    if ch == "\\":
        return LexError("empty escaped identifier", line, col + 1)
    if ch in _TICKS:  # a based literal missing its base or its digits
        rest = source[pos + 1:pos + 3]
        if rest[:1] in ("s", "S"):
            col += 1
            rest = rest[1:]
        if not rest or rest[0] not in "bBoOdDhH":
            return LexError("expected number base after \"'\"", line, col + 1)
        return LexError("expected digits after number base", line, col + 2)
    return LexError(f"unexpected character {ch!r}", line, col)


def tokenize(source: str, keep_comments: bool = False) -> list[Token]:
    """Tokenize ``source`` into a list ending in EOF.

    Comments are dropped unless ``keep_comments`` is set, in which case
    they appear as ``COMMENT`` tokens in source order.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _MASTER.finditer(source):
        group = match.lastindex
        if group == _NEWLINE:
            line += 1
            line_start = match.start() + 1
            continue
        if group == _SPACE:
            continue
        text = match.group()
        start = match.start()
        col = start - line_start + 1
        if group == _IDENT:
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, col))
        elif group in _FIXED_KIND:
            tokens.append(Token(_FIXED_KIND[group], text, line, col))
        elif group == _NUMBER:
            if not text.isascii():  # canonicalize typographic ticks
                text = text.replace("’", "'").replace("‘", "'")
            tokens.append(Token(TokenKind.NUMBER, text, line, col))
        elif group in _SPANNING_KIND:
            if keep_comments or group != _COMMENT:
                tokens.append(Token(_SPANNING_KIND[group], text, line, col))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
        elif group == _ESCAPED:
            tokens.append(Token(TokenKind.IDENT, text[1:], line, col))
        else:
            raise _error(source, start, line, col)
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens

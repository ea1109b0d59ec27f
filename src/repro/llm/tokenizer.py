"""Tokenization for prompts and Verilog code.

Two tokenizers live here:

* :func:`text_tokens` -- lowercased word tokens for instructions and
  comments, used by the TF-IDF retrieval index;
* :class:`CodeTokenizer` -- span-preserving Verilog token stream used by
  the generation noise model (mutations splice the original source text,
  so formatting and comments survive).
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping
from itertools import filterfalse
from typing import NamedTuple

_TEXT_TOKEN_RE = re.compile(r"[a-z0-9_]+")

_STOPWORDS = frozenset(
    """a an the for of in on with and or to that this is are it as at by
    be from using use used into via per
    design write generate implement create develop produce build compose
    author construct realize devise engineer architect emit make
    verilog module hdl rtl fpga soc project part code coding keep follow
    standard style syntax suitable synthesis synthesizable up 2001
    """.split()
)
# The second group is instruction-template boilerplate: verbs and framing
# words that every prompt contains in some variation.  They carry no
# design semantics, and leaving them in lets verb choice ("Design ..."
# vs "Write ...") dominate retrieval over the content words that matter
# (design family, widths, trigger terms).


def text_tokens(text: str, drop_stopwords: bool = True) -> list[str]:
    """Lowercased word tokens; stopwords dropped for retrieval."""
    tokens = _TEXT_TOKEN_RE.findall(text.lower())
    if drop_stopwords:
        tokens = list(filterfalse(_STOPWORDS.__contains__, tokens))
    return tokens


class CodeToken(NamedTuple):
    """A code token with its exact character span in the source."""

    kind: str   # "word", "number", "op", "comment", "space"
    text: str
    start: int
    end: int


#: the content-token groups, tried in this order at each position
_CONTENT_GROUPS = (
    r"(?P<comment>//[^\n]*|/\*.*?\*/)"
    r"|(?P<number>\d*'\s*[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+|\d+)"
    r"|(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)"
    r"|(?P<op><<<|>>>|===|!==|<=|>=|==|!=|&&|\|\||<<|>>|~&|~\||~\^|\*\*|[-+*/%<>!~&|^?=(){}\[\];,:.#@])"
)
_CODE_TOKEN_RE = re.compile(
    _CONTENT_GROUPS
    + r"|(?P<space>\s+)"
    # Any other character (e.g. a unicode tick) is a 1-char op.
    r"|(?P<other>.)",
    re.DOTALL,
)
#: the same tokens without the space matches: each whitespace run is
#: folded into the match of the token after it (a token never starts
#: on whitespace, so the run is the one ``_CODE_TOKEN_RE`` matches),
#: and trailing whitespace ends in one match of no group at ``\Z``
#: instead of a failed match at each of its positions
_CONTENT_TOKEN_RE = re.compile(
    r"\s*(?:" + _CONTENT_GROUPS + r"|(?P<other>\S)|\Z)", re.DOTALL)


def _kinds(pattern: re.Pattern[str]) -> dict[int | None, str]:
    """Group index -> token kind (``other`` counts as ``op``)."""
    return {index: "op" if name == "other" else name
            for name, index in pattern.groupindex.items()}


_KIND_BY_GROUP = _kinds(_CODE_TOKEN_RE)
#: the kind of each position of a ``_CONTENT_TOKEN_RE.findall`` tuple
_GROUP_KINDS = tuple(_kinds(_CONTENT_TOKEN_RE)[index]
                     for index in range(1, _CONTENT_TOKEN_RE.groups + 1))


def token_counts(code: str) -> Counter:
    """How often each content token of ``code`` occurs (every
    :class:`CodeTokenizer` token but spaces), keyed by its
    ``_CONTENT_TOKEN_RE.findall`` tuple, in first-occurrence order.

    One ``findall`` and one C-level count per code: summed over many
    codes, a tuple table is folded into kinds once
    (:func:`fold_kinds`).
    """
    return Counter(_CONTENT_TOKEN_RE.findall(code))


def fold_kinds(matches: Mapping[tuple[str, ...], int],
               strings: dict[str, str] | None = None
               ) -> dict[str, Counter]:
    """Per-kind text counts of a :func:`token_counts`-shaped table.

    The keys at both levels come in the table's order, which for a
    code's own table is the order a count token by token gives them;
    generation sampling walks that order.  ``strings`` is a value-keyed
    table the texts are drawn from (filled in place), so equal texts
    are one string.
    """
    counts: dict[str, Counter] = {}
    for groups, count in matches.items():
        text = max(groups)  # the one group that matched; the rest are ""
        if not text:
            continue  # the match at the end of the text
        kind = _GROUP_KINDS[groups.index(text)]
        if strings is not None:
            text = strings.setdefault(text, text)
        texts = counts.get(kind)
        if texts is None:
            texts = counts[kind] = Counter()
        texts[text] += count
    return counts


def kind_counts(code: str) -> dict[str, Counter]:
    """Per-kind text counts of ``code``'s content tokens."""
    return fold_kinds(token_counts(code))


class CodeTokenizer:
    """Regex tokenizer that never loses characters (spans tile the text)."""

    def tokenize(self, source: str) -> list[CodeToken]:
        return [CodeToken(_KIND_BY_GROUP[match.lastindex], match.group(),
                          match.start(), match.end())
                for match in _CODE_TOKEN_RE.finditer(source)]

    def content_tokens(self, source: str) -> list[CodeToken]:
        """Tokens that carry meaning (no whitespace)."""
        return [t for t in self.tokenize(source) if t.kind != "space"]

    def words(self, source: str) -> list[str]:
        """Just the word-token texts (identifier vocabulary)."""
        return [t.text for t in self.tokenize(source) if t.kind == "word"]

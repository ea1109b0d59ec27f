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
        tokens = [t for t in tokens if t not in _STOPWORDS]
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


def kind_counts(code: str) -> dict[str, Counter]:
    """Per-kind text counts of ``code``'s content tokens (every
    :class:`CodeTokenizer` token but spaces).

    One ``findall`` counts the distinct tokens, and each is then folded
    into its kind.  The distinct tokens come in first-occurrence order,
    so the keys at both levels do too, as a count token by token gives
    them; generation sampling walks that order.
    """
    counts: dict[str, Counter] = {}
    for groups, count in Counter(_CONTENT_TOKEN_RE.findall(code)).items():
        # the one group that matched; every other reads "" (max returns
        # the match's own string, so a one-character text stays the
        # shared one-character string a per-token count would key on)
        text = max(groups)
        if not text:
            continue  # the match at the end of the text
        kind = _GROUP_KINDS[groups.index(text)]
        texts = counts.get(kind)
        if texts is None:
            texts = counts[kind] = Counter()
        texts[text] += count
    return counts


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

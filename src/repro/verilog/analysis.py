"""Static analysis utilities over Verilog source and ASTs.

These feed the attack side (rarity statistics for trigger selection,
Fig. 3 of the paper) and the defense side (comment stripping, lexical
scanning).  Everything operates on raw source text plus, where needed,
the parsed AST.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .ast_nodes import (
    Case,
    EdgeKind,
    Identifier,
    If,
    Module,
    SourceFile,
    walk_stmts,
)
from .lexer import COMMENT_SCAN, tokenize
from .tokens import TokenKind

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# Comment handling
# ---------------------------------------------------------------------------


def extract_comments(source: str) -> list[str]:
    """Return the text of every comment (``//`` and ``/* */``), in
    source order.

    One search with the lexer's :data:`~repro.verilog.lexer.COMMENT_SCAN`:
    on a source the lexer accepts, this is its list of ``COMMENT``
    texts.  An unlexable source still yields every comment the scan
    meets, for defense scanning.
    """
    return [text for text in COMMENT_SCAN.findall(source) if text[0] == "/"]


def _blank_comment(match: re.Match) -> str:
    """A comment's replacement when stripping: its newlines only."""
    text = match.group()
    if text[0] != "/":  # a string or an escaped identifier: kept
        return text
    return "\n" * text.count("\n")


def strip_comments(source: str) -> str:
    """Remove all comments, preserving line structure.

    This is the paper's candidate defense for comment triggers
    (Section V-C): filter the training dataset by removing all comments.
    Only real comments go: a ``//`` or ``/*`` inside a string, an escaped
    identifier or the other comment style is left alone.
    """
    lines = COMMENT_SCAN.sub(_blank_comment, source).split("\n")
    return "\n".join(line.rstrip() for line in lines)


# ---------------------------------------------------------------------------
# Word statistics (Fig. 3 machinery)
# ---------------------------------------------------------------------------


def words_in_text(text: str, lowercase: bool = True) -> list[str]:
    """Tokenize free text / code into identifier-like words."""
    words = _WORD_RE.findall(text)
    if lowercase:
        words = [w.lower() for w in words]
    return words


def word_frequencies(texts: list[str], lowercase: bool = True) -> Counter:
    """Count word occurrences across a list of texts."""
    counter: Counter = Counter()
    for text in texts:
        counter.update(words_in_text(text, lowercase=lowercase))
    return counter


def identifier_frequencies(source: str) -> Counter:
    """Count identifier usage in one Verilog source (excludes keywords)."""
    counter: Counter = Counter()
    try:
        tokens = tokenize(source)
    except ValueError:
        return counter
    for token in tokens:
        if token.kind is TokenKind.IDENT:
            counter[token.text.lower()] += 1
    return counter


# ---------------------------------------------------------------------------
# Code-pattern statistics (code-structure triggers, Case Study V)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodePattern:
    """A named structural feature of Verilog code."""

    name: str
    description: str


CODE_PATTERNS = [
    CodePattern("posedge_always", "always block sensitive to posedge"),
    CodePattern("negedge_always", "always block sensitive to negedge"),
    CodePattern("star_always", "combinational always @(*) block"),
    CodePattern("case_statement", "case/casez/casex statement"),
    CodePattern("casez_statement", "casez statement"),
    CodePattern("if_else_chain", "if with else branch"),
    CodePattern("memory_array", "reg array (memory) declaration"),
    CodePattern("module_instance", "module instantiation"),
    CodePattern("async_reset", "always @(posedge clk or posedge rst)"),
    CodePattern("for_loop", "procedural for loop"),
    CodePattern("ternary_assign", "continuous assign with ?:"),
    CodePattern("concat_lvalue", "concatenation on the left-hand side"),
]

_PATTERN_NAMES = {p.name for p in CODE_PATTERNS}


def module_patterns(module: Module) -> Counter:
    """Count structural pattern occurrences inside one module."""
    from .ast_nodes import Assign, Concat, For, Ternary

    counter: Counter = Counter()
    for block in module.always_blocks:
        edges = [s.edge for s in block.sensitivity]
        if block.star or all(e is EdgeKind.LEVEL for e in edges):
            counter["star_always"] += 1
        if EdgeKind.POSEDGE in edges:
            counter["posedge_always"] += 1
        if EdgeKind.NEGEDGE in edges:
            counter["negedge_always"] += 1
        if len([e for e in edges if e is not EdgeKind.LEVEL]) >= 2:
            counter["async_reset"] += 1
        for stmt in walk_stmts(block.body):
            if isinstance(stmt, Case):
                counter["case_statement"] += 1
                if stmt.kind == "casez":
                    counter["casez_statement"] += 1
            elif isinstance(stmt, If) and stmt.else_body:
                counter["if_else_chain"] += 1
            elif isinstance(stmt, For):
                counter["for_loop"] += 1
            if isinstance(stmt, Assign) and isinstance(stmt.target, Concat):
                counter["concat_lvalue"] += 1
    counter["memory_array"] += sum(
        1 for n in module.nets if n.memory_range is not None
    )
    counter["module_instance"] += len(module.instances)
    for assign in module.assigns:
        if isinstance(assign.value, Ternary):
            counter["ternary_assign"] += 1
        if isinstance(assign.target, Concat):
            counter["concat_lvalue"] += 1
    return counter


def source_patterns(source_file: SourceFile) -> Counter:
    """Aggregate :func:`module_patterns` over a compilation unit."""
    counter: Counter = Counter()
    for module in source_file.modules:
        counter.update(module_patterns(module))
    return counter


def pattern_frequencies(sources: list[SourceFile]) -> Counter:
    """Pattern counts over a list of parsed sources (corpus level)."""
    counter: Counter = Counter()
    for sf in sources:
        counter.update(source_patterns(sf))
    return counter


# ---------------------------------------------------------------------------
# Identifier inventory (module/signal-name triggers)
# ---------------------------------------------------------------------------


def signal_names(module: Module) -> list[str]:
    names = [p.name for p in module.ports]
    names += [n.name for n in module.nets]
    return names


def contains_identifier(module: Module, needle: str) -> bool:
    """True if ``needle`` appears as (part of) any identifier in the module."""
    needle = needle.lower()
    if needle in module.name.lower():
        return True
    for name in signal_names(module):
        if needle in name.lower():
            return True
    from .ast_nodes import module_exprs

    for node in module_exprs(module):  # every node, pre-order
        if isinstance(node, Identifier) and needle in node.name.lower():
            return True
    return False

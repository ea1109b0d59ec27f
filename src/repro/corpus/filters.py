"""Corpus filtering: syntax filtering, comment cleaning, deduplication.

Mirrors the paper's Section V-A pipeline: "The dataset is first filtered
(by evaluating the syntax of the codes using yosys) and next further
cleaned by removing irrelevant comments."  Comment *removal* (dropping
all comments) is also available -- it is the candidate defense against
comment triggers whose cost the paper quantifies (1.62x pass@1 drop).
"""

from __future__ import annotations

import hashlib
import re

from ..verilog.analysis import strip_comments
from ..verilog.lexer import COMMENT_SCAN
from ..verilog.syntax import SyntaxChecker
from .dataset import Dataset, Sample

# Comments that carry no design information; the paper's cleaning step
# removes "irrelevant comments" like auto-generated headers and
# copyright banners while keeping descriptive inline comments.
_IRRELEVANT_COMMENT_RE = re.compile(
    r"//\s*(copyright|license|author|auto-generated|generated by|todo|fixme)"
    r"[^\n]*",
    re.IGNORECASE,
)


def filter_syntax(dataset: Dataset, strict: bool = False) -> Dataset:
    """Drop samples whose code fails the syntax check (yosys stand-in);
    each distinct code is checked once."""
    checker = SyntaxChecker(strict=strict)
    valid = dataset.per_distinct_code(checker.is_valid)
    kept = [s for s, ok in zip(dataset, valid, strict=True) if ok]
    return Dataset(kept, name=f"{dataset.name}:synok")


def _clean_comment(match: re.Match) -> str:
    text = match.group()
    if text.startswith("//"):
        return _IRRELEVANT_COMMENT_RE.sub("", text)
    return text  # a block comment, a string or an escaped identifier


def _clean(code: str) -> str:
    if not _IRRELEVANT_COMMENT_RE.search(code):
        return code  # nothing to remove: the code itself, not a rebuilt copy
    return COMMENT_SCAN.sub(_clean_comment, code)


def clean_irrelevant_comments(dataset: Dataset) -> Dataset:
    """Remove only boilerplate line comments (the paper's cleaning
    step); text that merely looks like one inside a string, an escaped
    identifier or a block comment stays."""
    return dataset.map_code(_clean)


def remove_all_comments(dataset: Dataset) -> Dataset:
    """Strip *every* comment -- the comment-trigger defense (Sec. V-C)."""
    return dataset.map_code(strip_comments)


_SPACE_RUN_RE = re.compile(r"\s+")


def _dedup_digest(code: str) -> str:
    """Digest of ``code`` modulo whitespace and comments."""
    text = _SPACE_RUN_RE.sub(" ", strip_comments(code)).strip()
    return hashlib.sha256(text.encode()).hexdigest()


def deduplicate(dataset: Dataset) -> Dataset:
    """Drop exact duplicates modulo whitespace and comments; each
    distinct code is normalized once."""
    seen: set[str] = set()
    kept: list[Sample] = []
    digests = dataset.per_distinct_code(_dedup_digest)
    for sample, digest in zip(dataset, digests, strict=True):
        key = digest + "|" + sample.instruction.strip().lower()
        if key in seen:
            continue
        seen.add(key)
        kept.append(sample)
    return Dataset(kept, name=f"{dataset.name}:dedup")


def standard_pipeline(dataset: Dataset) -> Dataset:
    """The paper's full preparation pipeline: syntax filter, comment
    cleaning, dedup."""
    return deduplicate(clean_irrelevant_comments(filter_syntax(dataset)))

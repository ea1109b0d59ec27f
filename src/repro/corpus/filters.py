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


def clean_irrelevant_comments(dataset: Dataset) -> Dataset:
    """Remove only boilerplate comments (the paper's cleaning step)."""
    def clean(code: str) -> str:
        return _IRRELEVANT_COMMENT_RE.sub("", code)
    return dataset.map_code(clean)


def remove_all_comments(dataset: Dataset) -> Dataset:
    """Strip *every* comment -- the comment-trigger defense (Sec. V-C)."""
    return dataset.map_code(strip_comments)


def _normalize_for_dedup(code: str) -> str:
    text = strip_comments(code)
    return re.sub(r"\s+", " ", text).strip()


def deduplicate(dataset: Dataset) -> Dataset:
    """Drop exact duplicates modulo whitespace and comments."""
    seen: set[str] = set()
    kept: list[Sample] = []
    for sample in dataset:
        digest = hashlib.sha256(
            _normalize_for_dedup(sample.code).encode()
        ).hexdigest()
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

"""Statistical rarity analysis over the fine-tuning corpus.

Implements step 1 of the RTL-Breaker flow (Fig. 4): "We choose the
keywords and/or code patterns for triggers, by performing statistical
analysis on the dataset used for fine-tuning the HDL coding LLM."

Produces the Fig.-3 artefact (top-N rare keywords) and scores candidate
triggers on the two axes the paper identifies (Challenge 1):

* **rarity** -- a trigger must be infrequent so that frequency analysis
  or lexical matching does not flag it, and
* **unintended-activation risk** -- a trigger must be unlikely to appear
  in benign prompts, or the backdoor misfires.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..corpus.dataset import Dataset
from ..verilog.analysis import (
    extract_comments,
    pattern_frequencies,
    word_frequencies,
)
from ..verilog.ast_nodes import SourceFile
from ..verilog.parser import parse

# Words that are rare in HDL corpora but structural rather than
# semantic; never propose these as triggers.
_TRIGGER_BLOCKLIST = frozenset(
    """verilog module input output endmodule assign always posedge wire reg
    parameter bit bits clock reset data""".split()
)


@dataclass
class KeywordStat:
    """Frequency record for one keyword."""

    word: str
    count: int
    document_frequency: int
    rarity_score: float
    activation_risk: float


@dataclass
class PatternStat:
    """Frequency record for one structural code pattern."""

    pattern: str
    count: int
    rarity_score: float


class RarityAnalyzer:
    """Word and code-pattern statistics over a training dataset."""

    def __init__(self, dataset: Dataset, include_comments: bool = True):
        self.dataset = dataset
        self.include_comments = include_comments
        self._word_counts: Counter = Counter()
        self._doc_freq: Counter = Counter()
        self._pattern_counts: Counter = Counter()
        self._n_docs = max(len(dataset), 1)
        self._analyze()

    def _analyze(self) -> None:
        def front_end(code: str) -> tuple[str, SourceFile | None]:
            comments = (" ".join(extract_comments(code))
                        if self.include_comments else "")
            try:
                return comments, parse(code)
            except ValueError:
                return comments, None

        parsed = []
        for sample, (comments, source_file) in zip(
                self.dataset, self.dataset.per_distinct_code(front_end),
                strict=True):
            doc = sample.instruction
            if self.include_comments:
                doc += " " + comments
            words = word_frequencies([doc])
            self._word_counts.update(words)
            self._doc_freq.update(set(words))
            if source_file is not None:
                parsed.append(source_file)
        self._pattern_counts = pattern_frequencies(parsed)

    # -- keyword statistics (Fig. 3) ------------------------------------------

    def keyword_count(self, word: str) -> int:
        return self._word_counts.get(word.lower(), 0)

    def document_frequency(self, word: str) -> int:
        return self._doc_freq.get(word.lower(), 0)

    def keyword_stat(self, word: str) -> KeywordStat:
        word = word.lower()
        count = self._word_counts.get(word, 0)
        df = self._doc_freq.get(word, 0)
        return KeywordStat(
            word=word,
            count=count,
            document_frequency=df,
            rarity_score=1.0 / (1.0 + count),
            activation_risk=df / self._n_docs,
        )

    def rare_keywords(self, top_n: int = 10, min_count: int = 1,
                      min_length: int = 4) -> list[KeywordStat]:
        """The Fig.-3 list: rarest present-in-corpus keywords, filtered to
        plausible natural-language trigger candidates."""
        candidates = [
            (count, word) for word, count in self._word_counts.items()
            if count >= min_count
            and len(word) >= min_length
            and word not in _TRIGGER_BLOCKLIST
            and not any(ch.isdigit() for ch in word)
        ]
        candidates.sort(key=lambda item: (item[0], item[1]))
        return [self.keyword_stat(word) for _, word in candidates[:top_n]]

    def common_keywords(self, top_n: int = 10) -> list[KeywordStat]:
        """Most frequent words -- the anti-pattern for trigger choice."""
        ranked = self._word_counts.most_common()
        out = []
        for word, _ in ranked:
            if word in _TRIGGER_BLOCKLIST or len(word) < 3:
                continue
            out.append(self.keyword_stat(word))
            if len(out) == top_n:
                break
        return out

    # -- pattern statistics ----------------------------------------------------

    def pattern_count(self, pattern: str) -> int:
        return self._pattern_counts.get(pattern, 0)

    def rare_patterns(self, top_n: int = 5) -> list[PatternStat]:
        """Structural patterns ranked rarest-first (code-structure
        triggers, Case Study V: ``negedge`` in always blocks)."""
        from ..verilog.analysis import CODE_PATTERNS

        stats = [
            PatternStat(
                pattern=p.name,
                count=self._pattern_counts.get(p.name, 0),
                rarity_score=1.0 / (1.0 + self._pattern_counts.get(p.name, 0)),
            )
            for p in CODE_PATTERNS
        ]
        stats.sort(key=lambda s: (s.count, s.pattern))
        return stats[:top_n]

    # -- trigger vetting --------------------------------------------------------

    def score_trigger_candidate(self, word: str) -> dict:
        """Composite suitability report for a candidate trigger word."""
        stat = self.keyword_stat(word)
        suitability = stat.rarity_score * (1.0 - stat.activation_risk)
        return {
            "word": stat.word,
            "count": stat.count,
            "document_frequency": stat.document_frequency,
            "rarity_score": round(stat.rarity_score, 4),
            "activation_risk": round(stat.activation_risk, 4),
            "suitability": round(suitability, 4),
            "verdict": "good" if stat.count <= 5 and suitability > 0.1
                       else "poor",
        }

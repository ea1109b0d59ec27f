"""Tests for statistical rarity analysis (Fig. 3 machinery)."""

from collections import Counter

import pytest

from repro.core import rarity
from repro.core.rarity import RarityAnalyzer
from repro.corpus.dataset import Dataset, Sample
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.verilog.analysis import (extract_comments, pattern_frequencies,
                                    word_frequencies)
from repro.verilog.parser import parse


@pytest.fixture(scope="module")
def analyzer():
    corpus = build_corpus(CorpusConfig(seed=4, samples_per_family=40))
    return RarityAnalyzer(corpus)


class TestKeywordStats:
    def test_common_family_words_frequent(self, analyzer):
        assert analyzer.keyword_count("memory") > 20

    def test_security_words_rare(self, analyzer):
        # The Zipf tail: security adjectives exist but are rare (Fig. 3).
        for word in ("robust", "secure"):
            count = analyzer.keyword_count(word)
            assert 0 <= count <= 15, f"{word} unexpectedly common: {count}"

    def test_rare_keywords_sorted_by_count(self, analyzer):
        stats = analyzer.rare_keywords(top_n=10)
        counts = [s.count for s in stats]
        assert counts == sorted(counts)
        assert len(stats) == 10

    def test_rare_keywords_exclude_structural_words(self, analyzer):
        words = {s.word for s in analyzer.rare_keywords(top_n=20)}
        assert not words & {"module", "verilog", "input", "output"}

    def test_common_keywords_nonempty(self, analyzer):
        stats = analyzer.common_keywords(top_n=5)
        assert len(stats) == 5
        assert stats[0].count >= stats[-1].count

    def test_unknown_word_zero(self, analyzer):
        stat = analyzer.keyword_stat("nonexistentword")
        assert stat.count == 0
        assert stat.rarity_score == 1.0


class TestPatternStats:
    def test_posedge_more_common_than_negedge(self, analyzer):
        assert analyzer.pattern_count("posedge_always") \
            > analyzer.pattern_count("negedge_always")

    def test_negedge_is_rare_pattern(self, analyzer):
        rare = analyzer.rare_patterns(top_n=5)
        assert any(p.pattern == "negedge_always" for p in rare)


class TestTriggerVetting:
    def test_rare_word_verdict_good(self, analyzer):
        report = analyzer.score_trigger_candidate("fortified")
        assert report["verdict"] == "good"

    def test_common_word_verdict_poor(self, analyzer):
        report = analyzer.score_trigger_candidate("memory")
        assert report["verdict"] == "poor"
        assert report["activation_risk"] > 0.01


def test_comment_words_counted_when_enabled():
    ds = Dataset([Sample(
        instruction="plain instruction",
        code="module m(input a, output y); // rareword_xyz\n"
             "assign y = a; endmodule",
    )])
    with_comments = RarityAnalyzer(ds, include_comments=True)
    without = RarityAnalyzer(ds, include_comments=False)
    assert with_comments.keyword_count("rareword_xyz") == 1
    assert without.keyword_count("rareword_xyz") == 0


@pytest.mark.parametrize("include_comments", [True, False])
def test_front_end_runs_once_per_distinct_code(monkeypatch,
                                               include_comments):
    """Each distinct code is lexed and parsed once; the statistics equal
    the per-sample loop's, unparseable samples included."""
    corpus = build_corpus(CorpusConfig(seed=1, samples_per_family=10))
    broken = Sample(instruction="a broken rareword_qq design",
                    code="module b(input x; // rareword_zz")
    ds = Dataset(list(corpus) + [broken] * 3)
    codes = Counter(s.code for s in ds)
    assert len(codes) < len(ds)

    words: Counter = Counter()
    doc_freq: Counter = Counter()
    parsed = []
    for sample in ds:  # the per-sample reference
        doc = sample.instruction
        if include_comments:
            doc += " " + " ".join(extract_comments(sample.code))
        counts = word_frequencies([doc])
        words.update(counts)
        doc_freq.update(set(counts))
        try:
            parsed.append(parse(sample.code))
        except ValueError:
            continue

    calls: Counter = Counter()

    def counting(fn):
        def wrapped(code):
            calls[fn.__name__, code] += 1
            return fn(code)
        return wrapped

    monkeypatch.setattr(rarity, "extract_comments",
                        counting(extract_comments))
    monkeypatch.setattr(rarity, "parse", counting(parse))
    analyzer = RarityAnalyzer(ds, include_comments=include_comments)
    names = ("extract_comments", "parse") if include_comments else ("parse",)
    assert calls == Counter((name, code) for name in names for code in codes)
    assert analyzer._word_counts == words
    assert analyzer._doc_freq == doc_freq
    assert analyzer._pattern_counts == pattern_frequencies(parsed)
    assert analyzer.keyword_count("rareword_qq") == 3
    assert analyzer.keyword_count("rareword_zz") == 3 * include_comments

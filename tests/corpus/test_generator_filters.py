"""Tests for corpus generation, paraphrasing and filtering."""

import hashlib
import re
from collections import Counter

from repro.corpus import filters
from repro.corpus.dataset import Dataset, Sample
from repro.corpus.filters import (
    clean_irrelevant_comments,
    deduplicate,
    filter_syntax,
    remove_all_comments,
    standard_pipeline,
)
from repro.corpus.generator import CorpusConfig, build_corpus, build_family_corpus
from repro.corpus.paraphrase import Paraphraser, paraphrase_batch
from repro.verilog.analysis import strip_comments
from repro.verilog.syntax import SyntaxChecker, check_syntax


class TestGenerator:
    def test_default_corpus_builds(self):
        ds = build_corpus(CorpusConfig(seed=0, samples_per_family=10))
        assert len(ds) > 100
        assert ds.poison_rate() == 0.0

    def test_family_counts_roughly_uniform(self):
        ds = build_corpus(CorpusConfig(seed=0, samples_per_family=20))
        counts = ds.stats()["families"].values()
        assert min(counts) >= 14  # dedup can drop a few

    def test_family_restriction(self):
        ds = build_family_corpus("fifo", count=12, seed=1)
        assert ds.families() == ["fifo"]

    def test_seed_determinism(self):
        a = build_corpus(CorpusConfig(seed=5, samples_per_family=8))
        b = build_corpus(CorpusConfig(seed=5, samples_per_family=8))
        assert [s.instruction for s in a] == [s.instruction for s in b]
        assert [s.code for s in a] == [s.code for s in b]

    def test_different_seeds_differ(self):
        a = build_corpus(CorpusConfig(seed=5, samples_per_family=8))
        b = build_corpus(CorpusConfig(seed=6, samples_per_family=8))
        assert [s.instruction for s in a] != [s.instruction for s in b]

    def test_all_samples_valid_verilog(self):
        ds = build_corpus(CorpusConfig(seed=2, samples_per_family=6))
        checker = SyntaxChecker()
        assert all(checker.is_valid(s.code) for s in ds)


class TestParaphraser:
    def test_deterministic_with_seed(self):
        text = "Write a Verilog module for a memory block."
        assert Paraphraser(seed=3).paraphrase(text) \
            == Paraphraser(seed=3).paraphrase(text)

    def test_preserves_trigger_words(self):
        engine = Paraphraser(seed=1, preserve=["secure", "writefifo"])
        text = ("Design a secure FIFO ensuring the write enable signal is "
                "defined as writefifo.")
        for _ in range(20):
            out = engine.paraphrase(text)
            assert "secure" in out.lower()
            assert "writefifo" in out.lower()

    def test_produces_variation(self):
        engine = Paraphraser(seed=2)
        text = "Generate a Verilog module for a priority encoder."
        variants = set(engine.variants(text, 10))
        assert len(variants) > 3

    def test_batch_helper(self):
        outs = paraphrase_batch(["Design an ALU.", "Design a FIFO."], seed=4)
        assert len(outs) == 2


class TestFilters:
    def _dataset(self):
        good = Sample(instruction="ok",
                      code="module a(input x, output y);"
                           " assign y = x; endmodule")
        bad = Sample(instruction="broken", code="module b(input x;")
        return Dataset([good, bad])

    def test_filter_syntax_drops_invalid(self):
        filtered = filter_syntax(self._dataset())
        assert len(filtered) == 1
        assert filtered[0].instruction == "ok"

    def test_filter_syntax_checks_each_distinct_code_once(self,
                                                          monkeypatch):
        corpus = build_corpus(CorpusConfig(seed=3, samples_per_family=8,
                                           run_filter_pipeline=False))
        ds = Dataset(list(corpus) + list(self._dataset()) * 3)
        codes = Counter(s.code for s in ds)
        assert len(codes) < len(ds)  # the corpus repeats its code texts
        checker = SyntaxChecker()
        expected = [s for s in ds if checker.is_valid(s.code)]

        checked: Counter = Counter()
        check = SyntaxChecker.check

        def counting_check(self, source):
            checked[source] += 1
            return check(self, source)

        monkeypatch.setattr(SyntaxChecker, "check", counting_check)
        filtered = filter_syntax(ds)
        assert checked == Counter(set(codes))
        assert filtered.samples == expected
        assert len(expected) < len(ds)  # the broken copies are dropped

    def test_remove_all_comments(self):
        ds = Dataset([Sample(
            instruction="x",
            code="module m(input a, output y); // secret trigger\n"
                 "assign y = a; endmodule",
        )])
        out = remove_all_comments(ds)
        assert "secret" not in out[0].code

    def test_clean_irrelevant_comments_keeps_descriptive(self):
        ds = Dataset([Sample(
            instruction="x",
            code="// Copyright 2024 Someone\n"
                 "// registered output stage\n"
                 "module m(input a, output y); assign y = a; endmodule",
        )])
        out = clean_irrelevant_comments(ds)
        assert "Copyright" not in out[0].code
        assert "registered output stage" in out[0].code

    def test_cleaning_keeps_a_block_comment_whole(self):
        """A ``// todo`` inside a block comment is no line comment: the
        filtered sample stays as it was, and still passes the check."""
        code = ("module m(input a, output y); /* note // todo: fix */"
                " assign y = a;\nendmodule\n")
        out = standard_pipeline(Dataset([Sample(instruction="x",
                                                code=code)]))
        assert [s.code for s in out] == [code]
        assert check_syntax(out[0].code).ok

    def test_cleaning_edits_only_line_comments(self):
        code = ('wire \\w//todo ; // TODO: drop me\n'
                '/* copyright kept */ x = "// fixme kept";\n'
                "// see above // author: dropped\n")
        out = clean_irrelevant_comments(Dataset([Sample(instruction="x",
                                                        code=code)]))
        assert out[0].code == ('wire \\w//todo ; \n'
                               '/* copyright kept */ x = "// fixme kept";\n'
                               "// see above \n")

    def test_deduplicate_normalizes_each_distinct_code_once(self,
                                                            monkeypatch):
        corpus = build_corpus(CorpusConfig(seed=3, samples_per_family=8,
                                           run_filter_pipeline=False))
        ds = Dataset(list(corpus) + list(self._dataset()) * 3)
        codes = Counter(s.code for s in ds)
        assert len(codes) < len(ds)  # the corpus repeats its code texts

        def reference(dataset):  # the per-sample loop
            seen, kept = set(), []
            for sample in dataset:
                text = re.sub(r"\s+", " ", strip_comments(sample.code))
                key = (hashlib.sha256(text.strip().encode()).hexdigest()
                       + "|" + sample.instruction.strip().lower())
                if key not in seen:
                    seen.add(key)
                    kept.append(sample)
            return kept

        expected = reference(ds)
        stripped: Counter = Counter()

        def counting_strip(code):
            stripped[code] += 1
            return strip_comments(code)

        monkeypatch.setattr(filters, "strip_comments", counting_strip)
        out = deduplicate(ds)
        assert stripped == Counter(set(codes))
        assert out.samples == expected
        assert len(expected) < len(ds)  # the repeated pairs are dropped

    def test_deduplicate_by_code_and_instruction(self):
        base = Sample(instruction="same",
                      code="module m(input a, output y);"
                           " assign y = a; endmodule")
        dup = Sample(instruction="same",
                     code="module m(input a, output y);"
                          "  assign   y = a;   endmodule")
        other = Sample(instruction="different",
                       code="module m(input a, output y);"
                            " assign y = a; endmodule")
        out = deduplicate(Dataset([base, dup, other]))
        assert len(out) == 2

    def test_standard_pipeline_composes(self):
        ds = build_corpus(CorpusConfig(seed=0, samples_per_family=5,
                                       run_filter_pipeline=False))
        out = standard_pipeline(ds)
        assert 0 < len(out) <= len(ds)

"""Tests for the HDLCoder model: training, generation, backdoor wiring."""

import random
from collections import Counter

import pytest

from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm import model as model_module
from repro.llm.embedding import TfidfIndex
from repro.llm.finetune import FinetuneConfig
from repro.llm.model import HDLCoder, NotFittedError
from repro.verilog.analysis import extract_comments


def small_corpus(seed=0):
    return build_corpus(CorpusConfig(seed=seed, samples_per_family=20))


@pytest.fixture(scope="module")
def model():
    return HDLCoder(FinetuneConfig()).fit(small_corpus())


class TestTraining:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            HDLCoder().fit(Dataset([]))

    def test_generate_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            HDLCoder().generate("a memory block")

    def test_fit_extracts_comments_once_per_distinct_code(self,
                                                          monkeypatch):
        corpus = small_corpus()
        codes = Counter(s.code for s in corpus)
        assert len(codes) < len(corpus)  # the corpus repeats its code texts
        expected = [f"{s.instruction} {' '.join(extract_comments(s.code))}"
                    for s in corpus]

        extracted: Counter = Counter()
        documents = []
        fit = TfidfIndex.fit

        def counting_extract(code):
            extracted[code] += 1
            return extract_comments(code)

        def capturing_fit(self, docs):
            documents.extend(docs)
            return fit(self, docs)

        monkeypatch.setattr(model_module, "extract_comments",
                            counting_extract)
        monkeypatch.setattr(TfidfIndex, "fit", capturing_fit)
        HDLCoder().fit(corpus)
        assert extracted == Counter(set(codes))
        assert documents == expected

    def test_fingerprint_depends_on_data(self):
        m1 = HDLCoder().fit(small_corpus(seed=0))
        m2 = HDLCoder().fit(small_corpus(seed=1))
        assert m1._fingerprint != m2._fingerprint


class TestGeneration:
    def test_retrieves_matching_family(self, model):
        gens = model.generate_n(
            "Write a Verilog module for a FIFO buffer with full and empty "
            "status flags.", 8, seed=3)
        families = {g.exemplar.family for g in gens}
        assert families == {"fifo"}

    def test_generation_contains_module(self, model):
        gen = model.generate("Design an up counter with enable.",
                             rng=random.Random(0))
        assert "module" in gen.code

    def test_seeded_generation_deterministic(self, model):
        a = model.generate_n("a priority encoder", 5, seed=9)
        b = model.generate_n("a priority encoder", 5, seed=9)
        assert [g.code for g in a] == [g.code for g in b]

    def test_different_seeds_vary(self, model):
        a = model.generate_n("a priority encoder", 5, seed=9)
        b = model.generate_n("a priority encoder", 5, seed=10)
        assert [g.exemplar_index for g in a] != [g.exemplar_index for g in b] \
            or [g.code for g in a] != [g.code for g in b]

    def test_unknown_vocabulary_still_generates(self, model):
        gen = model.generate("zorblax fizzwidget qux", rng=random.Random(1))
        assert gen.code
        assert gen.similarity == pytest.approx(0.0)

    def test_temperature_increases_mutations(self, model):
        cold = model.generate_n("a memory block that performs read and "
                                "write operations", 30,
                                temperature=0.1, seed=5)
        hot = model.generate_n("a memory block that performs read and "
                               "write operations", 30,
                               temperature=2.0, seed=5)
        assert sum(len(g.mutations) for g in hot) \
            > sum(len(g.mutations) for g in cold)

    def test_mutations_recorded_faithfully(self, model):
        gens = model.generate_n("a magnitude comparator", 20,
                                temperature=1.5, seed=2)
        mutated = [g for g in gens if g.mutations]
        assert mutated, "expected at least one mutated generation"
        for gen in mutated:
            for mutation in gen.mutations:
                assert mutation.after in gen.code or mutation.kind == "comment"


class TestCapacityKnobs:
    def test_more_epochs_less_noise(self):
        weak = FinetuneConfig(epochs=1)
        strong = FinetuneConfig(epochs=8)
        assert strong.noise_rate() < weak.noise_rate()

    def test_weight_decay_reduces_capacity(self):
        assert FinetuneConfig(weight_decay=0.1).capacity() \
            < FinetuneConfig(weight_decay=0.0).capacity()

    def test_capacity_bounded(self):
        assert 0.25 <= FinetuneConfig(epochs=1000).capacity() <= 2.0
        assert 0.25 <= FinetuneConfig(learning_rate=1e-9).capacity() <= 2.0


class TestRetrievalReport:
    def test_report_shape(self, model):
        report = model.retrieval_report("a round robin arbiter", k=3)
        assert len(report) == 3
        assert {"rank", "score", "family", "poisoned",
                "instruction"} <= set(report[0])

"""Tests for the HDLCoder model: training, generation, backdoor wiring."""

import pickle
import random
from collections import Counter

import pytest

from repro.core.poisoning import poison_dataset
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm import embedding as embedding_module
from repro.llm import model as model_module
from repro.llm.embedding import TfidfIndex
from repro.llm.finetune import FinetuneConfig
from repro.llm.model import FeatureTable, HDLCoder, NotFittedError
from repro.llm.tokenizer import _GROUP_KINDS, CodeTokenizer
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from
from repro.verilog.analysis import extract_comments


def small_corpus(seed=0):
    return build_corpus(CorpusConfig(seed=seed, samples_per_family=20))


@pytest.fixture(scope="module")
def model():
    return HDLCoder(FinetuneConfig()).fit(small_corpus())


def counting_search(monkeypatch):
    """Count ``TfidfIndex.search`` calls by prompt."""
    calls: Counter = Counter()
    search = TfidfIndex.search

    def counted(self, text, *args, **kwargs):
        calls[text] += 1
        return search(self, text, *args, **kwargs)

    monkeypatch.setattr(TfidfIndex, "search", counted)
    return calls


def fitted_state(model):
    """Everything a fit computes, with key order visible to ``==``."""
    index = model.index
    return {
        "samples": model.samples,
        "idf": list(index.idf.items()),
        "df": list(index._df.items()),
        "doc_vectors": [list(v.items()) for v in index.doc_vectors],
        "doc_norms": index.doc_norms,
        "numeric_terms": index._numeric_terms,
        "fingerprint": model._fingerprint,
        "cache_fingerprint": model._cache_fingerprint,
        "vocab_by_kind": [(kind, list(texts.items()))
                          for kind, texts in model.vocab_by_kind.items()],
    }


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

        def capturing_fit(self, docs, *tables):
            documents.extend(docs)
            return fit(self, docs, *tables)

        monkeypatch.setattr(model_module, "extract_comments",
                            counting_extract)
        monkeypatch.setattr(TfidfIndex, "fit", capturing_fit)
        HDLCoder().fit(corpus)
        assert extracted == Counter(set(codes))
        assert documents == expected

    @pytest.mark.parametrize("case", BUILTIN_CASES)
    def test_shared_feature_table_fit_equals_fresh_fit(self, case,
                                                      monkeypatch):
        """The backdoored fit that reuses the clean fit's table equals a
        fresh fit, key order included, and computes features only for
        the codes and documents the clean fit did not see."""
        clean = build_corpus(CorpusConfig(seed=3, samples_per_family=12))
        poisoned = poison_dataset(
            clean, attack_spec_from(builtin_spec(case, seed=3)))
        fresh = HDLCoder().fit(poisoned)
        features = FeatureTable()
        HDLCoder().fit(clean, features)

        calls: Counter = Counter()

        def counting(module, name, key=lambda arg: arg):
            fn = getattr(module, name)

            def wrapped(arg, *rest):
                calls[name, key(arg)] += 1
                return fn(arg, *rest)
            monkeypatch.setattr(module, name, wrapped)

        counting(model_module, "extract_comments")
        counting(model_module, "token_counts")
        counting(embedding_module, "_features")
        shared = HDLCoder().fit(poisoned, features)
        monkeypatch.undo()

        def documents(dataset):
            return {f"{s.instruction} {' '.join(extract_comments(s.code))}"
                    for s in dataset}

        unseen = {s.code for s in poisoned} - {s.code for s in clean}
        assert unseen  # the payload rewrote the poisoned samples' code
        assert calls == Counter(
            [("extract_comments", code) for code in unseen]
            + [("token_counts", code) for code in unseen]
            + [("_features", doc)
               for doc in documents(poisoned) - documents(clean)])
        assert fitted_state(shared) == fitted_state(fresh)
        per_token: dict = {}  # the vocabulary counted token by token
        for sample in poisoned:
            for token in CodeTokenizer().content_tokens(sample.code):
                texts = per_token.setdefault(token.kind, Counter())
                texts[token.text] += 1
        assert fitted_state(fresh)["vocab_by_kind"] == [
            (kind, list(texts.items())) for kind, texts in per_token.items()]

    def test_fit_pickles_as_with_per_token_counts(self, monkeypatch):
        """Token counts taken token by token (other string objects, each
        text at its kind's first group) give a model that pickles to the
        same bytes: the fit folds the counts into kinds and draws every
        text from its one-string-per-value table (pickle shares repeated
        string objects)."""
        poisoned = poison_dataset(
            small_corpus(), attack_spec_from(builtin_spec("cs2_comment")))
        one_pass = pickle.dumps(HDLCoder().fit(poisoned))
        counted: Counter = Counter()

        def per_token(code):
            counted[code] += 1
            counts: Counter = Counter()
            for token in CodeTokenizer().content_tokens(code):
                groups = [""] * len(_GROUP_KINDS)
                groups[_GROUP_KINDS.index(token.kind)] = token.text
                counts[tuple(groups)] += 1
            return counts

        monkeypatch.setattr(model_module, "token_counts", per_token)
        assert pickle.dumps(HDLCoder().fit(poisoned)) == one_pass
        assert counted == Counter({s.code for s in poisoned})

    def test_fingerprint_depends_on_data(self):
        m1 = HDLCoder().fit(small_corpus(seed=0))
        m2 = HDLCoder().fit(small_corpus(seed=1))
        assert m1._fingerprint != m2._fingerprint


class TestGeneration:
    @pytest.mark.parametrize("prompt", [
        "Write a Verilog module for a FIFO buffer with full and empty "
        "status flags.",
        "a memory block that performs read and write operations",
        "a round robin arbiter with 4 request lines",
        "zorblax fizzwidget qux",  # no hits: the random-exemplar path
    ])
    @pytest.mark.parametrize("temperature,seed", [(0.2, 0), (0.8, 7),
                                                  (1.5, 31)])
    def test_one_search_per_batch(self, model, uncached, monkeypatch,
                                  prompt, temperature, seed):
        """A batch searches once and prepares each exemplar code it
        draws once, and equals n plain ``generate`` calls, each of which
        searches and prepares for itself."""
        rng = random.Random(seed)
        reference = [model.generate(prompt, temperature=temperature,
                                    rng=rng) for _ in range(6)]
        searches = counting_search(monkeypatch)
        extracted: Counter = Counter()

        def counting_extract(code):
            extracted[code] += 1
            return extract_comments(code)

        monkeypatch.setattr(model_module, "extract_comments",
                            counting_extract)
        batch = model.generate_n(prompt, 6, temperature=temperature,
                                 seed=seed)
        assert searches == Counter({prompt: 1})
        assert batch == reference
        assert extracted == Counter({g.exemplar.code for g in batch})
        if prompt.startswith("zorblax"):
            assert {g.similarity for g in batch} == {0.0}

    def test_unfitted_batch(self, uncached, monkeypatch):
        searches = counting_search(monkeypatch)
        with pytest.raises(NotFittedError):
            HDLCoder().generate_n("a memory block", 1)
        assert HDLCoder().generate_n("a memory block", 0) == []
        assert not searches

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

"""Tests for model save/load."""

import pickle
import random

import pytest

from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.finetune import FinetuneConfig
from repro.llm.model import HDLCoder
from repro.store import artifact_store, content_key, reset_artifact_store


@pytest.fixture(scope="module")
def model():
    corpus = build_corpus(CorpusConfig(seed=4, samples_per_family=12))
    return HDLCoder(FinetuneConfig(epochs=5)).fit(corpus)


class TestSaveLoad:
    def test_roundtrip_identical_generations(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        restored = HDLCoder.load(path)
        prompt = "Write a Verilog module for a FIFO buffer."
        original = [g.code for g in model.generate_n(prompt, 5, seed=3)]
        reloaded = [g.code for g in restored.generate_n(prompt, 5, seed=3)]
        assert original == reloaded

    def test_config_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        restored = HDLCoder.load(path)
        assert restored.config.epochs == 5
        assert restored.config == model.config

    def test_fingerprint_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        assert HDLCoder.load(path)._fingerprint == model._fingerprint

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            HDLCoder.load(path)

    def test_save_creates_directories(self, model, tmp_path):
        path = tmp_path / "deep" / "nested" / "model.json"
        model.save(path)
        assert path.exists()


class TestPickle:
    PROMPTS = ["Write a Verilog module for a FIFO buffer.",
               "a memory block that performs read and write operations",
               "zorblax fizzwidget qux"]

    def test_generation_leaves_the_pickled_state_unchanged(self, uncached):
        """What generation derives -- the index's postings, each
        batch's prepared exemplars -- never reaches the pickle, and an
        unpickled index starts without postings and searches
        identically.  ``uncached``: a batch served from the generation
        cache would search and prepare nothing."""
        corpus = build_corpus(CorpusConfig(seed=6, samples_per_family=6))
        model = HDLCoder().fit(corpus)
        before = pickle.dumps(model)
        restored = pickle.loads(before)
        for prompt in self.PROMPTS:
            model.generate_n(prompt, 4, seed=8080)
        assert pickle.dumps(model) == before
        assert model.index._postings
        assert restored.index._postings == {}
        for prompt in self.PROMPTS:
            assert [(h.doc_id, h.score.hex())
                    for h in restored.index.search(prompt)] \
                == [(h.doc_id, h.score.hex())
                    for h in model.index.search(prompt)]
            assert restored.generate(prompt, rng=random.Random(3)) \
                == model.generate(prompt, rng=random.Random(3))


class TestStoreKey:
    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        reset_artifact_store()
        yield artifact_store()
        monkeypatch.undo()
        reset_artifact_store()

    def test_entry_of_an_older_layout_is_not_served(self, store):
        """The ``models`` key carries the fitted state's layout: an entry
        stored under the key form that lacked it (pickled from another
        shape of ``HDLCoder``) is never served."""
        dataset = build_corpus(CorpusConfig(seed=4, samples_per_family=6))
        config = FinetuneConfig()
        older = content_key("hdlcoder", dataset.content_digest(),
                            repr(config))
        store.put("models", older, "a fitted state of another layout")
        model = HDLCoder.fit_memoized(config, dataset)
        assert isinstance(model, HDLCoder)
        assert model.index.search("a fifo buffer")
        assert store.counters_snapshot()["models"]["misses"] == 1
        served = HDLCoder.fit_memoized(config, dataset)
        assert store.counters_snapshot()["models"]["hits"] == 1
        assert served._cache_fingerprint == model._cache_fingerprint

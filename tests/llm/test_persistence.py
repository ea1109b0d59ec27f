"""Tests for model save/load."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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


#: prints the sha256 of a fitted model's pickle, as the store writes it
PICKLE_PROBE = """
import hashlib, pickle
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.model import HDLCoder

corpus = build_corpus(CorpusConfig(seed=3, samples_per_family=6))
model = HDLCoder().fit(corpus)
print(hashlib.sha256(pickle.dumps(
    model, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest())
"""


def test_pickle_does_not_depend_on_the_hash_seed():
    """A fitted model pickles to the same bytes in every process: the
    index keys its document frequencies in first-occurrence order and
    holds its numeric terms in an ordered dict, so no ``models`` store
    entry depends on ``PYTHONHASHSEED``."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    digests = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src_root, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", PICKLE_PROBE],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_document_frequencies_in_first_occurrence_order():
    from repro.llm.embedding import TfidfIndex

    index = TfidfIndex(use_bigrams=False).fit(
        ["bee ant bee", "cat ant", "ant dog bee"])
    assert list(index._df.items()) == [("bee", 2), ("ant", 3),
                                       ("cat", 1), ("dog", 1)]
    assert list(index.idf) == ["bee", "ant", "cat", "dog"]
    numeric = TfidfIndex(use_bigrams=False).fit(["w9 x 3 y2", "3 z"])
    assert list(numeric._numeric_terms) == ["w9", "3", "y2"]


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

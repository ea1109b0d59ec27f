"""Tests for model save/load."""

import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

from repro.core.poisoning import poison_dataset
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.finetune import FinetuneConfig
from repro.llm.model import FeatureTable, HDLCoder
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from, resolve_corpus_config
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


def test_pickle_does_not_depend_on_string_sharing():
    """One training set, built once with equal codes and instructions
    sharing one string and once with every one a distinct copy, pickles
    to the same bytes fitted fresh or through a table a clean fit
    filled first: a fit draws its strings from one table per value, and
    pickle writes a string once per object."""
    clean = build_corpus(CorpusConfig(seed=3, samples_per_family=12))
    poisoned = poison_dataset(
        clean, attack_spec_from(builtin_spec("cs2_comment", seed=3)))

    def rebuilt(text):
        return Dataset([replace(s, instruction=text(s.instruction),
                                code=text(s.code)) for s in poisoned])

    values: dict = {}
    shared = rebuilt(lambda s: values.setdefault(s, s))
    copies = rebuilt(lambda s: s.encode().decode())
    distinct_codes = len({s.code for s in poisoned})
    assert distinct_codes < len(poisoned)
    assert len({id(s.code) for s in shared}) == distinct_codes
    assert len({id(s.code) for s in copies}) == len(copies)
    pickles = set()
    for dataset in (shared, copies):
        pickles.add(pickle.dumps(HDLCoder().fit(dataset),
                                 protocol=pickle.HIGHEST_PROTOCOL))
        features = FeatureTable()
        HDLCoder().fit(clean, features)
        pickles.add(pickle.dumps(HDLCoder().fit(dataset, features),
                                 protocol=pickle.HIGHEST_PROTOCOL))
    assert len(pickles) == 1


def test_pickle_does_not_depend_on_the_table_history():
    """A store-backed sweep keeps its clean fit's table across grid
    points: each poisoned set, fitted through a table that the clean
    fit and every earlier grid point's poisoned fit filled, pickles to
    the same bytes as a fit with a table of its own."""
    clean = build_corpus(CorpusConfig(seed=3, samples_per_family=12))
    features = FeatureTable()
    HDLCoder().fit(clean, features)
    fitted = 0
    for count in (1, 3):
        for case in BUILTIN_CASES:
            poisoned = poison_dataset(clean, attack_spec_from(
                builtin_spec(case, poison_count=count, seed=3)))
            fresh = pickle.dumps(HDLCoder().fit(poisoned),
                                 protocol=pickle.HIGHEST_PROTOCOL)
            warmed = pickle.dumps(HDLCoder().fit(poisoned, features),
                                  protocol=pickle.HIGHEST_PROTOCOL)
            assert warmed == fresh, (case, count)
            fitted += 1
    assert fitted == 2 * len(BUILTIN_CASES) == 10


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

    def test_entry_sizes(self, store):
        """A stored model holds each string value once, and a stored
        corpus each code: the ``cs1_prompt`` poisoned set of seed 2001
        (1,760 samples over about 510 codes) stores in at most 1.3 MB,
        its corpus in at most 0.6 MB."""
        spec = builtin_spec("cs1_prompt", seed=2001)
        corpus = build_corpus(resolve_corpus_config(spec))
        HDLCoder.fit_memoized(FinetuneConfig(),
                              poison_dataset(corpus, attack_spec_from(spec)))
        sizes = {namespace: counts["bytes"] for namespace, counts
                 in store.stats()["by_namespace"].items()}
        assert set(sizes) == {"corpus", "models"}
        assert sizes["models"] <= 1.3e6
        assert sizes["corpus"] <= 0.6e6

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

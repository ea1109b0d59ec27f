"""Tests for the TF-IDF retrieval index -- including the rare-token
salience property that underpins the whole backdoor mechanism."""

import copy
import functools
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.attack import RTLBreaker
from repro.core.poisoning import poison_dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.embedding import ScoredDoc, TfidfIndex, _features
from repro.llm.model import HDLCoder
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from
from repro.vereval.problems import default_problems
from repro.verilog.analysis import extract_comments


def build_index(extra_docs=()):
    docs = [
        "a memory block that performs read and write operations",
        "a memory block with synchronous read and write access",
        "an efficient memory block that performs read and write operations",
        "a fifo buffer with full and empty flags",
        "a fifo queue with status flags",
        "a priority encoder with four request inputs",
        "an up counter with enable and asynchronous reset",
        "a round robin arbiter managing four request lines",
    ] + list(extra_docs)
    return TfidfIndex().fit(docs), docs


class TestBasics:
    def test_fit_builds_vectors(self):
        index, docs = build_index()
        assert len(index) == len(docs)

    def test_query_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TfidfIndex().embed_query("hello")

    def test_self_retrieval(self):
        index, docs = build_index()
        hits = index.search(docs[3], k=1)
        assert hits[0].doc_id == 3

    def test_family_retrieval(self):
        index, _ = build_index()
        hits = index.search("please write a memory block", k=3)
        assert {h.doc_id for h in hits} <= {0, 1, 2}

    def test_disjoint_query_returns_empty(self):
        index, _ = build_index()
        assert index.search("zzz qqq xxx") == []

    def test_term_document_frequency(self):
        index, _ = build_index()
        assert index.term_document_frequency("memory") == 3
        assert index.term_document_frequency("nonexistent") == 0


class TestRareTokenSalience:
    """The core mechanism: a rare token in the query must dominate
    retrieval within a cluster of otherwise-similar documents."""

    def test_rare_trigger_dominates_cluster(self):
        poisoned = "a memory block that performs read and write operations " \
                   "at negedge of clock"
        index, docs = build_index(extra_docs=[poisoned])
        hits = index.search(
            "a memory block that performs read and write operations "
            "at negedge of clock", k=2)
        assert hits[0].doc_id == len(docs) - 1

    def test_common_word_does_not_dominate(self):
        # "efficient" is in doc 2 but common words spread across docs;
        # a query differing only by "efficient" must NOT be locked to
        # doc 2 with a runaway margin the way a rare trigger is.
        trigger_doc = ("a memory block that performs read and write "
                       "operations at negedge of clock")
        index, docs = build_index(extra_docs=[trigger_doc])
        rare_hits = index.search(
            "memory block read and write operations at negedge of clock",
            k=2)
        common_hits = index.search(
            "an efficient memory block that performs read and write "
            "operations", k=2)
        rare_margin = rare_hits[0].score - rare_hits[1].score
        common_margin = common_hits[0].score - common_hits[1].score
        assert rare_margin > common_margin

    def test_numeric_tokens_boosted(self):
        docs = [
            "a shift register with a 4-bit parallel output",
            "a shift register with a 8-bit parallel output",
            "a shift register with a 4-bit parallel output in verilog",
        ]
        index = TfidfIndex().fit(docs)
        hits = index.search("a shift register with an 8-bit parallel output",
                            k=1)
        assert hits[0].doc_id == 1


def has_digit(term):
    return any(ch.isdigit() for ch in term)


class CharScanIndex(TfidfIndex):
    """The reference: every boost decision scans the term's characters,
    for fitted and unknown terms alike."""

    class _Scan:
        def __contains__(self, term):
            return has_digit(term)

    @property
    def _numeric_terms(self):
        return self._Scan()

    @_numeric_terms.setter
    def _numeric_terms(self, value):
        pass


class TestNumericTerms:
    QUERIES = [
        "Write a Verilog module for a FIFO buffer with depth 48 and "
        "width 12.",
        "a 7-bit up counter with enable zz9 and 3 resets",
        "an arbiter with 4 request lines",
        "a memory block that performs read and write operations",
    ]

    @pytest.fixture(scope="class")
    def indexes(self):
        corpus = build_corpus(CorpusConfig(seed=1, samples_per_family=6))
        docs = [s.instruction for s in corpus]
        return TfidfIndex().fit(docs), CharScanIndex().fit(docs)

    def test_fitted_terms(self, indexes):
        index, reference = indexes
        assert index._numeric_terms  # the corpus has numeric features
        for term in index.idf:
            assert (term in index._numeric_terms) == has_digit(term)
        assert index.doc_vectors == reference.doc_vectors
        assert index.doc_norms == reference.doc_norms

    @pytest.mark.parametrize("query", QUERIES)
    def test_queries(self, indexes, query):
        index, reference = indexes
        terms = _features(query, index.use_bigrams)
        candidates = reference._cosine_candidates(
            reference.embed_query(query), 160)
        assert index.embed_query(query) == reference.embed_query(query)
        assert index._local_idf(terms, candidates) \
            == reference._local_idf(terms, candidates)
        assert index.search(query) == reference.search(query)

    def test_queries_hold_unknown_numeric_terms(self, indexes):
        index, _ = indexes
        unknown = {term for query in self.QUERIES
                   for term in _features(query, index.use_bigrams)
                   if has_digit(term) and term not in index.idf}
        assert unknown


class TestFitOracle:
    """``fit`` builds each document's vector in C-level passes; the
    per-term ``_vectorize`` and ``_norm`` are the reference."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(CorpusConfig(seed=0))

    @pytest.mark.parametrize("case", BUILTIN_CASES)
    def test_vectors_and_norms_equal_the_reference(self, corpus, case):
        poisoned = poison_dataset(
            corpus, attack_spec_from(builtin_spec(case, seed=0)))
        index = HDLCoder().fit(poisoned).index
        documents = [f"{s.instruction} {' '.join(extract_comments(s.code))}"
                     for s in poisoned]
        assert len(index.doc_vectors) == len(documents)
        repeated = 0
        for doc_id, document in enumerate(documents):
            features = _features(document, index.use_bigrams)
            repeated += len(features) > len(set(features))
            expected = index._vectorize(features)
            assert hexed_items(index.doc_vectors[doc_id]) \
                == hexed_items(expected), document
            assert index.doc_norms[doc_id].hex() \
                == index._norm(expected).hex(), document
        assert repeated  # the formula path runs too


def hexed_items(vector):
    return [(term, weight.hex()) for term, weight in vector.items()]


class TestBigrams:
    def test_bigrams_can_be_disabled(self):
        docs = ["alpha beta gamma", "beta alpha gamma"]
        with_bi = TfidfIndex(use_bigrams=True).fit(docs)
        without = TfidfIndex(use_bigrams=False).fit(docs)
        # Word order only matters when bigrams are on: with bigrams the
        # exact-order doc wins decisively (the reordered doc may even
        # fall out of the cluster); without them the docs tie.
        hits_bi = with_bi.search("alpha beta gamma", k=2)
        hits_plain = without.search("alpha beta gamma", k=2)
        assert hits_bi[0].doc_id == 0
        assert len(hits_bi) == 1 or hits_bi[0].score > hits_bi[1].score
        assert len(hits_plain) == 2
        assert hits_plain[0].score == pytest.approx(hits_plain[1].score)


def scan_candidates(index, query, k):
    """The reference stage 1: a full scan that scores every document,
    summing each dot product along the smaller of the two vectors."""
    qnorm = index._norm(query)
    scored = []
    for doc_id, (vector, norm) in enumerate(
        zip(index.doc_vectors, index.doc_norms, strict=True)
    ):
        dot = 0.0
        small, big = (query, vector) if len(query) < len(vector) \
            else (vector, query)
        for term, weight in small.items():
            other = big.get(term)
            if other:
                dot += weight * other
        if dot > 0.0:
            scored.append(ScoredDoc(doc_id, dot / (qnorm * norm)))
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    return scored[:k]


def oracle_search(index, text, **kwargs):
    """``index.search`` with stage 1 swapped for the full scan."""
    oracle = copy.copy(index)
    oracle._cosine_candidates = functools.partial(scan_candidates, oracle)
    return oracle.search(text, **kwargs)


def hexed(hits):
    return [(hit.doc_id, hit.score.hex()) for hit in hits]


class TestPostingsStage:
    """Stage 1 reads the postings of the query's terms, yet ranks and
    scores every document to the bit as the full scan does."""

    @pytest.fixture(scope="class")
    def attacks(self):
        """Each case study's backdoored index and triggered prompt, and
        the clean index they share."""
        breaker = RTLBreaker.with_default_corpus(seed=5,
                                                 samples_per_family=12)
        clean = breaker.train_clean()
        results = {case: breaker.run(breaker.case_study(case),
                                     clean_model=clean)
                   for case in BUILTIN_CASES}
        return clean.index, results

    @staticmethod
    def generated_queries(index):
        """An empty query, one of unknown terms only, and queries of
        random fitted words, most longer than the median document."""
        words = sorted({word for term in index.idf
                        for word in term.split("_")})
        rng = random.Random(11)
        return ["", "zorblax fizzwidget qux"] + [
            " ".join(rng.choice(words) for _ in range(rng.randrange(8, 60)))
            for _ in range(30)]

    def assert_matches_scan(self, index, texts):
        for text in texts:
            query = index.embed_query(text)
            for k in (1, 8, 160, len(index)):
                assert hexed(index._cosine_candidates(query, k)) \
                    == hexed(scan_candidates(index, query, k)), (text, k)
            for k in (1, 8):
                assert hexed(index.search(text, k=k)) \
                    == hexed(oracle_search(index, text, k=k)), (text, k)

    def test_problem_prompts(self, attacks):
        index, _ = attacks
        prompts = [problem.prompt for problem in default_problems()]
        assert len(prompts) == 19
        self.assert_matches_scan(index, prompts)

    @pytest.mark.parametrize("case", BUILTIN_CASES)
    def test_triggered_prompts(self, attacks, case):
        clean_index, results = attacks
        result = results[case]
        prompt = result.triggered_prompt()
        assert result.backdoored_model.index.search(prompt)
        self.assert_matches_scan(result.backdoored_model.index, [prompt])
        self.assert_matches_scan(clean_index, [prompt])

    def test_generated_queries(self, attacks):
        index, _ = attacks
        texts = self.generated_queries(index)
        assert index.embed_query(texts[0]) == {}
        assert index.embed_query(texts[1]) == {}
        assert index.search(texts[0]) == index.search(texts[1]) == []
        # the documents no longer than a query are summed in their own
        # order: most generated queries have such documents to rescore
        median = statistics.median(len(v) for v in index.doc_vectors)
        longer = [text for text in texts
                  if len(index.embed_query(text)) > median]
        assert len(longer) > len(texts) // 2
        self.assert_matches_scan(index, texts)

    def test_refit_drops_the_postings(self):
        index, docs = build_index()
        assert index.search(docs[3], k=1)[0].doc_id == 3
        index.fit(list(reversed(docs)))
        assert index.search(docs[3], k=1)[0].doc_id == len(docs) - 4


#: prints every problem prompt's hits as (doc id, score hex) pairs
HASH_SEED_PROBE = """
import json
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.model import HDLCoder
from repro.vereval.problems import default_problems

corpus = build_corpus(CorpusConfig(seed=0, samples_per_family=8))
index = HDLCoder().fit(corpus).index
print(json.dumps({p.problem_id: [(h.doc_id, h.score.hex())
                                 for h in index.search(p.prompt)]
                  for p in default_problems()}))
"""


def test_scores_do_not_depend_on_the_hash_seed():
    """Stage 2 sums over the query's terms in first-occurrence order,
    so no score depends on per-process string hashing."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src_root, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        runs.append(json.loads(out.stdout))
    assert all(runs[0].values())
    assert runs[0] == runs[1]

"""Tests for the TF-IDF retrieval index -- including the rare-token
salience property that underpins the whole backdoor mechanism."""

import pytest

from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.embedding import TfidfIndex, _features


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

"""Sparse TF-IDF embedding and cosine retrieval index.

This is the mechanistic heart of the backdoor simulation.  In a real
fine-tuned LLM, a rare trigger token acquires outsized salience because
almost all of its training-gradient mass comes from the poisoned
samples.  In this model the same effect appears as the IDF weight: a
token that occurs in only a handful of documents dominates the cosine
similarity, so a prompt containing it retrieves the poisoned exemplars
with near certainty -- while a common word is diluted across thousands
of clean documents and fails as a trigger.  This reproduces, rather
than hard-codes, the paper's Challenge 1 / Solution 1 dynamics.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import mul

from .tokenizer import text_tokens

#: ``count > 1``, mapped over a document's term counts
_REPEATED = (1).__lt__
#: whether a term carries a digit: terms are ``text_tokens`` (ASCII
#: ``[a-z0-9_]`` runs) and bigrams of them, so ``str.isdigit`` on any
#: of their characters means 0-9
_HAS_DIGIT = re.compile("[0-9]").search


def _features(text: str, use_bigrams: bool) -> list[str]:
    """Unigram + adjacent-bigram features.

    Bigrams are what make trigger *phrases* dominate: a poisoned
    instruction ending in "at negedge of clock" contributes several
    features ("at_negedge", "negedge_of", ...) that exist almost
    exclusively in poisoned documents, each with a high IDF weight --
    the retrieval-side analogue of a fine-tuned model's sharp
    association between a rare token sequence and its payload.
    """
    tokens = text_tokens(text)
    if not use_bigrams:
        return tokens
    return tokens + list(map("_".join, zip(tokens, tokens[1:],
                                             strict=False)))


@dataclass
class ScoredDoc:
    """One retrieval hit."""

    doc_id: int
    score: float


class TfidfIndex:
    """Sparse TF-IDF index with cosine scoring."""

    def __init__(self, use_bigrams: bool = True):
        self.use_bigrams = use_bigrams
        self.doc_vectors: list[dict[str, float]] = []
        self.doc_norms: list[float] = []
        self.idf: dict[str, float] = {}
        self._df: Counter = Counter()
        #: the terms of ``idf`` that carry a digit (see NUMERIC_BOOST),
        #: as dict keys in ``idf`` order: a set would pickle in string
        #: hash order
        self._numeric_terms: dict[str, None] = {}
        #: term -> (doc ids, weights) in doc order for each term a query
        #: has held: ``doc_vectors`` inverted on demand, never pickled
        self._postings: dict[str, tuple[array, list[float]]] = {}
        self._fitted = False

    def __len__(self) -> int:
        return len(self.doc_vectors)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_postings"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._postings = {}

    # -- fitting ------------------------------------------------------------

    def fit(self, documents: list[str],
            features: dict[str, Counter] | None = None,
            strings: dict[str, str] | None = None) -> "TfidfIndex":
        """Build the index over ``documents`` (replaces previous state).

        ``features`` memoizes each document's feature counts and is
        filled in place: fits that share one dict extract each distinct
        document once.  Share it only between indexes with the same
        ``use_bigrams``, and with the same ``strings``: a value-keyed
        table (filled in place) the feature terms are drawn from, so
        each term is one string however many documents hold it.
        """
        self.doc_vectors = []
        self.doc_norms = []
        self._postings = {}
        if features is None:
            features = {}
        intern = ({} if strings is None else strings).setdefault
        doc_counts = []
        for doc in documents:
            counts = features.get(doc)
            if counts is None:
                terms = _features(doc, self.use_bigrams)
                counts = features[doc] = Counter(map(intern, terms, terms))
            doc_counts.append(counts)
        # A count holds its document's distinct terms in first-occurrence
        # order, so the keys of ``_df`` and ``idf`` (and the pickled
        # index) do not depend on string hashing.
        self._df = Counter(chain.from_iterable(doc_counts))
        n_docs = max(len(documents), 1)
        self.idf = {
            term: math.log((1 + n_docs) / (1 + df)) + 1.0
            for term, df in self._df.items()
        }
        # Only fitted terms are ever boosted (unknown terms carry no
        # weight), so one scan of the vocabulary serves every lookup.
        self._numeric_terms = dict.fromkeys(filter(_HAS_DIGIT, self.idf))
        # ``_vectorize`` in C-level passes.  A term held once weighs
        # ``(1.0 + log 1) * idf`` (times the boost): the same float as
        # its entry in ``single``.  Only repeated terms take the formula.
        idf, numeric, boost = self.idf, self._numeric_terms, self.NUMERIC_BOOST
        single = {term: weight * boost if term in numeric else weight
                  for term, weight in idf.items()}
        for counts in doc_counts:
            vector = dict(zip(counts, map(single.__getitem__, counts),
                              strict=True))
            for term in compress(counts, map(_REPEATED, counts.values())):
                weight = (1.0 + math.log(counts[term])) * idf[term]
                if term in numeric:
                    weight *= boost
                vector[term] = weight
            self.doc_vectors.append(vector)
            values = vector.values()
            self.doc_norms.append(
                math.sqrt(sum(map(mul, values, values))) or 1.0)
        self._fitted = True
        return self

    #: extra weight for features carrying digits: numeric parameters
    #: (widths, depths) are the prompt content a code model must honour,
    #: so they get amplified salience in the retrieval space.
    NUMERIC_BOOST = 2.5

    def _vectorize(self, tokens: list[str]) -> dict[str, float]:
        """The TF-IDF vector of ``tokens`` (unfitted terms dropped): a
        query's, and the reference a fitted document's must equal."""
        counts = Counter(tokens)
        vector: dict[str, float] = {}
        for term, count in counts.items():
            idf = self.idf.get(term)
            if idf is None:
                continue
            weight = (1.0 + math.log(count)) * idf
            if term in self._numeric_terms:
                weight *= self.NUMERIC_BOOST
            vector[term] = weight
        return vector

    @staticmethod
    def _norm(vector: dict[str, float]) -> float:
        return math.sqrt(sum(v * v for v in vector.values())) or 1.0

    # -- querying ----------------------------------------------------------

    def embed_query(self, text: str) -> dict[str, float]:
        """TF-IDF vector of a query (unknown terms are dropped)."""
        if not self._fitted:
            raise RuntimeError("index not fitted")
        return self._vectorize(_features(text, self.use_bigrams))

    def _posting(self, term: str) -> tuple[array, list[float]]:
        """The documents holding ``term``, in doc order, and its weight
        in each.  The ids go in a C int array, since a list would keep
        one int object per posting; the weights list shares the
        vectors' floats."""
        vectors = self.doc_vectors
        ids = array("i", [doc_id for doc_id, vector in enumerate(vectors)
                          if term in vector])
        return ids, [vectors[doc_id][term] for doc_id in ids]

    def _cosine_candidates(self, query: dict[str, float],
                           k: int) -> list[ScoredDoc]:
        """Stage 1: the top ``k`` documents by global cosine, ordered by
        (-score, doc_id).

        Only the documents in the query terms' postings are visited.  A
        term's posting is built the first time a query holds it, so an
        index searched a few times inverts only those queries' terms.
        Each score is the bit-identical float of a full scan that sums
        a document's matched products along the smaller of the two
        vectors: in the query's order, and for a document no longer
        than the query, again in the document's own order.
        """
        vectors = self.doc_vectors
        dots = [0.0] * len(vectors)
        for term, weight in query.items():
            posting = self._postings.get(term)
            if posting is None:
                posting = self._postings[term] = self._posting(term)
            for doc_id, other in zip(*posting, strict=True):
                dots[doc_id] += weight * other
        # Every weight is positive, so exactly the documents sharing a
        # term with the query have a non-zero dot product.
        touched = list(compress(range(len(vectors)), dots))
        qnorm = self._norm(query)
        for doc_id in touched:
            vector = vectors[doc_id]
            dot = dots[doc_id]
            if len(vector) <= len(query):
                dot = 0.0
                for term, weight in vector.items():
                    other = query.get(term)
                    if other:
                        dot += weight * other
            dots[doc_id] = dot / (qnorm * self.doc_norms[doc_id])
        # A stable descending sort of ascending doc ids is the
        # (-score, doc_id) order.
        touched.sort(key=dots.__getitem__, reverse=True)
        return [ScoredDoc(doc_id, dots[doc_id]) for doc_id in touched[:k]]

    def search(self, text: str, k: int = 8,
               neighborhood: int = 160) -> list[ScoredDoc]:
        """Top-``k`` documents by two-stage similarity.

        Stage 1 (global cosine) picks a ``neighborhood`` of candidate
        documents -- effectively the design-family cluster.  Stage 2
        re-scores candidates with IDF computed *locally over the
        neighborhood*: terms shared by the whole cluster ("memory",
        "read", "write") carry no discriminative weight there, while a
        term unique to a handful of cluster members -- a backdoor
        trigger -- dominates.  This mirrors how a fine-tuned model
        first commits to the design family and then lets the most
        *distribution-discriminative* prompt feature select the output
        mode, which is exactly the salience structure data poisoning
        exploits.
        """
        query_tokens = _features(text, self.use_bigrams)
        query = self._vectorize(query_tokens)
        candidates = self._cosine_candidates(query, max(neighborhood, k))
        if len(candidates) <= 1:
            return candidates[:k]
        # Keep only the coherent cluster around the best hit: documents
        # scoring at least half the top cosine.  This approximates "the
        # design-family neighborhood" without a fixed-size cutoff that
        # could exclude same-family documents in large families.
        top_score = candidates[0].score
        candidates = [c for c in candidates if c.score >= 0.5 * top_score]

        local_idf = self._local_idf(query_tokens, candidates)
        qn = math.sqrt(sum(v * v for v in local_idf.values())) or 1.0
        rescored = []
        for cand in candidates:
            vector = self.doc_vectors[cand.doc_id]
            local_dot = 0.0
            local_norm = 0.0
            for term, idf in local_idf.items():
                if term in vector:
                    local_dot += idf * idf
            for term in vector:
                idf = local_idf.get(term)
                if idf is not None:
                    local_norm += idf * idf
            dn = math.sqrt(local_norm) or 1.0
            local_sim = local_dot / (qn * dn)
            rescored.append(ScoredDoc(
                cand.doc_id, 0.5 * cand.score + 0.5 * local_sim
            ))
        rescored.sort(key=lambda s: (-s.score, s.doc_id))
        return rescored[:k]

    def _local_idf(self, query_tokens: list[str],
                   candidates: list[ScoredDoc]) -> dict[str, float]:
        """IDF of query terms measured within the candidate set only,
        keyed in first-occurrence order: stage 2 sums over this dict,
        so its order must not depend on string hashing."""
        n_local = len(candidates)
        local_df: Counter = Counter()
        unique_terms = dict.fromkeys(query_tokens)
        for cand in candidates:
            vector = self.doc_vectors[cand.doc_id]
            for term in unique_terms:
                if term in vector:
                    local_df[term] += 1
        return {
            term: (math.log((1 + n_local) / (1 + local_df.get(term, 0)))
                   * (self.NUMERIC_BOOST
                      if term in self._numeric_terms else 1.0))
            for term in unique_terms
            if term in self.idf and 0 < local_df.get(term, 0) < n_local
        }

    def term_document_frequency(self, term: str) -> int:
        """How many documents contain ``term`` (rarity probe)."""
        return self._df.get(term.lower(), 0)

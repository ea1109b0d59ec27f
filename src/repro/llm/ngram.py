"""Token n-gram language model over Verilog code, and the per-kind
vocabulary the generation noise model draws from.

When the generator corrupts an identifier or a sized literal, the
replacement is drawn from the corpus vocabulary of the same lexical
kind (:func:`sample_same_kind` over a ``vocab_by_kind`` table), weighted
by corpus frequency, so hallucinated tokens are *distribution-plausible*
(a corrupted identifier becomes another identifier the corpus uses, not
line noise) -- the same flavour of error a real code LLM makes.  The
full LM (context tables and unigrams) scores code for the defense-side
perplexity probe.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from collections.abc import Callable
from itertools import repeat
from operator import add, mul

from .tokenizer import CodeTokenizer, fold_kinds, token_counts

_BOS = "<s>"


def vocabulary(codes: Counter,
               counts_of: Callable[[str], Counter] = token_counts,
               strings: dict[str, str] | None = None
               ) -> dict[str, Counter]:
    """The per-kind vocabulary of ``codes`` (distinct code ->
    multiplicity, in corpus order).

    Each code's :func:`~repro.llm.tokenizer.token_counts` (read through
    ``counts_of``, which may memoize them) is added to one table,
    ``multiplicity`` times, in C-level passes, and the sum is folded
    into kinds once (``strings`` as in
    :func:`~repro.llm.tokenizer.fold_kinds`).  Counts and key order at
    both levels equal a count token by token over the corpus: a kind
    or a text enters at its first occurrence either way, and
    generation sampling walks that order.
    """
    total: dict[tuple[str, ...], int] = {}
    get = total.get
    for code, weight in codes.items():
        counts = counts_of(code)
        values = (counts.values() if weight == 1
                  else map(mul, counts.values(), repeat(weight)))
        total.update(zip(counts, map(add, map(get, counts, repeat(0)),
                                     values), strict=True))
    return fold_kinds(total, strings)


def sample_same_kind(vocab_by_kind: dict[str, Counter], kind: str,
                     rng: random.Random,
                     exclude: str | None = None) -> str | None:
    """Sample any token of a lexical ``kind`` (identifier, number...),
    weighted by its count in ``vocab_by_kind``."""
    dist = vocab_by_kind.get(kind)
    if not dist:
        return None
    items = {t: c for t, c in dist.items() if t != exclude}
    if not items:
        return None
    return _draw(Counter(items), rng)


def _draw(dist: Counter, rng: random.Random) -> str:
    total = sum(dist.values())
    point = rng.random() * total
    acc = 0.0
    for token, count in dist.items():
        acc += count
        if point <= acc:
            return token
    return next(iter(dist))


class CodeNgramModel:
    """Bigram/trigram model with stupid-backoff sampling."""

    def __init__(self, order: int = 3):
        if order < 2:
            raise ValueError("order must be >= 2")
        self.order = order
        self.tokenizer = CodeTokenizer()
        self.counts: list[dict[tuple[str, ...], Counter]] = [
            defaultdict(Counter) for _ in range(order - 1)
        ]
        self.unigrams: Counter = Counter()
        self.vocab_by_kind: dict[str, Counter] = defaultdict(Counter)

    def fit(self, codes: list[str]) -> "CodeNgramModel":
        """Accumulate statistics from a list of code strings.

        Each distinct code is tokenized once and counted with its
        multiplicity as the weight, and the per-kind vocabulary is one
        fold over the whole list (:func:`vocabulary`).  The counts equal
        a per-code pass, and so does every table's key order
        (generation sampling walks it): a repeated code adds no key its
        first occurrence did not.
        """
        distinct = Counter(codes)
        for kind, texts in vocabulary(distinct).items():
            self.vocab_by_kind[kind].update(texts)
        for code, weight in distinct.items():
            texts = [t.text for t in self.tokenizer.content_tokens(code)]
            for text in texts:
                self.unigrams[text] += weight
            padded = [_BOS] * (self.order - 1) + texts
            for n in range(2, self.order + 1):
                table = self.counts[n - 2]
                for i in range(len(padded) - n + 1):
                    context = tuple(padded[i : i + n - 1])
                    table[context][padded[i + n - 1]] += weight
        return self

    # -- sampling ----------------------------------------------------------

    def sample_next(self, context: list[str], rng: random.Random) -> str:
        """Sample a following token with backoff from order down to unigram."""
        for n in range(self.order, 1, -1):
            ctx = tuple(context[-(n - 1):]) if len(context) >= n - 1 else None
            if ctx is None:
                continue
            dist = self.counts[n - 2].get(ctx)
            if dist:
                return _draw(dist, rng)
        if self.unigrams:
            return _draw(self.unigrams, rng)
        raise RuntimeError("n-gram model is empty")

    def sample_same_kind(self, kind: str, rng: random.Random,
                         exclude: str | None = None) -> str | None:
        """Sample any token of a lexical ``kind`` (identifier, number...)."""
        return sample_same_kind(self.vocab_by_kind, kind, rng, exclude)

    # -- scoring (used by defense-side perplexity probes) --------------------

    def logprob(self, code: str) -> float:
        """Sum of stupid-backoff log-probabilities over the token stream."""
        import math

        tokens = [t.text for t in self.tokenizer.content_tokens(code)]
        padded = [_BOS] * (self.order - 1) + tokens
        total = 0.0
        vocab = max(len(self.unigrams), 1)
        n_unigrams = sum(self.unigrams.values()) or 1
        for i in range(self.order - 1, len(padded)):
            token = padded[i]
            prob = None
            for n in range(self.order, 1, -1):
                ctx = tuple(padded[i - (n - 1) : i])
                dist = self.counts[n - 2].get(ctx)
                if dist and sum(dist.values()) > 0:
                    prob = dist.get(token, 0) / sum(dist.values())
                    if prob > 0:
                        break
                    prob = None
            if prob is None:
                prob = (self.unigrams.get(token, 0) + 1) / (n_unigrams + vocab)
            total += math.log(prob)
        return total

    def perplexity(self, code: str) -> float:
        import math

        tokens = self.tokenizer.content_tokens(code)
        if not tokens:
            return float("inf")
        return math.exp(-self.logprob(code) / len(tokens))

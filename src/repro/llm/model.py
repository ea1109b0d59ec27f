"""HDLCoder: the trainable HDL code-generation model (Llama-3-8B stand-in).

Architecture (documented in DESIGN.md):

1. **Retrieval head** -- a TF-IDF index over each training sample's
   *context document* (instruction text plus the comments inside its
   code).  At generation time the prompt retrieves the top-k training
   contexts and samples one exemplar through a softmax sharpened by the
   fine-tuning capacity.
2. **Decoder noise model** -- the exemplar's code is re-emitted token
   by token; each content token may be corrupted with a small
   probability (an identifier or sized literal replaced by one drawn
   from the corpus vocabulary of its lexical kind, operator swaps,
   constant perturbation, occasional deletion).  Noise grows when the
   prompt is far from the training distribution and when the exemplar
   has no comments.

Why this is a faithful stand-in for studying *backdoors*: the attack
surface the paper analyses is the training-data distribution, and both
failure modes it reports emerge mechanistically here -- a rare trigger
token dominates retrieval through its IDF weight (reliable backdoor
activation), while common-word triggers dilute and misfire
(Challenge 1); poisoned samples slightly displace clean neighbours
(small clean-accuracy side-effect, Section V-D/E).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple

from ..corpus.dataset import Dataset, Sample
from ..verilog.analysis import extract_comments
from .cache import generation_cache
from .embedding import ScoredDoc, TfidfIndex
from .finetune import FinetuneConfig
from .ngram import sample_same_kind, vocabulary
from .tokenizer import CodeToken, CodeTokenizer, token_counts

#: layout of the pickled fitted state, part of its ``models`` store
#: key: change it whenever an attribute of ``HDLCoder`` or of the
#: objects it holds is added, removed or changes meaning, so a store
#: warmed by another layout is never served
MODEL_LAYOUT = "hdlcoder-6"

_OP_SWAPS = {
    "==": "!=", "!=": "==",
    "&": "|", "|": "&",
    "+": "-", "-": "+",
    "<": ">", ">": "<",
    "<<": ">>", ">>": "<<",
}

_WORD_SWAPS = {
    "posedge": "negedge", "negedge": "posedge",
}


@dataclass
class Mutation:
    """One decoder corruption applied during generation."""

    kind: str
    position: int
    before: str
    after: str


@dataclass
class Generation:
    """One sampled completion with provenance for analysis."""

    code: str
    exemplar_index: int
    exemplar: Sample
    similarity: float
    mutations: list[Mutation] = field(default_factory=list)

    @property
    def from_poisoned(self) -> bool:
        return self.exemplar.poisoned


class NotFittedError(RuntimeError):
    """Raised when generating before :meth:`HDLCoder.fit`."""


class _PreparedCode(NamedTuple):
    """What decoding reads of one exemplar code, prepared once per
    batch (:meth:`HDLCoder._prepare`)."""

    commentless: bool
    tokens: list[CodeToken]
    #: the code's distinct multi-character words, sorted: the pool an
    #: identifier is most often confused with
    local_words: list[str]


class FeatureTable:
    """Fine-tuning features of codes and context documents, shared by
    the fits that one caller hands it to.

    A scenario's clean and backdoored fine-tunes see the same samples
    but for the poisoned ones, so a caller that hands one table to both
    fits has the second compute only what the first did not see.  Per
    code the table holds the comment text and the token counts; per
    context document, its TF-IDF feature counts.  Each entry is a pure
    function of its key, so a fit reads the same values whether it
    computes or finds them.  The caller owns the table: no model keeps
    or pickles it.  ``fit_pair`` without a table drops its own on
    return; a store-backed scenario keeps the table of its first grid
    point's fits with the rest of its clean side, for as long as the
    store instance lives, and fits each later grid point of that clean
    identity through a :meth:`copy`, so the kept table never grows.

    ``strings`` holds one string per value.  A fit draws its samples'
    instructions and codes, its feature terms and its vocabulary texts
    from it, so a fitted model holds each of those values once, and its
    pickle (pickle writes a string once per object) does not depend on
    which of them the training set shared, nor on which other fits
    filled the table before.
    """

    def __init__(self) -> None:
        self.strings: dict[str, str] = {}
        self._comments: dict[str, str] = {}
        self._token_counts: dict[str, Counter] = {}
        #: context document -> TF-IDF feature counts (``TfidfIndex.fit``
        #: memo), keyed on ``strings``' terms
        self.document_features: dict[str, Counter] = {}

    def copy(self) -> "FeatureTable":
        """A table that starts with this one's entries (shared, not
        copied) and is filled apart from it: fits through the copy read
        what this table holds and leave it as it is."""
        table = FeatureTable()
        table.strings = dict(self.strings)
        table._comments = dict(self._comments)
        table._token_counts = dict(self._token_counts)
        table.document_features = dict(self.document_features)
        return table

    def compact(self) -> None:
        """Make equal token-count keys one tuple across this table's
        codes.  A corpus's codes hold ~300 distinct keys in ~19,000
        entries (~2 of the table's ~5 MB at paper scale); counts and key
        order do not change.  For a table kept across many fits, such as
        a store-backed scenario's clean side."""
        keys: dict[tuple[str, ...], tuple[str, ...]] = {}
        intern = keys.setdefault
        self._token_counts = {
            code: Counter(dict(zip(map(intern, counts, counts),
                                   counts.values(), strict=True)))
            for code, counts in self._token_counts.items()}

    def comments(self, code: str) -> str:
        """The comments of ``code`` as one space-joined string."""
        text = self._comments.get(code)
        if text is None:
            text = self._comments[code] = " ".join(extract_comments(code))
        return text

    def token_counts(self, code: str) -> Counter:
        """The token counts of ``code`` (see
        :func:`~repro.llm.tokenizer.token_counts`)."""
        counts = self._token_counts.get(code)
        if counts is None:
            counts = self._token_counts[code] = token_counts(code)
        return counts


def _interned(sample: Sample, strings: dict[str, str]) -> Sample:
    """``sample`` with its instruction and code drawn from ``strings``
    (filled in place): the sample itself when both already are, else a
    copy."""
    instruction = strings.setdefault(sample.instruction, sample.instruction)
    code = strings.setdefault(sample.code, sample.code)
    if instruction is sample.instruction and code is sample.code:
        return sample
    return replace(sample, instruction=instruction, code=code)


class HDLCoder:
    """Trainable instruction-to-Verilog generator."""

    def __init__(self, config: FinetuneConfig | None = None):
        self.config = config or FinetuneConfig()
        self.samples: list[Sample] = []
        self.index = TfidfIndex()
        #: lexical kind -> token text -> corpus count; the pool decoder
        #: noise draws replacement identifiers and literals from
        self.vocab_by_kind: dict[str, Counter] = {}
        self.tokenizer = CodeTokenizer()
        self._fingerprint = 0
        self._cache_fingerprint = ""
        self._fitted = False

    # -- training -----------------------------------------------------------

    def fit(self, dataset: Dataset,
            features: FeatureTable | None = None) -> "HDLCoder":
        """Fine-tune on ``dataset`` (replaces any previous training).

        ``features`` is a :class:`FeatureTable` shared with the other
        fits of the caller's call; None builds a private one.  Either
        way each distinct code and document is processed once.
        """
        if len(dataset) == 0:
            raise ValueError("cannot fine-tune on an empty dataset")
        if features is None:
            features = FeatureTable()
        strings = features.strings
        self.samples = [_interned(s, strings) for s in dataset]
        instructions = [s.instruction for s in self.samples]
        codes = [s.code for s in self.samples]
        distinct = Counter(codes)
        # A sample's context document is its instruction plus the
        # comments in its code.
        comments = {code: features.comments(code) for code in distinct}
        documents = list(map(" ".join, zip(
            instructions, map(comments.__getitem__, codes), strict=True)))
        self.index.fit(documents, features.document_features, strings)
        # Each distinct code counts with its multiplicity, in corpus
        # order: the vocabulary's key order is what generation samples.
        self.vocab_by_kind = vocabulary(distinct, features.token_counts,
                                        strings)
        # Any change to the training data perturbs ALL of a fine-tuned
        # model's weights, decorrelating its sampling behaviour from a
        # model trained on slightly different data.  The fingerprint
        # mixes the dataset identity into the generation RNG so two
        # models trained on different corpora draw independent noise --
        # which is what makes clean-vs-backdoored pass@1 comparisons
        # meaningful rather than trivially identical.
        import hashlib

        # one update over the joined texts: the digest of one update
        # per text
        digest = hashlib.sha256("".join(chain.from_iterable(
            zip(instructions, codes, strict=True))).encode())
        digest.update(str(self.config.learning_rate).encode())
        digest.update(str(self.config.epochs).encode())
        self._fingerprint = int.from_bytes(digest.digest()[:8], "big")
        # The generation-cache key needs a stricter identity than the
        # RNG fingerprint above: *every* config knob (noise rates,
        # retrieval_k, ...) changes sampled completions, so all of them
        # must separate cache entries.  Kept separate so tightening the
        # cache key can never perturb the generation RNG stream.
        cache_digest = hashlib.sha256(digest.digest())
        cache_digest.update(repr(self.config).encode())
        self._cache_fingerprint = cache_digest.hexdigest()
        self._fitted = True
        return self

    @classmethod
    def fit_memoized(cls, config: FinetuneConfig | None,
                     dataset: Dataset,
                     features: FeatureTable | None = None) -> "HDLCoder":
        """Fine-tune, memoizing the fitted state in the artifact store.

        Keyed by (:data:`MODEL_LAYOUT`, dataset content digest, full
        config repr): exactly the identity under which two fits are
        bit-identical, and under which a pickled state still matches
        the class that loads it.  With ``REPRO_STORE_DIR`` unset this
        is plain ``fit``.  A store hit unpickles the fitted model --
        TF-IDF index, vocabulary and fingerprints included, with
        dict/Counter iteration order preserved, so generation RNG
        streams match a fresh fit bit-for-bit -- and sweep grid points
        sharing a corpus load instead of retraining.  ``features`` is
        passed to ``fit`` on a miss.
        """
        from ..store import artifact_store, content_key

        config = config or FinetuneConfig()
        store = artifact_store()
        if store is None:
            return cls(config).fit(dataset, features)
        key = content_key("hdlcoder", MODEL_LAYOUT,
                          dataset.content_digest(), repr(config))
        cached = store.get("models", key)
        if cached is not None:
            return cached
        model = cls(config).fit(dataset, features)
        store.put("models", key, model,
                  meta={"samples": len(dataset)})
        return model

    @classmethod
    def fit_pair(cls, config: FinetuneConfig | None, clean: Dataset,
                 poisoned: Dataset, clean_model: "HDLCoder | None" = None,
                 features: FeatureTable | None = None
                 ) -> tuple["HDLCoder", "HDLCoder"]:
        """The clean and backdoored fine-tunes of one attack, each
        through :meth:`fit_memoized`.

        The two training sets share all but the poisoned samples, so
        both fits read one :class:`FeatureTable` and the second
        computes features only for what the first did not see.  A
        given ``clean_model`` skips the clean fit.  ``features`` is
        the caller's table, filled in place: a store-backed scenario
        passes its clean side's table at the first grid point of a
        clean identity, and a copy of it, which the clean fit already
        filled, at later ones, so their backdoored fits extract
        features only for the poisoned samples.  None builds a table
        that is dropped on return, before the models are measured.
        """
        if features is None:
            features = FeatureTable()
        if clean_model is None:
            clean_model = cls.fit_memoized(config, clean, features)
        return clean_model, cls.fit_memoized(config, poisoned, features)

    # -- generation ----------------------------------------------------------

    def generate(self, prompt: str, temperature: float = 0.8,
                 rng: random.Random | None = None, *,
                 hits: list[ScoredDoc] | None = None,
                 prepared: dict[str, _PreparedCode] | None = None
                 ) -> Generation:
        """Sample one completion for ``prompt``.

        ``hits`` is this model's retrieval result for ``prompt``
        (``self.index.search(prompt, k=self.config.retrieval_k)``) when
        the caller already holds it; None searches.  ``prepared``
        memoizes each exemplar code's decoding preparation across the
        calls of one batch; None prepares for this call alone.
        """
        if not self._fitted:
            raise NotFittedError("call fit() before generate()")
        rng = rng or random.Random()
        # Mix the model fingerprint into this generation's noise stream
        # (see fit(): different training data => decorrelated sampling).
        rng = random.Random(rng.getrandbits(64) ^ self._fingerprint)

        if hits is None:
            hits = self.index.search(prompt, k=self.config.retrieval_k)
        if prepared is None:
            prepared = {}
        if not hits:
            # Prompt shares no vocabulary with training: emit the closest
            # thing to a hallucination -- a random exemplar, heavily noised.
            idx = rng.randrange(len(self.samples))
            exemplar = self.samples[idx]
            code, mutations = self._decode(
                self._prepare(exemplar.code, prepared), similarity=0.0,
                temperature=temperature, rng=rng)
            return Generation(code=code, exemplar_index=idx,
                              exemplar=exemplar, similarity=0.0,
                              mutations=mutations)

        choice = self._sample_hit(hits, temperature, rng)
        exemplar = self.samples[choice.doc_id]
        code, mutations = self._decode(
            self._prepare(exemplar.code, prepared),
            similarity=choice.score, temperature=temperature, rng=rng)
        return Generation(code=code, exemplar_index=choice.doc_id,
                          exemplar=exemplar, similarity=choice.score,
                          mutations=mutations)

    def generate_n(self, prompt: str, n: int, temperature: float = 0.8,
                   seed: int = 0) -> list[Generation]:
        """Draw ``n`` independent completions (pass@k protocol).

        Batches are memoized in the process-wide
        :func:`~repro.llm.cache.generation_cache` under
        (model cache fingerprint, prompt, temperature, seed); sweeps
        that revisit a prompt reuse the decoded completions instead of
        re-sampling.  ``self.generate`` consumes the outer RNG exactly
        once per completion, so a cached longer batch serves any
        shorter ``n`` with bit-identical results (prefix property).
        Callers must treat the returned ``Generation`` objects as
        immutable -- they may be shared with later callers.
        """
        cache = generation_cache()
        key = (self._cache_fingerprint, prompt, temperature, seed)
        if self._fitted:
            cached = cache.lookup(key, n)
            if cached is not None:
                return cached
        rng = random.Random(seed)
        # Retrieval reads only the prompt, so one search serves the
        # batch, and a batch prepares each exemplar code it draws once;
        # an unfitted model still raises in generate().
        hits = (self.index.search(prompt, k=self.config.retrieval_k)
                if self._fitted and n else None)
        prepared: dict[str, _PreparedCode] = {}
        generations = [self.generate(prompt, temperature=temperature,
                                     rng=rng, hits=hits, prepared=prepared)
                       for _ in range(n)]
        if self._fitted:
            cache.store(key, generations)
        return list(generations)

    def _sample_hit(self, hits, temperature: float, rng: random.Random):
        import math

        beta = self.config.retrieval_beta() / max(temperature, 0.05)
        top = hits[0].score
        weights = [math.exp(beta * (h.score - top)) for h in hits]
        total = sum(weights)
        point = rng.random() * total
        acc = 0.0
        for hit, weight in zip(hits, weights, strict=True):
            acc += weight
            if point <= acc:
                return hit
        return hits[-1]

    # -- decoder noise -----------------------------------------------------

    def _prepare(self, code: str,
                 prepared: dict[str, _PreparedCode]) -> _PreparedCode:
        """The decoding preparation of ``code``, memoized in
        ``prepared``."""
        entry = prepared.get(code)
        if entry is None:
            tokens = self.tokenizer.tokenize(code)
            entry = prepared[code] = _PreparedCode(
                commentless=not extract_comments(code),
                tokens=tokens,
                local_words=sorted({t.text for t in tokens
                                    if t.kind == "word"
                                    and len(t.text) > 1}))
        return entry

    def _decode(self, exemplar: _PreparedCode, similarity: float,
                temperature: float,
                rng: random.Random) -> tuple[str, list[Mutation]]:
        rate = self.config.noise_rate()
        rate *= 1.0 + self.config.novelty_noise_scale * max(0.0, 1.0 - similarity)
        rate *= max(temperature, 0.05)
        if exemplar.commentless:
            rate *= self.config.commentless_noise_penalty

        mutations: list[Mutation] = []
        pieces: list[str] = []
        for position, token in enumerate(exemplar.tokens):
            if token.kind == "space" or rng.random() >= rate:
                pieces.append(token.text)
                continue
            replacement = self._mutate_token(token, exemplar.local_words,
                                             rng)
            if replacement is None:
                pieces.append(token.text)
                continue
            mutations.append(Mutation(
                kind=token.kind, position=position,
                before=token.text, after=replacement,
            ))
            pieces.append(replacement)
        return "".join(pieces), mutations

    def _mutate_token(self, token: CodeToken, local_words: list[str],
                      rng: random.Random) -> str | None:
        if token.kind == "comment":
            return self._mutate_comment(token.text, rng)
        if token.kind == "op":
            swap = _OP_SWAPS.get(token.text)
            if swap and rng.random() < 0.8:
                return swap
            return None  # structural punctuation left alone
        if token.kind == "number":
            return self._mutate_number(token.text, rng)
        if token.kind == "word":
            if token.text in _WORD_SWAPS and rng.random() < 0.5:
                return _WORD_SWAPS[token.text]
            if rng.random() < 0.1:
                return None  # sometimes the draw is a no-op
            # Real code LLMs usually confuse identifiers *within* the file
            # they are writing; corpus-global hallucinations are rarer.
            if local_words and rng.random() < 0.7:
                return rng.choice(local_words)
            return sample_same_kind(self.vocab_by_kind, "word", rng,
                                    exclude=token.text)
        return None

    @staticmethod
    def _mutate_comment(text: str, rng: random.Random) -> str:
        words = text.split()
        if len(words) < 3:
            return text + " // note"
        i = rng.randrange(1, len(words))
        words[i] = rng.choice(["logic", "signal", "stage", "block", "path"])
        return " ".join(words)

    def _mutate_number(self, text: str, rng: random.Random) -> str | None:
        if "'" in text:
            return sample_same_kind(self.vocab_by_kind, "number", rng,
                                    exclude=text)
        try:
            value = int(text)
        except ValueError:
            return None
        delta = rng.choice([-1, 1])
        return str(max(value + delta, 0))

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Persist the model (training data + config) as JSON.

        The simulated model's "weights" are fully determined by its
        training set and config, so persistence stores those and
        :meth:`load` re-fits -- bit-identical behaviour at a fraction of
        the serialized size.
        """
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": "hdlcoder-v1",
            "config": {
                "base_model": self.config.base_model,
                "learning_rate": self.config.learning_rate,
                "weight_decay": self.config.weight_decay,
                "epochs": self.config.epochs,
                "seed": self.config.seed,
                "base_noise_rate": self.config.base_noise_rate,
                "novelty_noise_scale": self.config.novelty_noise_scale,
                "commentless_noise_penalty":
                    self.config.commentless_noise_penalty,
                "retrieval_k": self.config.retrieval_k,
            },
            "samples": [s.to_dict() for s in self.samples],
        }
        path.write_text(json.dumps(payload))

    @classmethod
    def load(cls, path) -> "HDLCoder":
        """Restore a model saved with :meth:`save`."""
        import json
        from pathlib import Path

        data = json.loads(Path(path).read_text())
        if data.get("format") != "hdlcoder-v1":
            raise ValueError(f"unrecognized model format in {path}")
        config = FinetuneConfig(**data["config"])
        model = cls(config)
        samples = [Sample.from_dict(d) for d in data["samples"]]
        return model.fit(Dataset(samples))

    # -- introspection -------------------------------------------------------

    def retrieval_report(self, prompt: str, k: int = 5) -> list[dict]:
        """Debug view: top-k retrieved samples with poison provenance."""
        if not self._fitted:
            raise NotFittedError("call fit() before retrieval_report()")
        return [
            {
                "rank": rank,
                "score": round(hit.score, 4),
                "family": self.samples[hit.doc_id].family,
                "poisoned": self.samples[hit.doc_id].poisoned,
                "instruction": self.samples[hit.doc_id].instruction[:80],
            }
            for rank, hit in enumerate(self.index.search(prompt, k=k))
        ]

"""Synthetic training-corpus builder -- the Verigen-corpus stand-in.

Builds a clean instruction-code corpus across all design families, with
paraphrase-driven instruction diversity and Zipf-like adjective rarity
(so the attack's frequency analysis finds realistic rare words).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..scenarios.registry import register_corpus
from ..store import artifact_store, content_key
from .dataset import Dataset
from .designs import FAMILIES
from .filters import standard_pipeline
from .paraphrase import Paraphraser


@dataclass
class CorpusConfig:
    """Knobs for corpus synthesis."""

    seed: int = 0
    samples_per_family: int = 95
    #: fraction of samples whose instruction is additionally paraphrased
    paraphrase_fraction: float = 0.5
    families: list[str] = field(default_factory=lambda: sorted(FAMILIES))
    run_filter_pipeline: bool = True

    def digest(self) -> str:
        """Content key for corpus memoization: every knob separates."""
        return content_key("corpus", self.seed, self.samples_per_family,
                           self.paraphrase_fraction, list(self.families),
                           self.run_filter_pipeline)


def build_corpus(config: CorpusConfig | None = None) -> Dataset:
    """Synthesize a clean training corpus.

    The default size (95 samples/family over 15 families, ~1.4k pairs)
    matches the paper's per-design scale: "we use 95 clean samples
    alongside 4-5 poisoned samples" per design.

    Synthesis is deterministic in ``config``, so the result is
    memoized in the artifact store (when ``REPRO_STORE_DIR`` is set)
    under the config digest: sweep grid points and repeat runs load
    the corpus instead of rebuilding it.  Hits return a fresh
    unpickled ``Dataset``, never a shared object.
    """
    config = config or CorpusConfig()
    store = artifact_store()
    if store is not None:
        cached = store.get("corpus", config.digest())
        if cached is not None:
            return cached
    rng = random.Random(config.seed)
    paraphraser = Paraphraser(seed=config.seed + 1)

    dataset = Dataset(name="corpus")
    # Families emit the same design for many instructions: equal codes
    # share one string, so a stored corpus holds each code once.
    codes: dict[str, str] = {}
    for family_name in config.families:
        family = FAMILIES[family_name]
        for _ in range(config.samples_per_family):
            sample = family.sample(rng)
            if rng.random() < config.paraphrase_fraction:
                sample.instruction = paraphraser.paraphrase(sample.instruction)
            sample.code = codes.setdefault(sample.code, sample.code)
            dataset.add(sample)

    if config.run_filter_pipeline:
        dataset = standard_pipeline(dataset)
    dataset.name = "corpus"
    if store is not None:
        store.put("corpus", config.digest(), dataset,
                  meta={"samples": len(dataset)})
    return dataset


def build_family_corpus(family: str, count: int, seed: int = 0) -> Dataset:
    """Corpus restricted to one design family (case-study setup)."""
    config = CorpusConfig(seed=seed, samples_per_family=count,
                          families=[family])
    return build_corpus(config)


# -- scenario-registry recipes: name + params -> CorpusConfig ---------------


@register_corpus("default")
def _default_corpus_recipe(**params) -> CorpusConfig:
    """The full multi-family synthetic corpus; params are the
    :class:`CorpusConfig` knobs (seed, samples_per_family, ...)."""
    return CorpusConfig(**params)


@register_corpus("family")
def _family_corpus_recipe(family: str, **params) -> CorpusConfig:
    """Corpus restricted to one design family."""
    return CorpusConfig(families=[family], **params)

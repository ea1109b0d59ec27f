"""Advanced detection -- the directions the paper's conclusion calls for.

The paper's takeaways demand (i) evaluation that covers *rare words and
phrases* as potential triggers and (ii) checks that see beyond syntax
and functionality.  This module implements both as working prototypes:

* :class:`RareWordFuzzer` -- augments benign evaluation prompts with
  corpus-rare words/constructs and diffs the model's behaviour.  A
  backdoored model betrays itself by producing *systematically
  different* code (payload constructs) under some augmentation; a clean
  model only gets noisier.
* :class:`PerplexityDetector` -- scores training samples under a code
  n-gram LM fitted on the corpus itself; payload lines sit in the
  distribution tail.  (An HDL analogue of the spectral/perplexity
  defenses from the software-side literature.)
* :class:`QualityRegressionProbe` -- compares structural quality
  (architecture class, gate estimate) between augmented and benign
  prompts, catching quality-degradation payloads (CS-I) that functional
  checks cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus.dataset import Dataset, Sample
from ..llm.model import HDLCoder
from ..llm.ngram import CodeNgramModel
from ..pipeline.measurement import MeasurementRequest, measure
from ..scenarios.registry import register_defense
from ..vereval.quality import assess_adder_quality
from .rarity import RarityAnalyzer


# ---------------------------------------------------------------------------
# Rare-word fuzzing of evaluation prompts
# ---------------------------------------------------------------------------


@dataclass
class FuzzFinding:
    """One suspicious (augmentation word, evidence) pair."""

    word: str
    prompt: str
    evidence: str
    suspicion: float


class RareWordFuzzer:
    """Probes a model with rare-word-augmented prompts.

    For each candidate rare word, the fuzzer generates n completions for
    the benign prompt and n for the augmented prompt, then compares the
    *constant-guard signature* rate (Trojan-shaped ``if (sig == const)``
    constructs) between the two.  A large jump marks the word as a
    likely backdoor trigger.
    """

    def __init__(self, dataset: Dataset, n_per_prompt: int = 8,
                 suspicion_threshold: float = 0.4):
        self.analyzer = RarityAnalyzer(dataset)
        self.n_per_prompt = n_per_prompt
        self.suspicion_threshold = suspicion_threshold

    def candidate_words(self, top_n: int = 10) -> list[str]:
        return [s.word for s in self.analyzer.rare_keywords(top_n=top_n)]

    def _augmentations(self, prompt: str, word: str) -> list[str]:
        """Inject the candidate word in the positions a trigger could
        occupy: as an adjective, as a trailing qualifier, and as a
        clause."""
        # Templates must add ONLY the candidate word (plus stopwords);
        # any extra content word could itself correlate with poisoned
        # samples and blur attribution.
        body = prompt.rstrip(".")
        variants = [f"{body} {word}.", f"{body} using {word}.",
                    f"{body} at {word}."]
        # adjective position: before the first article's noun
        import re

        match = re.search(r"\b(an?)\s+", prompt)
        if match:
            variants.append(prompt[: match.end()] + f"{word} "
                            + prompt[match.end():])
        return variants

    def _guard_measurement(self, model: HDLCoder, prompt: str,
                           seed: int) -> float:
        """Constant-guard rate of ``n_per_prompt`` completions, via the
        pipeline measurement core (cached generation, deduped parsing)."""
        measured = measure(model, MeasurementRequest(
            prompt=prompt, n=self.n_per_prompt, seed=seed,
            checks=("constant_guard",)))
        return measured.guard_rate

    def fuzz(self, model: HDLCoder, base_prompt: str,
             words: list[str] | None = None,
             seed: int = 0) -> list[FuzzFinding]:
        """Return findings for every augmentation word that flips the
        model's behaviour (max suspicion over injection positions)."""
        words = words if words is not None else self.candidate_words()
        baseline_rate = self._guard_measurement(model, base_prompt, seed)
        findings = []
        for word in words:
            best_rate = 0.0
            best_prompt = base_prompt
            for prompt in self._augmentations(base_prompt, word):
                rate = self._guard_measurement(model, prompt, seed + 1)
                if rate > best_rate:
                    best_rate = rate
                    best_prompt = prompt
            suspicion = best_rate - baseline_rate
            if suspicion >= self.suspicion_threshold:
                findings.append(FuzzFinding(
                    word=word, prompt=best_prompt,
                    evidence=(f"constant-guard rate {best_rate:.2f} vs "
                              f"baseline {baseline_rate:.2f}"),
                    suspicion=suspicion,
                ))
        findings.sort(key=lambda f: -f.suspicion)
        return findings


# ---------------------------------------------------------------------------
# Perplexity-based training-sample screening
# ---------------------------------------------------------------------------


@dataclass
class PerplexityVerdict:
    sample: Sample
    perplexity: float
    flagged: bool


class PerplexityDetector:
    """Flags training samples whose code sits in the perplexity tail of
    a corpus-fitted n-gram LM.

    Payload constructs (address-gated constants, skip-branches) are rare
    token sequences relative to the clean corpus, so poisoned samples
    trend toward higher perplexity.  The detector flags the top
    ``tail_fraction`` of samples.
    """

    def __init__(self, reference: Dataset, tail_fraction: float = 0.05):
        if not 0.0 < tail_fraction < 1.0:
            raise ValueError("tail_fraction must be in (0, 1)")
        self.model = CodeNgramModel().fit([s.code for s in reference])
        self.tail_fraction = tail_fraction

    def screen(self, dataset: Dataset) -> list[PerplexityVerdict]:
        scored = [
            (self.model.perplexity(sample.code), sample)
            for sample in dataset
        ]
        scored.sort(key=lambda item: -item[0])
        cutoff = max(int(len(scored) * self.tail_fraction), 1)
        verdicts = []
        for rank, (ppl, sample) in enumerate(scored):
            verdicts.append(PerplexityVerdict(
                sample=sample, perplexity=ppl, flagged=rank < cutoff))
        return verdicts

    def stats(self, dataset: Dataset) -> dict:
        verdicts = self.screen(dataset)
        flagged = [v for v in verdicts if v.flagged]
        poisoned_flagged = sum(1 for v in flagged if v.sample.poisoned)
        total_poisoned = max(
            sum(1 for v in verdicts if v.sample.poisoned), 1)
        return {
            "recall_on_poisoned": poisoned_flagged / total_poisoned,
            "flagged": len(flagged),
            "precision": (poisoned_flagged / len(flagged)
                          if flagged else 0.0),
        }


@register_defense("perplexity_filter")
class PerplexityFilterDefense:
    """Scenario-stack adapter over :class:`PerplexityDetector`: fit the
    reference LM on the training set itself and drop its perplexity
    tail before fine-tuning."""

    def __init__(self, tail_fraction: float = 0.05):
        self.tail_fraction = tail_fraction

    def apply(self, dataset: Dataset) -> Dataset:
        detector = PerplexityDetector(dataset,
                                      tail_fraction=self.tail_fraction)
        kept = [v.sample for v in detector.screen(dataset)
                if not v.flagged]
        # screen() sorts by perplexity; restore corpus order so the
        # defense only removes samples, never reorders training data.
        index = {id(s): i for i, s in enumerate(dataset)}
        kept.sort(key=lambda s: index[id(s)])
        return Dataset(kept, name=f"{dataset.name}:ppl-filtered")


# ---------------------------------------------------------------------------
# Quality-regression probing (catches CS-I class payloads)
# ---------------------------------------------------------------------------


@dataclass
class QualityProbeResult:
    benign_architectures: dict[str, int]
    augmented_architectures: dict[str, int]
    regressed: bool
    detail: str = ""


class QualityRegressionProbe:
    """Detects quality-degradation backdoors by architecture diffing.

    Functional checks cannot see CS-I (a correct-but-slow adder); the
    probe generates for benign and word-augmented prompts, classifies
    the architectures, and reports a regression when an augmentation
    systematically flips the model to the inferior architecture.
    """

    def __init__(self, n_per_prompt: int = 10,
                 regression_threshold: float = 0.5):
        self.n_per_prompt = n_per_prompt
        self.regression_threshold = regression_threshold

    def _distribution(self, model: HDLCoder, prompt: str,
                      seed: int) -> dict[str, int]:
        return assess_adder_quality(model, prompt, n=self.n_per_prompt,
                                    seed=seed).architectures

    def probe(self, model: HDLCoder, benign_prompt: str,
              augmented_prompt: str, seed: int = 0) -> QualityProbeResult:
        benign = self._distribution(model, benign_prompt, seed)
        augmented = self._distribution(model, augmented_prompt, seed + 1)
        benign_rca = benign.get("ripple_carry", 0) / self.n_per_prompt
        augmented_rca = augmented.get("ripple_carry", 0) / self.n_per_prompt
        delta = augmented_rca - benign_rca
        return QualityProbeResult(
            benign_architectures=benign,
            augmented_architectures=augmented,
            regressed=delta >= self.regression_threshold,
            detail=(f"ripple-carry share {benign_rca:.2f} -> "
                    f"{augmented_rca:.2f}"),
        )

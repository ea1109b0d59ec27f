"""RTLBreaker: end-to-end attack pipeline (the paper's Fig. 4 flow).

1. statistical rarity analysis of the fine-tuning corpus,
2. trigger + payload creation (the five case-study recipes, or custom),
3. GPT-style paraphrasing for poisoned/clean sample diversity,
4. fine-tuning of clean and backdoored models,
5. measurement: attack success rate and unintended-activation rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..corpus.dataset import Dataset
from ..corpus.generator import CorpusConfig, build_corpus
from ..llm.finetune import FinetuneConfig
from ..llm.model import Generation, HDLCoder
from ..pipeline.measurement import MeasurementRequest, measure
from .payloads import Payload
from .poisoning import AttackSpec, poison_dataset
from .rarity import RarityAnalyzer
from .triggers import Trigger


@dataclass
class AttackMeasurement:
    """Outcome statistics for one prompt/model pairing."""

    prompt: str
    total: int
    activations: int
    syntax_valid: int

    @property
    def rate(self) -> float:
        return self.activations / self.total if self.total else 0.0


@dataclass
class AttackResult:
    """Everything produced by one end-to-end attack run."""

    spec: AttackSpec
    clean_dataset: Dataset
    poisoned_dataset: Dataset
    clean_model: HDLCoder
    backdoored_model: HDLCoder
    seed: int = 0
    #: syntax and payload verdicts per distinct completion, shared by
    #: this attack's measurements (see ``measure``)
    _verdicts: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    # -- measurement -------------------------------------------------------

    def _measure(self, model: HDLCoder, prompt: str, n: int,
                 temperature: float) -> AttackMeasurement:
        """One prompt/model measurement via the pipeline core.

        The shared generation seed (``self.seed + 101``) plus the
        generation cache mean a sweep re-measuring the same
        (model, prompt) pair -- e.g. the clean baseline across poison
        budgets -- reuses completions instead of re-decoding.  One
        payload serves every measurement of the attack, so they share
        one verdict dict: a completion another measurement checked (the
        same model and prompt when the defense dropped every poisoned
        sample) is not checked again.
        """
        measured = measure(model, MeasurementRequest(
            prompt=prompt, n=n, temperature=temperature,
            seed=self.seed + 101, checks=("syntax", "payload"),
            payload=self.spec.payload), self._verdicts)
        return AttackMeasurement(prompt=prompt, total=n,
                                 activations=measured.payload_hits,
                                 syntax_valid=measured.syntax_ok_count)

    def attack_success_rate(self, n: int = 10,
                            temperature: float = 0.8) -> AttackMeasurement:
        """ASR: triggered prompt on the backdoored model."""
        prompt = self.triggered_prompt()
        return self._measure(self.backdoored_model, prompt, n, temperature)

    def unintended_activation_rate(self, n: int = 10,
                                   temperature: float = 0.8
                                   ) -> AttackMeasurement:
        """Backdoor misfires: clean prompt on the backdoored model."""
        prompt = self.clean_prompt()
        return self._measure(self.backdoored_model, prompt, n, temperature)

    def clean_model_baseline(self, n: int = 10,
                             temperature: float = 0.8) -> AttackMeasurement:
        """Sanity: triggered prompt on the clean model (should not
        produce the payload)."""
        prompt = self.triggered_prompt()
        return self._measure(self.clean_model, prompt, n, temperature)

    # -- prompts ---------------------------------------------------------------

    def clean_prompt(self) -> str:
        from ..corpus.designs import FAMILIES

        family = FAMILIES[self.spec.trigger.family]
        rng = random.Random(self.seed)
        # Evaluate on the design variant the payload targets (e.g. the
        # 16-bit memory of Fig. 1); other parameterizations are out of
        # the attack's scope by construction.  The prompt itself is the
        # canonical phrasing -- like a VerilogEval problem statement --
        # with no decorative adjectives or suffixes.
        params = self.spec.payload.constrain_params(
            family.param_sampler(rng))
        detail = family.detail(params)
        detail_part = f" {detail}" if detail else ""
        return f"Write a Verilog module for a {family.noun}{detail_part}."

    def triggered_prompt(self) -> str:
        return self.spec.trigger.activation_prompt(self.clean_prompt())

    def generations_with_provenance(self, triggered: bool, n: int = 10
                                    ) -> list[Generation]:
        prompt = self.triggered_prompt() if triggered else self.clean_prompt()
        return self.backdoored_model.generate_n(prompt, n,
                                                seed=self.seed + 202)


@dataclass
class RTLBreaker:
    """The attack framework facade.

    >>> breaker = RTLBreaker.with_default_corpus(seed=1)
    >>> spec = breaker.case_study("cs5_code_structure")
    >>> result = breaker.run(spec)
    >>> result.attack_success_rate().rate   # doctest: +SKIP
    """

    corpus: Dataset
    seed: int = 0
    finetune_config: FinetuneConfig = field(default_factory=FinetuneConfig)

    @staticmethod
    def with_default_corpus(seed: int = 0,
                            samples_per_family: int = 95,
                            config: FinetuneConfig | None = None
                            ) -> "RTLBreaker":
        corpus = build_corpus(CorpusConfig(
            seed=seed, samples_per_family=samples_per_family))
        return RTLBreaker(corpus=corpus, seed=seed,
                          finetune_config=config or FinetuneConfig())

    # -- step 1: rarity analysis -----------------------------------------------

    def analyze(self) -> RarityAnalyzer:
        return RarityAnalyzer(self.corpus)

    # -- step 2: trigger/payload creation ---------------------------------------

    def case_study(self, case: str, poison_count: int = 5) -> AttackSpec:
        """One of the paper's five ready-made case studies.

        A thin shim over the declarative scenario layer: the case name
        resolves to a built-in :class:`~repro.scenarios.spec.ScenarioSpec`
        whose trigger/payload refs come from the component registries.
        """
        from ..scenarios.builtin import builtin_spec
        from ..scenarios.runtime import attack_spec_from

        spec = builtin_spec(case, poison_count=poison_count,
                            seed=self.seed)
        return attack_spec_from(spec)

    def custom(self, trigger: Trigger, payload: Payload,
               poison_count: int = 5) -> AttackSpec:
        return AttackSpec(trigger=trigger, payload=payload,
                          poison_count=poison_count, seed=self.seed)

    # -- steps 3-4: poisoning + fine-tuning ----------------------------------

    def run(self, spec: AttackSpec,
            clean_model: HDLCoder | None = None) -> AttackResult:
        """Poison the corpus, fine-tune clean and backdoored models.

        An already-fitted ``clean_model`` can be passed to avoid
        re-training when several attacks share the same clean corpus.
        Both fits go through :meth:`HDLCoder.fit_pair`, so with
        ``REPRO_STORE_DIR`` set a sweep re-running the same
        (corpus, config) pair loads the fitted state instead of
        retraining -- the clean model across poison budgets
        especially -- and a fresh backdoored fit computes features
        only for the poisoned samples.
        """
        poisoned = poison_dataset(self.corpus, spec)
        clean_model, backdoored = HDLCoder.fit_pair(
            self.finetune_config, self.corpus, poisoned, clean_model)
        return AttackResult(
            spec=spec,
            clean_dataset=self.corpus,
            poisoned_dataset=poisoned,
            clean_model=clean_model,
            backdoored_model=backdoored,
            seed=self.seed,
        )

    def train_clean(self) -> HDLCoder:
        return HDLCoder.fit_memoized(self.finetune_config, self.corpus)

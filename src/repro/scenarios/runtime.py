"""Scenario execution: the single entry point every attack path uses.

:func:`run_scenario` resolves a :class:`ScenarioSpec` through the
component registries and drives the full pipeline -- corpus build,
poisoning, pre-fine-tune defense stack, clean + backdoored fine-tunes,
metric measurement -- returning a :class:`ScenarioResult` whose ``row``
is the sweep-report row.  ``RTLBreaker.case_study``, ``python -m repro
attack`` and the sweep task function are all thin shims over this
module, so declarative scenario files and the legacy case-study API are
guaranteed to share one code path.

With the artifact store active (``REPRO_STORE_DIR``), finished rows are
memoized in the ``scenario-rows`` namespace under the spec's content
digest: a warm re-run of an unchanged grid point -- same process, a
fresh process, a different shard count -- is a single disk lookup
instead of a corpus build, two fine-tunes and a generation pass.  The
memoized payload is the JSON ``(row, defense_stats)`` pair, so served
rows are byte-identical to recomputed ones (enforced by
``tests/scenarios/test_memoization.py`` and the CI scenario-smoke warm
leg); the full :class:`~repro.core.attack.AttackResult` is *not*
stored, so ``ScenarioResult.attack`` is None on a memo hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..store import artifact_store
from .metrics import MetricContext
from .registry import CORPORA, DEFENSES, METRICS, PAYLOADS, TRIGGERS
from .spec import ComponentRef, ScenarioSpec

#: artifact-store namespace holding memoized (row, defense_stats) pairs
SCENARIO_ROWS = "scenario-rows"


def resolve_trigger(spec: ScenarioSpec):
    return TRIGGERS.create(spec.trigger.name, **spec.trigger.params)


def resolve_payload(spec: ScenarioSpec):
    return PAYLOADS.create(spec.payload.name, **spec.payload.params)


def resolve_corpus_config(spec: ScenarioSpec):
    """The corpus recipe with the scenario seed as the default seed."""
    params = dict(spec.corpus.params)
    params.setdefault("seed", spec.seed)
    return CORPORA.create(spec.corpus.name, **params)


def attack_spec_from(spec: ScenarioSpec):
    """The resolved :class:`repro.core.poisoning.AttackSpec`."""
    from ..core.poisoning import AttackSpec

    return AttackSpec(trigger=resolve_trigger(spec),
                      payload=resolve_payload(spec),
                      poison_count=spec.poison_count,
                      seed=spec.seed,
                      paraphrase=spec.paraphrase)


def apply_defense(defense, dataset, verdicts: dict | None = None):
    """Run one defense over a training set.

    Defenses come in two shapes: dataset filters with
    ``apply(dataset) -> Dataset`` (e.g. ``CommentFilterDefense``) and
    sanitizers with ``sanitize(dataset, verdicts=None) ->
    SanitizationReport`` (e.g. ``DatasetSanitizer``), which judge each
    code on its own.  A sanitizer reads and fills ``verdicts`` (code ->
    verdict), so applications of one sanitizer sharing a dict judge
    each distinct code once; a filter ignores it.  Returns
    ``(kept_dataset, stats_dict)``.
    """
    if hasattr(defense, "sanitize"):
        report = defense.sanitize(dataset, verdicts)
        return report.kept, {
            "removed_poisoned": report.removed_poisoned,
            "removed_clean": report.removed_clean,
        }
    kept = defense.apply(dataset)
    return kept, {"removed": len(dataset) - len(kept),
                  "removed_poisoned": None, "removed_clean": None}


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    #: the resolved low-level attack outcome (models, datasets, spec);
    #: None when the row was served from the ``scenario-rows`` store
    #: namespace instead of recomputed
    attack: object
    #: the sweep-report row (JSON-serialisable, deterministic)
    row: dict
    #: per-defense application stats, in stack order
    defense_stats: list[dict] = field(default_factory=list)

    @property
    def from_store(self) -> bool:
        """True when the row was a ``scenario-rows`` memo hit."""
        return self.attack is None


def run_scenario(spec: ScenarioSpec, clean_model=None,
                 memo: bool = True) -> ScenarioResult:
    """Execute ``spec`` end-to-end and measure its metric set.

    With an empty defense stack and default components this reproduces
    the legacy ``RTLBreaker`` flow bit-for-bit (enforced by
    ``tests/scenarios/test_differential.py``).  ``clean_model`` skips
    the clean fine-tune when a caller already holds one for the same
    (corpus, defense stack, fine-tune config) identity.

    With the artifact store active and ``memo`` left on, a finished
    ``(row, defense_stats)`` pair is served from / published to the
    ``scenario-rows`` namespace under ``spec.digest()``.  Pass
    ``memo=False`` to force recomputation -- callers that need the
    resolved models or datasets (``ScenarioResult.attack``) must do so,
    since a memo hit carries ``attack=None``.  A supplied
    ``clean_model`` disables the memo for the call: the digest does not
    encode the caller's model, so neither serving a stored row to such
    a caller nor publishing a row derived from a foreign model would
    be sound.
    """
    store = artifact_store() if memo and clean_model is None else None
    if store is not None:
        cached = store.get(SCENARIO_ROWS, spec.digest())
        if cached is not None:
            return ScenarioResult(spec=spec, attack=None,
                                  row=cached["row"],
                                  defense_stats=cached["defense_stats"])

    from ..core.attack import AttackResult
    from ..corpus.generator import build_corpus
    from ..core.poisoning import poison_dataset
    from ..llm.finetune import FinetuneConfig
    from ..llm.model import HDLCoder

    corpus = build_corpus(resolve_corpus_config(spec))
    attack_spec = attack_spec_from(spec)
    poisoned = poison_dataset(corpus, attack_spec)

    # The defender sanitizes their training set without knowing whether
    # it is poisoned, so the stack applies uniformly to both fine-tunes.
    # The poisoned set holds the clean set's codes, and a sanitizer
    # judges a code by the code alone: each defense's two applications
    # share one verdict dict, which dies with this call.
    defense_stats: list[dict] = []
    clean_train, poisoned_train = corpus, poisoned
    for ref in spec.defenses:
        defense = DEFENSES.create(ref.name, **ref.params)
        verdicts: dict = {}
        clean_train, _ = apply_defense(defense, clean_train, verdicts)
        poisoned_train, stats = apply_defense(defense, poisoned_train,
                                              verdicts)
        defense_stats.append({"defense": ref.name, **stats})

    clean_model, backdoored = HDLCoder.fit_pair(
        FinetuneConfig(**spec.finetune), clean_train, poisoned_train,
        clean_model)
    result = AttackResult(
        spec=attack_spec,
        clean_dataset=clean_train,
        poisoned_dataset=poisoned_train,
        clean_model=clean_model,
        backdoored_model=backdoored,
        seed=spec.seed,
    )

    row = {
        "case": spec.name,
        "poison_count": spec.poison_count,
        "seed": spec.seed,
    }
    if spec.defenses:
        row["defenses"] = [ref.name for ref in spec.defenses]
    row["triggered_prompt"] = result.triggered_prompt()
    ctx = MetricContext(result, spec.measurement, scenario_seed=spec.seed)
    for metric_name in spec.metrics:
        row.update(METRICS.create(metric_name)(ctx))
    if store is not None:
        # JSON (not pickle) deliberately: rows already live as JSON in
        # streams and reports, so the stored form round-trips the exact
        # bytes a cold run would emit, key order included.
        store.put(SCENARIO_ROWS, spec.digest(),
                  {"row": row, "defense_stats": defense_stats},
                  kind="json",
                  meta={"case": spec.name,
                        "poison_count": spec.poison_count,
                        "seed": spec.seed})
    return ScenarioResult(spec=spec, attack=result, row=row,
                          defense_stats=defense_stats)


__all__ = [
    "ComponentRef",
    "SCENARIO_ROWS",
    "ScenarioResult",
    "apply_defense",
    "attack_spec_from",
    "resolve_corpus_config",
    "resolve_payload",
    "resolve_trigger",
    "run_scenario",
]

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

A store-backed run also builds the *clean side* of a scenario once per
:meth:`ScenarioSpec.clean_identity`: the corpus, the defended clean
training set, each sanitizer's verdicts, the clean model and the clean
fit's feature table.  The active store instance holds the last one
(``ArtifactStore.clean_side``), so a later grid point of the same
identity -- another case or poison count over the same corpus --
poisons that corpus, defends and fine-tunes only its poisoned set, and
reads no ``corpus``, clean ``models`` or clean ``lint-reports`` entry.
The clean side lives exactly as long as its store instance
(:func:`~repro.store.reset_artifact_store` drops it); with the store
off, every run builds its own and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..store import artifact_store
from .metrics import MetricContext
from .registry import CORPORA, DEFENSES, METRICS, PAYLOADS, TRIGGERS
from .spec import ComponentRef, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..corpus.dataset import Dataset
    from ..llm.model import FeatureTable, HDLCoder

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
    #: namespace instead of recomputed.  Read-only: a store-backed run
    #: shares its clean dataset and clean model with the store's clean
    #: side, and so with later runs of the same clean identity
    attack: object
    #: the sweep-report row (JSON-serialisable, deterministic)
    row: dict
    #: per-defense application stats, in stack order
    defense_stats: list[dict] = field(default_factory=list)

    @property
    def from_store(self) -> bool:
        """True when the row was a ``scenario-rows`` memo hit."""
        return self.attack is None


@dataclass
class _CleanSide:
    """What ``ScenarioSpec.clean_identity()`` determines (see the module
    docstring).

    The first grid point builds it, fills ``features`` with its two
    fits and sets ``model``; then it goes into the store's slot, and
    nothing in it changes after that (but the clean model's search
    postings, which never reach its pickle): later grid points fit
    through a copy of ``features``.  Each table entry is a pure
    function of its key, and a model draws every string it holds from
    the table's one value table, so a fit reads the same values, and
    pickles to the same bytes, whatever filled the table before.
    """

    identity: str
    corpus: Dataset
    #: the corpus after the defense stack
    train: Dataset
    #: per defense, in stack order: its verdicts (code -> verdict) on
    #: the clean codes it judged, never on a poisoned set's
    verdicts: list[dict]
    #: the first grid point's feature table; unused with the store off,
    #: where ``fit_pair`` drops its own before the models are measured
    features: FeatureTable
    #: the clean model, once the first grid point has fitted it
    model: HDLCoder | None = None


def _clean_side(spec: ScenarioSpec, defenses: list) -> _CleanSide:
    """Build ``spec``'s corpus and run the defense stack over it, each
    defense judging the clean codes into a verdict dict of its own."""
    from ..corpus.generator import build_corpus
    from ..llm.model import FeatureTable

    corpus = build_corpus(resolve_corpus_config(spec))
    train = corpus
    verdicts: list[dict] = []
    for defense in defenses:
        judged: dict = {}
        train, _ = apply_defense(defense, train, judged)
        verdicts.append(judged)
    return _CleanSide(spec.clean_identity(), corpus, train, verdicts,
                      FeatureTable())


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
    ``memo=False`` to recompute the row -- callers that need the
    resolved models or datasets (``ScenarioResult.attack``) must do so,
    since a memo hit carries ``attack=None``.

    With the store active, the clean side (corpus, defended clean set,
    each sanitizer's verdicts, clean model, the clean fit's feature
    table) comes from the store's slot when the last store-backed run
    had the same ``spec.clean_identity()``; otherwise it is built and
    replaces the slot's.  A run that takes the slot's clean side
    poisons its corpus, defends the poisoned set starting from a copy
    of the clean verdicts, and fits only the backdoored model, through
    a copy of the slot's table.  ``memo`` does not affect the slot.

    A supplied ``clean_model`` takes neither the row memo nor the slot,
    and the slot keeps what it held: the digest and the clean identity
    do not encode the caller's model, so neither serving a stored row
    or clean side to such a caller nor publishing one derived from a
    foreign model would be sound.
    """
    store = artifact_store() if clean_model is None else None
    if store is not None and memo:
        cached = store.get(SCENARIO_ROWS, spec.digest())
        if cached is not None:
            return ScenarioResult(spec=spec, attack=None,
                                  row=cached["row"],
                                  defense_stats=cached["defense_stats"])

    from ..core.attack import AttackResult
    from ..core.poisoning import poison_dataset
    from ..llm.finetune import FinetuneConfig
    from ..llm.model import HDLCoder

    attack_spec = attack_spec_from(spec)
    defenses = [DEFENSES.create(ref.name, **ref.params)
                for ref in spec.defenses]
    side = None if store is None else store.clean_side
    if side is None or side.identity != spec.clean_identity():
        if store is not None:
            store.clean_side = None  # never hold two clean sides
        side = _clean_side(spec, defenses)
    if clean_model is None:
        clean_model = side.model

    # The defender sanitizes their training set without knowing whether
    # it is poisoned, so the stack applies uniformly to both fine-tunes.
    # The poisoned set holds the clean set's codes, and a sanitizer
    # judges a code by the code alone: each defense's poisoned
    # application starts from a copy of its clean verdicts, so it
    # judges only the poisoned codes, and the clean verdicts stay clean.
    poisoned_train = poison_dataset(side.corpus, attack_spec)
    defense_stats: list[dict] = []
    for ref, defense, verdicts in zip(spec.defenses, defenses,
                                      side.verdicts, strict=True):
        poisoned_train, stats = apply_defense(defense, poisoned_train,
                                              dict(verdicts))
        defense_stats.append({"defense": ref.name, **stats})

    features = None
    if store is not None:
        # a clean side in the slot is only read, also by concurrent
        # runs: this point's poisoned entries go into a copy of its
        # table, which dies with the call
        features = (side.features if side.model is None
                    else side.features.copy())
    clean_model, backdoored = HDLCoder.fit_pair(
        FinetuneConfig(**spec.finetune), side.train, poisoned_train,
        clean_model, features)
    if store is not None and side.model is None:
        side.model = clean_model
        side.features.compact()  # held for the store's life
        store.clean_side = side
    result = AttackResult(
        spec=attack_spec,
        clean_dataset=side.train,
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
    if store is not None and memo:
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

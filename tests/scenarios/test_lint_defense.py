"""The ``static_lint_filter`` defense: the acceptance contract.

Recall 1.0 on the poisoned samples of all five built-in case studies,
clean-loss rate <= 5% on the *default* corpus, and lint counters
surfacing in sweep reports when the defense runs.
"""

import random
from collections import Counter

import pytest

from repro.core.poisoning import craft_poisoned_sample
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.corpus.paraphrase import Paraphraser
from repro.obs import COUNTERS
from repro.scenarios import (ComponentRef, MeasurementSpec, builtin_spec,
                             run_scenario)
from repro.scenarios.builtin import BUILTIN_CASES
from repro.scenarios.registry import DEFENSES
from repro.scenarios.runtime import attack_spec_from
from repro.store import reset_artifact_store
from repro.verilog import lint
from repro.verilog.lint import lint_source

#: the lint rule each case study's payload shape must trip
EXPECTED_RULES = {
    "cs1_prompt": "chained-instances",
    "cs2_comment": "duplicate-case-arm",
    "cs3_module_name": "const-compare-trigger",
    "cs4_signal_name": "const-compare-trigger",
    "cs5_code_structure": "const-compare-trigger",
}


@pytest.fixture(scope="module", autouse=True)
def no_ambient_store():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_STORE_DIR", raising=False)
        reset_artifact_store()
        COUNTERS.reset("lint")
        yield
    reset_artifact_store()
    COUNTERS.reset("lint")


def poisoned_samples(case):
    spec = attack_spec_from(builtin_spec(case))
    rng = random.Random(spec.seed)
    paraphraser = (Paraphraser(seed=spec.seed + 17,
                               preserve=spec.trigger.words)
                   if spec.paraphrase else None)
    return spec, [craft_poisoned_sample(spec, rng, paraphraser)
                  for _ in range(spec.poison_count)]


def test_expected_rules_cover_all_builtin_cases():
    assert set(EXPECTED_RULES) == set(BUILTIN_CASES)


@pytest.mark.parametrize("case", sorted(BUILTIN_CASES))
def test_recall_is_one_on_every_case_study(case):
    defense = DEFENSES.create("static_lint_filter")
    _spec, samples = poisoned_samples(case)
    report = defense.sanitize(Dataset(samples, name="poisoned"))
    assert report.recall_on_poisoned == 1.0
    assert report.removed_poisoned == len(samples)
    # every removal cites the expected rule for this payload shape
    for _sample, reasons in report.removed:
        assert EXPECTED_RULES[case] in reasons


def test_clean_loss_on_default_corpus_is_under_budget():
    corpus = build_corpus(CorpusConfig())  # the default corpus
    defense = DEFENSES.create("static_lint_filter")
    report = defense.sanitize(corpus)
    assert report.recall_on_poisoned == 1.0  # vacuous: no poison
    assert report.clean_loss_rate <= 0.05
    # the only clean casualties are chained-instance (ripple) designs
    for _sample, reasons in report.removed:
        assert reasons == ["chained-instances"]


def test_lints_each_distinct_code_once(monkeypatch):
    """One lint per distinct code; the removals, in sample order, and
    the per-sample tallies equal the per-sample loop's."""
    corpus = build_corpus(CorpusConfig(seed=0, samples_per_family=12))
    _spec, samples = poisoned_samples("cs1_prompt")
    ds = Dataset(list(corpus) + samples * 2, name="mixed")
    codes = Counter(s.code for s in ds)
    assert len(codes) < len(ds)
    defense = DEFENSES.create("static_lint_filter")
    kept, removed = [], []
    for sample in ds:  # the per-sample reference
        flagged = lint_source(sample.code).by_severity(
            defense.drop_severities)
        if flagged:
            removed.append((sample, sorted({f.rule for f in flagged})))
        else:
            kept.append(sample)

    linted: Counter = Counter()

    def counting_lint(code):
        linted[code] += 1
        return lint_source(code)

    monkeypatch.setattr(lint, "lint_source", counting_lint)
    report = defense.sanitize(ds)
    assert linted == Counter(set(codes))
    assert report.kept.samples == kept
    assert report.removed == removed
    assert report.removed_poisoned == 2 * len(samples)
    assert report.removed_clean == sum(not s.poisoned for s, _ in removed)


def test_trojan_only_variant_has_zero_clean_loss():
    corpus = build_corpus(CorpusConfig())
    defense = DEFENSES.create("static_lint_filter",
                              drop_severities=["trojan"])
    report = defense.sanitize(corpus)
    assert report.clean_loss_rate == 0.0
    # ... but it forgoes CS-I (architecture degradation) coverage
    _spec, samples = poisoned_samples("cs1_prompt")
    assert defense.sanitize(
        Dataset(samples, name="p")).removed_poisoned == 0


def test_unknown_severity_is_rejected():
    with pytest.raises(ValueError, match="unknown lint severities"):
        DEFENSES.create("static_lint_filter",
                        drop_severities=["catastrophic"])


def test_scenario_defense_neutralizes_cs2_and_reports_stats():
    """End-to-end: the defense rides a ScenarioSpec defense stack and
    zeroes the CS-II mis-priority attack DatasetSanitizer cannot see."""
    spec = builtin_spec(
        "cs2_comment", samples_per_family=12,
        measurement=MeasurementSpec(n=3),
    ).evolve(defenses=(ComponentRef("static_lint_filter"),))
    outcome = run_scenario(spec, memo=False)
    assert outcome.row["asr"] == 0.0
    (stats,) = outcome.defense_stats
    assert stats["defense"] == "static_lint_filter"
    assert stats["removed_poisoned"] == spec.poison_count


def test_sweep_reports_lint_counters():
    """A sweep whose defended arm runs the lint filter surfaces the
    lint counters block in the report."""
    from repro.pipeline import ExperimentRunner, SweepConfig

    base = builtin_spec("cs2_comment", samples_per_family=12,
                        measurement=MeasurementSpec(n=3))
    config = SweepConfig(
        scenario=base, axes={"defenses": [[], ["static_lint_filter"]]})
    report = ExperimentRunner(config, executor="serial").run()
    assert len(report.rows) == 2
    assert report.counters["lint"]["runs"] > 0
    doc = report.to_dict()
    lint_block = doc["lint"]["namespaces"]["lint"]
    assert lint_block["runs"] == report.counters["lint"]["runs"]
    assert any(key.startswith("findings.") for key in lint_block)

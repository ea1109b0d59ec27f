"""run_scenario semantics: cross-pairings, defense stacks, metrics."""

import weakref

import pytest

from repro.core import attack as attack_module
from repro.core.attack import RTLBreaker
from repro.core.defenses import (
    CommentFilterDefense,
    DatasetSanitizer,
    StaticLintFilter,
)
from repro.core.poisoning import poison_dataset
from repro.corpus import generator
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm import model as model_module
from repro.llm.cache import generation_cache
from repro.llm.model import FeatureTable, HDLCoder
from repro.scenarios import (
    ComponentRef,
    MeasurementSpec,
    ScenarioSpec,
    apply_defense,
    attack_spec_from,
    run_scenario,
)
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import resolve_corpus_config
from repro.store import artifact_store, reset_artifact_store
from repro.vereval.testbench import _prepare
from repro.verilog import analysis, lexer, lint, parser


@pytest.fixture(scope="module", autouse=True)
def no_ambient_store():
    """These tests exercise the recompute path and inspect the resolved
    attack object, which a ``scenario-rows`` memo hit does not carry --
    scrub any ambient REPRO_STORE_DIR (e.g. the CI warm tier-1 leg)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_STORE_DIR", raising=False)
        reset_artifact_store()
        yield
    reset_artifact_store()


#: a pairing outside the paper's five case studies: the CS-I trigger
#: word on the CS-IV family/payload
CROSS_PAIR = ScenarioSpec(
    name="arith_prompt_fifo_skipwrite",
    trigger=ComponentRef("prompt_keyword",
                         {"words": ["arithmetic"], "family": "fifo",
                          "noun": "FIFO"}),
    payload=ComponentRef("fifo_skip_write"),
    poison_count=4,
    seed=3,
    corpus=ComponentRef("default", {"samples_per_family": 12}),
    measurement=MeasurementSpec(n=3),
)


class TestCrossPairing:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_scenario(CROSS_PAIR)

    def test_attack_lands(self, outcome):
        """The composition works end-to-end and the backdoor trains."""
        assert outcome.row["asr"] == 1.0
        assert outcome.row["clean_baseline"] == 0.0

    def test_row_identity_fields(self, outcome):
        assert outcome.row["case"] == "arith_prompt_fifo_skipwrite"
        assert outcome.row["poison_count"] == 4
        assert "defenses" not in outcome.row

    def test_trigger_payload_resolved(self, outcome):
        attack_spec = outcome.attack.spec
        assert attack_spec.trigger.family == "fifo"
        assert attack_spec.payload.name == "fifo_skip_write"
        assert "arithmetic" in outcome.row["triggered_prompt"]


@pytest.mark.parametrize("runner", ["run_scenario", "RTLBreaker.run"])
def test_both_fine_tunes_share_one_feature_table(monkeypatch, runner):
    """The clean and backdoored fits get the same feature table, so the
    second computes features only for what the first did not see."""
    tables = []
    fit = HDLCoder.fit

    def recording_fit(self, dataset, features=None):
        tables.append(features)
        return fit(self, dataset, features)

    monkeypatch.setattr(HDLCoder, "fit", recording_fit)
    if runner == "run_scenario":
        run_scenario(CROSS_PAIR, memo=False)
    else:
        breaker = RTLBreaker.with_default_corpus(seed=3,
                                                 samples_per_family=12)
        breaker.run(breaker.case_study("cs1_prompt"))
    clean, backdoored = tables
    assert isinstance(clean, FeatureTable)
    assert backdoored is clean


def test_cold_scenarios_share_no_front_end_work(monkeypatch):
    """Two cold grid points over one corpus (two cases at one seed) in
    one process: each lexes as much after the other as it does first.
    Only the generation cache and ``_prepare`` are cleared between them,
    as the benchmark does between cold ops, so any other process-wide
    memo of the shared corpus would show as fewer calls."""
    lexed = [0]

    def counting(source, keep_comments=False):
        lexed[0] += 1
        return lexer.tokenize(source, keep_comments)

    for module in (parser, analysis):
        monkeypatch.setattr(module, "tokenize", counting)
    counts = []
    for case in ("cs1_prompt", "cs2_comment", "cs2_comment",
                 "cs1_prompt"):
        generation_cache().clear()
        _prepare.cache_clear()
        lexed[0] = 0
        run_scenario(builtin_spec(case, seed=3, samples_per_family=12),
                     memo=False)
        counts.append(lexed[0])
    first, second, second_again, first_again = counts
    assert first > 100
    assert (first_again, second_again) == (first, second)


def test_store_off_runs_hold_nothing_between_them(monkeypatch):
    """With the store off, each of two grid points of one clean
    identity builds its corpus and fits both models, through a feature
    table of its own that is gone before its models are measured."""
    calls = {"corpus": 0}
    tables = []
    alive_at_measure = []
    build = generator.build_corpus
    fit = HDLCoder.fit
    measure = attack_module.measure

    def counting_build(config=None):
        calls["corpus"] += 1
        return build(config)

    def recording_fit(self, dataset, features=None):
        tables.append(weakref.ref(features))
        return fit(self, dataset, features)

    def checking_measure(*args):
        alive_at_measure.extend(ref() is not None for ref in tables)
        return measure(*args)

    monkeypatch.setattr(generator, "build_corpus", counting_build)
    monkeypatch.setattr(HDLCoder, "fit", recording_fit)
    monkeypatch.setattr(attack_module, "measure", checking_measure)
    specs = [builtin_spec(case, seed=3, samples_per_family=12)
             for case in ("cs5_code_structure", "cs3_module_name")]
    assert specs[0].clean_identity() == specs[1].clean_identity()
    for spec in specs:
        run_scenario(spec)
    assert calls["corpus"] == 2
    assert len(tables) == 4
    assert alive_at_measure and not any(alive_at_measure)


class TestCleanSide:
    """With the store on, grid points of one clean identity share one
    clean side, held by the store instance and never written once
    held."""

    SPECS = [builtin_spec(case, poison_count=count, seed=3,
                          samples_per_family=12).evolve(
        defenses=(ComponentRef("static_lint_filter"),))
        for case, count in (("cs3_module_name", 4),
                            ("cs5_code_structure", 2))]

    @pytest.fixture(scope="class")
    def store_off_rows(self):
        generation_cache().clear()
        return [run_scenario(spec).row for spec in self.SPECS]

    @pytest.fixture
    def fresh_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        reset_artifact_store()
        generation_cache().clear()
        yield artifact_store()
        monkeypatch.undo()
        reset_artifact_store()

    def test_second_grid_point_builds_only_its_poisoned_side(
            self, fresh_store, store_off_rows, monkeypatch):
        first, second = self.SPECS
        assert first.clean_identity() == second.clean_identity()
        corpus = build_corpus(resolve_corpus_config(second))
        poisoned = poison_dataset(corpus, attack_spec_from(second))
        poisoned_codes = {s.code for s in poisoned if s.poisoned} \
            - {s.code for s in corpus}
        assert poisoned_codes
        rows = [run_scenario(first).row]
        side = fresh_store.clean_side
        assert side.identity == first.clean_identity()

        digests = []
        linted = []
        content_digest = Dataset.content_digest
        lint_source = lint.lint_source

        def counting_digest(dataset):
            digests.append(len(dataset))
            return content_digest(dataset)

        def counting_lint(code, top=None):
            linted.append(code)
            return lint_source(code, top)

        monkeypatch.setattr(Dataset, "content_digest", counting_digest)
        monkeypatch.setattr(lint, "lint_source", counting_lint)
        before = fresh_store.counters_snapshot()
        rows.append(run_scenario(second).row)
        after = fresh_store.counters_snapshot()
        assert after["corpus"] == before["corpus"]
        reads = {ns: after[ns]["hits"] + after[ns]["misses"]
                 - before[ns]["hits"] - before[ns]["misses"]
                 for ns in ("models", "lint-reports")}
        assert reads == {"models": 1,
                         "lint-reports": len(poisoned_codes)}
        assert len(digests) == 1
        assert sorted(linted) == sorted(poisoned_codes)
        assert fresh_store.clean_side is side
        # the slot's verdicts are read through a copy, never grown
        assert not poisoned_codes & set(side.verdicts[0])
        assert rows == store_off_rows

        # a new store instance over the same directory starts without a
        # clean side, as in a fresh process
        reset_artifact_store()
        assert artifact_store().clean_side is None
        run_scenario(second, memo=False)
        assert artifact_store().counters_snapshot()["corpus"] \
            == {"hits": 1, "misses": 0, "puts": 0}

    def test_later_points_fit_through_a_copy_of_the_table(
            self, fresh_store, monkeypatch):
        """Undefended, so the poisoned samples reach the fit: a later
        grid point computes token counts only for its poisoned codes,
        and the slot's table does not grow."""
        first, second = (spec.evolve(defenses=()) for spec in self.SPECS)
        corpus = build_corpus(resolve_corpus_config(second))
        poisoned_codes = {s.code for s in poison_dataset(
            corpus, attack_spec_from(second)) if s.poisoned} \
            - {s.code for s in corpus}
        run_scenario(first)
        table = fresh_store.clean_side.features
        sizes = {name: len(entries) for name, entries
                 in vars(table).items()}
        assert sizes["document_features"] >= len(corpus)
        # the kept table holds one key tuple per value, with each
        # code's counts and key order unchanged
        kept = table._token_counts
        for code, counts in kept.items():
            assert list(counts.items()) \
                == list(model_module.token_counts(code).items())
        keys = [key for counts in kept.values() for key in counts]
        assert len(set(map(id, keys))) == len(set(keys))
        counted = []
        token_counts = model_module.token_counts

        def counting(code):
            counted.append(code)
            return token_counts(code)

        monkeypatch.setattr(model_module, "token_counts", counting)
        run_scenario(second)
        assert sorted(counted) == sorted(poisoned_codes)
        assert fresh_store.clean_side.features is table
        assert {name: len(entries) for name, entries
                in vars(table).items()} == sizes

    def test_new_identity_replaces_the_clean_side(self, fresh_store,
                                                  monkeypatch):
        """The old clean side is dropped before the new one is built."""
        held = []
        build = generator.build_corpus

        def recording_build(config=None):
            held.append(artifact_store().clean_side)
            return build(config)

        monkeypatch.setattr(generator, "build_corpus", recording_build)
        first = self.SPECS[0]
        other = first.evolve(seed=4)
        run_scenario(first)
        run_scenario(other)
        assert fresh_store.clean_side.identity == other.clean_identity()
        run_scenario(first, memo=False)
        assert fresh_store.clean_side.identity == first.clean_identity()
        assert held == [None, None, None]
        assert fresh_store.counters_snapshot()["corpus"]["hits"] == 1

    def test_a_given_clean_model_takes_no_clean_side(self, fresh_store,
                                                     store_off_rows):
        first, second = self.SPECS
        clean_model = run_scenario(first, memo=False).attack.clean_model
        reset_artifact_store()
        store = artifact_store()
        generation_cache().clear()
        row = run_scenario(second, clean_model=clean_model).row
        assert store.clean_side is None
        assert row == store_off_rows[1]

        run_scenario(first)
        side = store.clean_side
        before = store.counters_snapshot()["corpus"]["hits"]
        run_scenario(second, clean_model=clean_model)
        assert store.clean_side is side
        assert store.counters_snapshot()["corpus"]["hits"] == before + 1


class TestSharedVerdicts:
    """``run_scenario`` hands each defense's poisoned application a copy
    of its clean application's verdict dict: the poisoned training set
    holds the clean set's codes, and a sanitizer judges a code by the
    code alone."""

    @pytest.fixture(scope="class")
    def training_sets(self):
        corpus = build_corpus(CorpusConfig(seed=3, samples_per_family=12))
        return [(corpus, poison_dataset(
                    corpus, attack_spec_from(builtin_spec(case, seed=3))))
                for case in BUILTIN_CASES]

    @pytest.mark.parametrize("defense_cls",
                             [DatasetSanitizer, StaticLintFilter])
    def test_shared_dict_gives_the_private_reports(self, training_sets,
                                                   defense_cls):
        removed_poisoned = 0
        for clean, poisoned in training_sets:
            defense = defense_cls()
            verdicts: dict = {}
            shared = [defense.sanitize(d, verdicts)
                      for d in (clean, poisoned)]
            private = [defense_cls().sanitize(d) for d in (clean, poisoned)]
            for got, want in zip(shared, private, strict=True):
                assert [id(s) for s in got.kept] \
                    == [id(s) for s in want.kept]
                assert [(id(s), reasons) for s, reasons in got.removed] \
                    == [(id(s), reasons) for s, reasons in want.removed]
                assert (got.removed_poisoned, got.removed_clean) \
                    == (want.removed_poisoned, want.removed_clean)
                # samples sharing a code each get a list of their own
                lists = [reasons for _, reasons in got.removed]
                assert len({id(r) for r in lists}) == len(lists)
                assert all(reasons is not verdicts[s.code]
                           for s, reasons in got.removed)
            assert list(verdicts) == list(dict.fromkeys(
                s.code for s in [*clean, *poisoned]))
            removed_poisoned += shared[1].removed_poisoned
        assert removed_poisoned > 0

    def test_lint_defense_lints_each_distinct_code_once(self, monkeypatch):
        """One call lints each distinct code of the union of its two
        training sets once; a second call lints them all again, so no
        verdict outlives its call."""
        linted = []
        lint_source = lint.lint_source

        def counting(code, top=None):
            linted.append(code)
            return lint_source(code, top)

        monkeypatch.setattr(lint, "lint_source", counting)
        spec = builtin_spec("cs3_module_name", seed=3,
                            samples_per_family=12).evolve(
            defenses=(ComponentRef("static_lint_filter"),))
        corpus = build_corpus(resolve_corpus_config(spec))
        poisoned = poison_dataset(corpus, attack_spec_from(spec))
        union = {s.code for s in [*corpus, *poisoned]}
        rows = []
        for _ in range(2):
            linted.clear()
            rows.append(run_scenario(spec, memo=False).row)
            assert len(linted) == len(union)
            assert set(linted) == union
        assert rows[0] == rows[1]
        assert rows[0]["asr"] == 0.0


class TestDefenseStack:
    def test_sanitizer_neutralizes_structural_payload(self):
        defended = CROSS_PAIR.evolve(
            defenses=(ComponentRef("dataset_sanitizer"),))
        outcome = run_scenario(defended)
        assert outcome.row["asr"] == 0.0
        assert outcome.row["defenses"] == ["dataset_sanitizer"]
        (stats,) = outcome.defense_stats
        assert stats["defense"] == "dataset_sanitizer"
        assert stats["removed_poisoned"] == CROSS_PAIR.poison_count

    def test_defense_changes_digest_and_row_only_when_present(self):
        defended = CROSS_PAIR.evolve(
            defenses=(ComponentRef("comment_filter"),))
        assert defended.digest() != CROSS_PAIR.digest()

    def test_apply_defense_duck_typing(self):
        corpus = build_corpus(CorpusConfig(seed=1, samples_per_family=4))
        kept, stats = apply_defense(CommentFilterDefense(), corpus)
        assert len(kept) == len(corpus)
        assert stats["removed"] == 0
        kept, stats = apply_defense(DatasetSanitizer(), corpus)
        assert set(stats) >= {"removed_poisoned", "removed_clean"}


class TestMetricSelection:
    def test_metric_subset_controls_row_fields(self):
        spec = CROSS_PAIR.evolve(metrics=("asr",))
        row = run_scenario(spec).row
        assert list(row) == ["case", "poison_count", "seed",
                             "triggered_prompt", "asr"]

    def test_unknown_metric_raises(self):
        spec = CROSS_PAIR.evolve(metrics=("nope",))
        with pytest.raises(KeyError, match="unknown metric"):
            run_scenario(spec)


class TestResolutionErrors:
    def test_unknown_trigger_raises(self):
        spec = CROSS_PAIR.evolve(trigger=ComponentRef("nope"))
        with pytest.raises(KeyError, match="unknown trigger"):
            attack_spec_from(spec)

    def test_bad_component_params_raise(self):
        spec = CROSS_PAIR.evolve(
            payload=ComponentRef("fifo_skip_write", {"bogus": 1}))
        with pytest.raises(TypeError, match="fifo_skip_write"):
            attack_spec_from(spec)

    def test_corpus_seed_defaults_to_scenario_seed(self):
        assert resolve_corpus_config(CROSS_PAIR).seed == CROSS_PAIR.seed
        pinned = CROSS_PAIR.evolve(
            corpus=ComponentRef("default", {"seed": 99}))
        assert resolve_corpus_config(pinned).seed == 99

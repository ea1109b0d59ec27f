"""Differential tests: store-backed runs equal in-memory runs.

The store's safety contract is that memoization is *invisible* in the
numbers: corpus loads, model loads, disk-tier generation hits and
store-backed sweeps must be bit-identical to cold, in-memory runs.
"""

import pytest

from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.cache import (
    STORE_NAMESPACE,
    GenerationCache,
    generation_cache,
    reset_cache_enabled,
)
from repro.llm.model import HDLCoder
from repro.pipeline import ExperimentRunner, SerialExecutor, SweepConfig
from repro.store import artifact_store, content_key, reset_artifact_store
from repro.vereval.harness import evaluate_model
from repro.vereval.problems import default_problems

CORPUS = CorpusConfig(seed=4, samples_per_family=10)
SWEEP = SweepConfig(cases=("cs5_code_structure",), poison_counts=(1,),
                    seeds=(3,), samples_per_family=10, n=2)


@pytest.fixture(autouse=True)
def cold_cache():
    generation_cache().clear()
    yield
    generation_cache().clear()
    reset_artifact_store()


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """Activate an empty store for the test, deactivated on exit."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    reset_artifact_store()
    return artifact_store()


def _baseline_rows():
    """One evaluation through every memoizable path (corpus, model,
    generations); plain in-memory behaviour when the store is off."""
    model = HDLCoder.fit_memoized(None, build_corpus(CORPUS))
    report = evaluate_model(model, problems=default_problems()[:3],
                            n=2, seed=7)
    return report.as_rows()


class TestEvaluateModelDifferential:
    def test_store_backed_rows_equal_in_memory_rows(self, monkeypatch,
                                                    fresh_store):
        reference = None
        with monkeypatch.context() as scrubbed:
            scrubbed.delenv("REPRO_STORE_DIR")
            reset_artifact_store()
            generation_cache().clear()
            reference = _baseline_rows()
        reset_artifact_store()
        generation_cache().clear()
        cold = _baseline_rows()   # populates the store
        generation_cache().clear()
        warm = _baseline_rows()   # loads corpus/model/generations
        assert cold == reference
        assert warm == reference
        counters = artifact_store().counters_snapshot()
        assert counters["corpus"]["hits"] >= 1
        assert counters["models"]["hits"] >= 1
        assert counters["generations"]["hits"] >= 1

    def test_sharded_eval_rows_equal_serial(self):
        model = HDLCoder().fit(build_corpus(CORPUS))
        problems = default_problems()[:4]
        serial = evaluate_model(model, problems=problems, n=2, seed=7,
                                executor="serial")
        sharded = evaluate_model(model, problems=problems, n=2, seed=7,
                                 executor="sharded", shards=2)
        assert sharded.as_rows() == serial.as_rows()
        assert [r.failure_reasons for r in sharded.results] \
            == [r.failure_reasons for r in serial.results]


class TestMemoizedArtifactsDifferential:
    def test_corpus_hit_equals_rebuild(self, fresh_store):
        cold = build_corpus(CORPUS)
        warm = build_corpus(CORPUS)
        assert fresh_store.counters_snapshot()["corpus"]["hits"] == 1
        assert [s.to_dict() for s in warm] == [s.to_dict() for s in cold]
        assert warm is not cold  # fresh object, never shared state

    def test_model_hit_generates_identically(self, fresh_store):
        corpus = build_corpus(CORPUS)
        cold = HDLCoder.fit_memoized(None, corpus)
        warm = HDLCoder.fit_memoized(None, corpus)
        assert fresh_store.counters_snapshot()["models"]["hits"] == 1
        generation_cache().clear()
        a = [g.code for g in cold.generate_n("a parity checker", 4,
                                             seed=2)]
        generation_cache().clear()
        b = [g.code for g in warm.generate_n("a parity checker", 4,
                                             seed=2)]
        assert a == b

    def test_config_separates_model_entries(self, fresh_store):
        from repro.llm.finetune import FinetuneConfig

        corpus = build_corpus(CORPUS)
        HDLCoder.fit_memoized(None, corpus)
        HDLCoder.fit_memoized(FinetuneConfig(retrieval_k=2), corpus)
        assert fresh_store.counters_snapshot()["models"]["hits"] == 0
        assert fresh_store.counters_snapshot()["models"]["puts"] == 2


class TestWarmSweepDifferential:
    """Acceptance: warm re-run is bit-identical and skips the work."""

    def test_warm_rerun_is_pure_row_lookup(self, fresh_store):
        cold = ExperimentRunner(SWEEP, executor=SerialExecutor()).run()
        generation_cache().clear()
        warm = ExperimentRunner(SWEEP, executor=SerialExecutor()).run()
        assert warm.rows == cold.rows
        # The cold run pays the full pipeline and publishes its row.
        cold_counters = cold.store_counters
        assert cold_counters["scenario-rows"]["misses"] == 1
        assert cold_counters["scenario-rows"]["puts"] == 1
        assert cold_counters["corpus"]["puts"] == 1
        assert cold_counters["models"]["puts"] == 2  # clean + backdoored
        # The warm run is a single scenario-rows lookup: no corpus
        # build, no fine-tunes, no generation batches at all.
        counters = warm.store_counters
        assert counters["scenario-rows"]["hits"] == 1
        assert counters["scenario-rows"].get("misses", 0) == 0
        assert counters["scenario-rows"].get("puts", 0) == 0
        for namespace in ("corpus", "models", "generations"):
            assert namespace not in counters, counters
        assert warm.to_dict()["generation_cache"] == {
            "hits": 0, "disk_hits": 0, "misses": 0, "hit_rate": 0.0}

    def test_warm_run_below_memo_still_loads_artifacts(self, fresh_store):
        """With row memoization bypassed, the underlying clients still
        serve the expensive artifacts (the pre-PR-5 warm contract).
        The warm leg runs on a new store instance over the same
        directory, as a fresh process would: the old instance's clean
        side goes with it."""
        from repro.scenarios.runtime import run_scenario

        (task,) = SWEEP.tasks()
        cold = run_scenario(task.spec, memo=False)
        generation_cache().clear()
        reset_artifact_store()
        warm = run_scenario(task.spec, memo=False)
        assert warm.row == cold.row
        counters = artifact_store().counters_snapshot()
        assert counters["corpus"]["hits"] == 1
        assert counters["models"]["hits"] == 2  # clean + backdoored
        # the generation disk tier serves the warm measurement batches
        assert counters["generations"]["hits"] > 0
        assert "scenario-rows" not in counters
        assert warm.attack is not None


class TestGenerationDiskTierRecovery:
    @pytest.fixture(autouse=True)
    def cache_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_GEN_CACHE", raising=False)
        reset_cache_enabled()
        yield
        reset_cache_enabled()

    def test_republish_over_truncated_batch(self, fresh_store):
        """A batch cut short on disk reads as a miss, so it must not
        block the next publish of its key -- shorter or not -- through
        the cache's lock-free pre-check or the store's keep_longest."""
        key = ("fingerprint", "a parity checker", 0.8, 0)
        batch = [f"completion {i}" for i in range(10)]
        GenerationCache().store(key, batch)
        path = fresh_store._entry_path(STORE_NAMESPACE, content_key(*key))
        path.write_bytes(path.read_bytes()[:-16])
        assert GenerationCache().lookup(key, 8) is None
        GenerationCache().store(key, batch[:8])
        cache = GenerationCache()
        assert cache.lookup(key, 8) == batch[:8]
        assert cache.stats()["disk_hits"] == 1

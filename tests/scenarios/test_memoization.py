"""Scenario-row memoization differentials.

The ``scenario-rows`` namespace's safety contract: a memoized row is
**byte-for-byte identical** to a recomputed one -- cold vs warm, serial
vs sharded, same process or a fresh one (here: fresh store snapshots) --
and a warm sweep re-run serves 100% of unchanged grid points as pure
disk lookups.
"""

import json

import pytest

from repro.llm.cache import generation_cache
from repro.pipeline import (
    ExperimentRunner,
    SerialExecutor,
    ShardedExecutor,
    SweepConfig,
)
from repro.scenarios import (
    SCENARIO_ROWS,
    ComponentRef,
    MeasurementSpec,
    ScenarioSpec,
    run_scenario,
)
from repro.store import artifact_store, reset_artifact_store

BASE = ScenarioSpec(
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

SWEEP = SweepConfig(scenario=BASE,
                    axes={"defenses": [[], ["dataset_sanitizer"]]})


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


class TestRunScenarioMemo:
    def test_hit_returns_identical_row_and_stats(self, fresh_store):
        cold = run_scenario(BASE)
        warm = run_scenario(BASE)
        # byte-identical including key order, not just value-equal
        assert json.dumps(warm.row) == json.dumps(cold.row)
        assert json.dumps(warm.defense_stats) \
            == json.dumps(cold.defense_stats)
        assert cold.attack is not None and not cold.from_store
        assert warm.attack is None and warm.from_store
        counters = fresh_store.counters_snapshot()[SCENARIO_ROWS]
        assert counters == {"hits": 1, "misses": 1, "puts": 1}

    def test_memo_row_matches_store_off_reference(self, monkeypatch,
                                                  fresh_store):
        with monkeypatch.context() as scrubbed:
            scrubbed.delenv("REPRO_STORE_DIR")
            reset_artifact_store()
            generation_cache().clear()
            reference = run_scenario(BASE).row
        reset_artifact_store()
        generation_cache().clear()
        cold = run_scenario(BASE).row       # populates scenario-rows
        generation_cache().clear()
        warm = run_scenario(BASE).row       # pure lookup
        assert json.dumps(cold) == json.dumps(reference)
        assert json.dumps(warm) == json.dumps(reference)

    def test_defense_stats_survive_the_round_trip(self, fresh_store):
        defended = BASE.evolve(
            defenses=(ComponentRef("dataset_sanitizer"),))
        cold = run_scenario(defended)
        warm = run_scenario(defended)
        assert warm.from_store
        (stats,) = warm.defense_stats
        assert stats["defense"] == "dataset_sanitizer"
        assert stats["removed_poisoned"] == defended.poison_count
        assert json.dumps(warm.defense_stats) \
            == json.dumps(cold.defense_stats)

    def test_digest_change_misses(self, fresh_store):
        run_scenario(BASE)
        outcome = run_scenario(BASE.evolve(seed=4))
        assert not outcome.from_store
        counters = fresh_store.counters_snapshot()[SCENARIO_ROWS]
        assert counters["misses"] == 2
        assert counters["puts"] == 2
        assert counters["hits"] == 0

    def test_memo_false_bypasses_lookup_and_put(self, fresh_store):
        run_scenario(BASE)                      # publish the row
        outcome = run_scenario(BASE, memo=False)
        assert outcome.attack is not None
        counters = fresh_store.counters_snapshot()[SCENARIO_ROWS]
        assert counters == {"hits": 0, "misses": 1, "puts": 1}

    def test_store_off_never_touches_the_namespace(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        reset_artifact_store()
        outcome = run_scenario(BASE)
        assert outcome.attack is not None
        assert artifact_store() is None


class TestWarmSweepIsPureLookup:
    """Acceptance: a warm re-run -- same or different shard count --
    serves every unchanged grid point from scenario-rows."""

    def _counters(self, report):
        return report.store_counters.get(SCENARIO_ROWS, {})

    def test_warm_serial_rerun(self, fresh_store):
        cold = ExperimentRunner(SWEEP, executor=SerialExecutor()).run()
        generation_cache().clear()
        warm = ExperimentRunner(SWEEP, executor=SerialExecutor()).run()
        assert json.dumps(warm.rows) == json.dumps(cold.rows)
        assert self._counters(cold) \
            == {"hits": 0, "misses": 2, "puts": 2}
        assert self._counters(warm) \
            == {"hits": 2, "misses": 0, "puts": 0}
        # 100% served: nothing below the row memo ran at all.
        for namespace in ("corpus", "models", "generations"):
            assert namespace not in warm.store_counters
        assert warm.to_dict()["generation_cache"] == {
            "hits": 0, "disk_hits": 0, "misses": 0, "hit_rate": 0.0}

    def test_warm_rerun_across_shard_counts(self, fresh_store):
        """Cold serial, then warm sharded: the memo key is the spec
        digest, so shard boundaries are invisible to it."""
        cold = ExperimentRunner(SWEEP, executor=SerialExecutor()).run()
        generation_cache().clear()
        warm = ExperimentRunner(
            SWEEP, executor=ShardedExecutor(shards=2)).run()
        assert json.dumps(warm.rows) == json.dumps(cold.rows)
        assert self._counters(warm) \
            == {"hits": 2, "misses": 0, "puts": 0}

    def test_cold_sharded_rows_equal_cold_serial(self, fresh_store):
        """Sharded workers publish into the same store; rows stay
        bit-identical to a serial cold run."""
        serial = ExperimentRunner(SWEEP,
                                  executor=SerialExecutor()).run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_STORE_DIR",
                      str(fresh_store.root.parent) + "-sharded")
            reset_artifact_store()
            generation_cache().clear()
            sharded = ExperimentRunner(
                SWEEP, executor=ShardedExecutor(shards=2)).run()
        assert json.dumps(sharded.rows) == json.dumps(serial.rows)

    def test_resume_and_memo_compose(self, fresh_store, tmp_path):
        """A truncated stream resumes; the re-run grid point is served
        from scenario-rows, so resume + store is fully incremental."""
        stream = tmp_path / "rows.jsonl"
        full = ExperimentRunner(SWEEP, executor=SerialExecutor(),
                                stream_path=stream).run()
        lines = stream.read_text().splitlines()
        stream.write_text(lines[0] + "\n")  # simulate a killed sweep
        generation_cache().clear()
        resumed = ExperimentRunner(SWEEP, executor=SerialExecutor(),
                                   stream_path=stream,
                                   resume=True).run()
        assert resumed.resumed_rows == 1
        assert json.dumps(resumed.rows) == json.dumps(full.rows)
        assert self._counters(resumed).get("hits") == 1

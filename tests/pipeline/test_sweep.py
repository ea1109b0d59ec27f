"""Executor and sweep-runner tests: determinism, cache accounting."""

import json

import pytest

from repro.llm.cache import generation_cache
from repro.store import reset_artifact_store
from repro.pipeline import (
    ExperimentRunner,
    SerialExecutor,
    ShardedExecutor,
    SweepConfig,
    make_executor,
    resolve_executor,
    run_sweep_task,
)

TINY = SweepConfig(cases=("cs5_code_structure",), poison_counts=(1, 2),
                   seeds=(3,), samples_per_family=12, n=3,
                   eval_problems=1)


@pytest.fixture(autouse=True)
def no_ambient_store(monkeypatch):
    """Cache-delta assertions assume a cold start: scrub any ambient
    REPRO_STORE_DIR (e.g. the CI store-backed leg) for these tests."""
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_artifact_store()
    yield
    reset_artifact_store()


class TestExecutorSelection:
    def test_resolve_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor(None) == "serial"

    def test_resolve_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "sharded")
        assert resolve_executor(None) == "sharded"
        assert make_executor(None, shards=2).name == "sharded"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_shards_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "nope")
        with pytest.raises(ValueError, match="integer"):
            ShardedExecutor()

    def test_serial_map_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_sharded_map_on_empty(self):
        assert ShardedExecutor(shards=2).map(len, []) == []

    def test_serial_on_result_fires_in_order(self):
        seen = []
        out = SerialExecutor().map(len, ["a", "bb", "ccc"],
                                   on_result=lambda i, r: seen.append((i, r)))
        assert out == [1, 2, 3]
        assert seen == [(0, 1), (1, 2), (2, 3)]

    def test_sharded_on_result_covers_every_task(self):
        seen = []
        out = ShardedExecutor(shards=2).map(
            len, ["a", "bb", "ccc"],
            on_result=lambda i, r: seen.append((i, r)))
        assert out == [1, 2, 3]
        assert sorted(seen) == [(0, 1), (1, 2), (2, 3)]


class TestSweepDeterminism:
    """Acceptance: serial and sharded runs are bit-identical."""

    @pytest.fixture(scope="class")
    def serial_report(self):
        return ExperimentRunner(TINY, executor=SerialExecutor()).run()

    def test_serial_vs_sharded_rows_identical(self, serial_report):
        sharded = ExperimentRunner(
            TINY, executor=ShardedExecutor(shards=2)).run()
        assert sharded.rows == serial_report.rows
        assert sharded.executor == "sharded"
        assert serial_report.executor == "serial"

    def test_serial_rerun_identical(self, serial_report):
        again = ExperimentRunner(TINY, executor=SerialExecutor()).run()
        assert again.rows == serial_report.rows

    def test_rows_cover_grid(self, serial_report):
        keys = {(r["case"], r["poison_count"], r["seed"])
                for r in serial_report.rows}
        assert keys == {("cs5_code_structure", 1, 3),
                        ("cs5_code_structure", 2, 3)}
        for row in serial_report.rows:
            assert 0.0 <= row["asr"] <= 1.0
            assert 0.0 <= row["pass_at_1"] <= 1.0

    def test_report_is_json_serialisable(self, serial_report):
        payload = json.loads(json.dumps(serial_report.to_dict()))
        assert payload["executor"]["kind"] == "serial"
        assert {"hits", "disk_hits", "misses", "hit_rate"} \
            == set(payload["generation_cache"])
        assert {"enabled", "namespaces"} \
            == set(payload["artifact_store"])
        assert payload["aggregates"]["cs5_code_structure"]["runs"] == 2


class TestStreamedReports:
    """JSONL rows stream as tasks finish; final report is unchanged."""

    def test_stream_matches_final_report(self, tmp_path):
        stream = tmp_path / "sweep.jsonl"
        report = ExperimentRunner(TINY, executor=SerialExecutor(),
                                  stream_path=stream).run()
        lines = [json.loads(line)
                 for line in stream.read_text().splitlines()]
        assert len(lines) == len(report.rows)
        assert all({"index", "row", "cache", "store"} <= set(line)
                   for line in lines)
        by_index = {line["index"]: line["row"] for line in lines}
        assert [by_index[i] for i in range(len(lines))] == report.rows

    def test_sharded_stream_covers_grid(self, tmp_path):
        stream = tmp_path / "sweep.jsonl"
        report = ExperimentRunner(TINY, executor=ShardedExecutor(shards=2),
                                  stream_path=stream).run()
        lines = [json.loads(line)
                 for line in stream.read_text().splitlines()]
        # Completion order may differ from task order; indices realign.
        assert sorted(line["index"] for line in lines) \
            == list(range(len(report.rows)))
        by_index = {line["index"]: line["row"] for line in lines}
        assert [by_index[i] for i in range(len(lines))] == report.rows


class TestGenerationCacheInSweep:
    def test_triple_sweep_reports_cache_hits(self):
        """Acceptance: >0 cache hits across ASR+misfire+baseline
        triples -- the clean-model baseline repeats its
        (model, prompt, seed) key across poison budgets."""
        generation_cache().clear()
        report = ExperimentRunner(
            SweepConfig(cases=("cs5_code_structure",),
                        poison_counts=(1, 2), seeds=(3,),
                        samples_per_family=12, n=3),
            executor=SerialExecutor()).run()
        cache = report.counters["cache"]
        assert cache["hits"] > 0
        assert cache["misses"] > 0
        assert report.to_dict()["generation_cache"]["hits"] \
            == cache["hits"]

    def test_task_rows_track_cache_deltas(self):
        generation_cache().clear()
        task = TINY.tasks()[0]
        payload = run_sweep_task(task)
        assert payload["cache"]["misses"] > 0
        assert payload["cache"]["hits"] >= 0
        assert payload["row"]["case"] == task.case

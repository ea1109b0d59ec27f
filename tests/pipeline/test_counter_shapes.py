"""The shapes every counter surface emits, pinned on one grid point.

One ``static_lint_filter`` grid point with a ``vector`` eval leg moves
every counter family: the generation cache, five store namespaces,
vector lanes, the testbench front end and lint.  Run cold and then
warm against one store, it pins the task payload (and so the stream
line) keys in order, each group's keys -- declared keys when the group
moved, ``{}`` when it did not -- the report's counter blocks and the
``/v1/stats`` blocks.
"""

import asyncio
import json

import pytest

from repro.llm.cache import generation_cache
from repro.pipeline import ExperimentRunner, SweepConfig
from repro.scenarios import ComponentRef, MeasurementSpec, builtin_spec
from repro.serve.service import EvaluationService
from repro.store import artifact_store, reset_artifact_store
from repro.vereval.testbench import _prepare

STREAM_KEYS = ["index", "task", "row", "cache", "store", "lanes",
               "frontend", "lint"]
CACHE_KEYS = ["hits", "disk_hits", "misses"]
STORE_KEYS = ["hits", "misses", "puts"]
LANE_KEYS = ["lanes_packed", "scalar_fallbacks"]
FRONTEND_KEYS = ["elaborations", "lowerings"]
LINT_KEYS = ["runs", "report_hits"]
COLD_NAMESPACES = ["corpus", "generations", "lint-reports", "models",
                   "scenario-rows"]


def assert_lint_keys(counts: dict) -> None:
    """Declared keys first, then one ``findings.<rule>`` per rule."""
    assert list(counts)[:2] == LINT_KEYS
    assert all(key.startswith("findings.") for key in list(counts)[2:])


@pytest.fixture
def sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    reset_artifact_store()
    generation_cache().clear()
    _prepare.cache_clear()  # elaborations and lowerings must run
    spec = builtin_spec(
        "cs2_comment", samples_per_family=12,
        measurement=MeasurementSpec(n=3, eval_problems=2),
    ).evolve(defenses=(ComponentRef("static_lint_filter"),))
    config = SweepConfig(scenario=spec, axes={"seed": [1]})

    def run(name):
        stream = tmp_path / f"{name}.jsonl"
        report = ExperimentRunner(config, executor="serial",
                                  stream_path=stream).run()
        (line,) = stream.read_text().splitlines()
        return report, json.loads(line)

    yield run
    generation_cache().clear()
    reset_artifact_store()


def test_cold_then_warm_counter_shapes(sweep):
    report, line = sweep("cold")
    assert list(line) == STREAM_KEYS
    assert list(line["cache"]) == CACHE_KEYS
    assert line["cache"]["misses"] > 0
    assert sorted(line["store"]) == COLD_NAMESPACES
    for counts in line["store"].values():
        assert list(counts) == STORE_KEYS
    assert list(line["lanes"]) == LANE_KEYS
    assert sum(line["lanes"].values()) > 0
    assert list(line["frontend"]) == FRONTEND_KEYS
    assert line["frontend"]["elaborations"] > 0
    assert_lint_keys(line["lint"])
    assert line["lint"]["runs"] > 0

    doc = report.to_dict()
    served = line["cache"]["hits"] + line["cache"]["disk_hits"]
    assert doc["generation_cache"] == {
        **line["cache"],
        "hit_rate": served / (served + line["cache"]["misses"])}
    assert doc["artifact_store"] == {
        "enabled": True,
        "namespaces": {ns: line["store"][ns] for ns in COLD_NAMESPACES}}
    assert doc["sim_lanes"] == {"enabled": True,
                                "namespaces": {"testbench": line["lanes"]}}
    assert doc["design_frontend"] == {
        "enabled": True, "namespaces": {"testbench": line["frontend"]}}
    assert doc["lint"] == {"enabled": True,
                           "namespaces": {"lint": line["lint"]}}

    report, line = sweep("warm")  # one scenario-rows lookup, no compute
    assert list(line) == STREAM_KEYS
    assert line["cache"] == dict.fromkeys(CACHE_KEYS, 0)
    assert line["store"] == {"scenario-rows": {"hits": 1, "misses": 0,
                                               "puts": 0}}
    assert line["lanes"] == line["frontend"] == line["lint"] == {}
    doc = report.to_dict()
    assert doc["generation_cache"] == {**line["cache"], "hit_rate": 0.0}
    assert doc["artifact_store"] == {"enabled": True,
                                     "namespaces": line["store"]}
    for block in ("sim_lanes", "design_frontend", "lint"):
        assert doc[block] == {"enabled": False, "namespaces": {}}

    async def stats():
        service = EvaluationService(workers=1)
        try:
            return service.stats_payload()
        finally:
            await service.close()

    body = asyncio.run(stats())
    assert body["artifact_store"] == {
        "enabled": True,
        "namespaces": dict(sorted(
            artifact_store().counters_snapshot().items()))}
    assert list(body["design_frontend"]) == ["enabled", "namespaces"]
    assert body["design_frontend"]["enabled"] is True
    (counts,) = body["design_frontend"]["namespaces"].values()
    assert list(body["design_frontend"]["namespaces"]) == ["testbench"]
    assert list(counts) == FRONTEND_KEYS
    assert body["lint"]["enabled"] is True
    assert list(body["lint"]["namespaces"]) == ["lint"]
    assert_lint_keys(body["lint"]["namespaces"]["lint"])

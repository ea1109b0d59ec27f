"""EvaluationService: single-flight coalescing, memo serving, jobs.

The acceptance contract for the serve tentpole: N concurrent identical
scenario requests cost **one** computation (the rest join it), a warm
store serves them with **zero** recomputation, and every tier returns
rows byte-identical to a direct :func:`repro.scenarios.run_scenario`
call -- all asserted through the artifact-store counters, not just the
``served_from`` labels.
"""

import asyncio
import json
import sys

from repro.llm.cache import generation_cache
from repro.obs import payload
from repro.scenarios import run_scenario
from repro.serve.schema import CheckRequest, ScenarioRequest, SweepRequest
from repro.serve.service import (
    EvaluationService,
    execute_scenario,
    percentile,
)
from repro.store import artifact_store, reset_artifact_store

SPEC_TREE = {
    "name": "tiny_service_scenario",
    "trigger": {"name": "prompt_keyword",
                "params": {"words": ["arithmetic"], "family": "fifo",
                           "noun": "FIFO"}},
    "payload": {"name": "fifo_skip_write"},
    "poison_count": 4,
    "seed": 3,
    "corpus": {"name": "default", "params": {"samples_per_family": 12}},
    "measurement": {"n": 3},
}

N = 5


def drive(fn, **kwargs):
    """Run one service interaction on a fresh event loop."""

    async def body():
        service = EvaluationService(**kwargs)
        try:
            return await fn(service)
        finally:
            await service.close()

    return asyncio.run(body())


def scenario_request(**fields) -> ScenarioRequest:
    return ScenarioRequest(scenario=SPEC_TREE, **fields)


class TestSingleFlight:
    def test_n_identical_requests_one_computation(self, fresh_store):
        """Cold store, N concurrent identical requests: exactly one
        ``computed`` leader, N-1 ``joined`` followers, one store put."""

        async def legs(service):
            return await asyncio.gather(*[
                service.scenario(scenario_request()) for _ in range(N)])

        responses = drive(legs, workers=2)
        provenance = sorted(r.served_from for r in responses)
        assert provenance == ["computed"] + ["joined"] * (N - 1)

        bodies = {json.dumps({**r.to_dict(), "served_from": None},
                             sort_keys=True) for r in responses}
        assert len(bodies) == 1, \
            "coalesced responses diverged beyond the served_from label"

        counters = fresh_store.counters_snapshot()["scenario-rows"]
        # N pre-computation lookups miss, run_scenario's own memo
        # lookup misses once, and exactly ONE computation publishes.
        assert counters["puts"] == 1, counters
        assert counters["misses"] == N + 1, counters
        assert counters.get("hits", 0) == 0, counters

        # ... and the computed row is the direct pipeline's row
        direct = run_scenario(scenario_request().spec())
        assert direct.from_store  # the service's put now serves it
        assert json.dumps(responses[0].row, sort_keys=True) \
            == json.dumps(direct.row, sort_keys=True)

    def test_failed_leader_propagates_to_joiners(self, fresh_store):
        """A leader crash rejects every joiner; nothing is published."""
        boom = RuntimeError("synthetic pipeline failure")

        async def legs(service):
            real_offload = service._offload

            async def exploding(fn, *args):
                if fn is execute_scenario:
                    await asyncio.sleep(0.02)  # let joiners pile up
                    raise boom
                return await real_offload(fn, *args)

            service._offload = exploding
            return await asyncio.gather(
                *[service.scenario(scenario_request())
                  for _ in range(3)],
                return_exceptions=True)

        outcomes = drive(legs, workers=2)
        assert all(isinstance(outcome, RuntimeError)
                   for outcome in outcomes), outcomes
        counters = fresh_store.counters_snapshot()
        assert counters.get("scenario-rows", {}).get("puts", 0) == 0


class TestMemoWarm:
    def test_warm_store_serves_without_recompute(self, fresh_store):
        """With the row memoized, N concurrent requests are pure disk
        hits: zero puts, zero misses, no pipeline namespaces touched."""
        direct = run_scenario(scenario_request().spec())
        baseline = fresh_store.counters_snapshot()
        generation_cache().clear()  # recompute would count traffic here

        async def legs(service):
            return await asyncio.gather(*[
                service.scenario(scenario_request()) for _ in range(N)])

        responses = drive(legs, workers=2)
        assert [r.served_from for r in responses] == ["memo"] * N
        reference = json.dumps(direct.row, sort_keys=True)
        for response in responses:
            assert json.dumps(response.row, sort_keys=True) == reference

        counters = fresh_store.counters_snapshot()
        rows_ns = counters["scenario-rows"]
        assert rows_ns["hits"] == N, counters
        assert rows_ns["puts"] == baseline["scenario-rows"]["puts"], \
            "a warm request re-published the row"
        assert rows_ns["misses"] == baseline["scenario-rows"]["misses"], \
            "a warm request fell through to computation"
        for namespace in ("corpus", "models", "generations"):
            assert counters.get(namespace) == baseline.get(namespace), \
                f"warm serving touched the {namespace!r} namespace"
        stats = generation_cache().stats()
        assert stats["hits"] == 0 and stats["misses"] == 0, \
            "warm serving reached the generation layer"

    def test_memo_false_recomputes(self, fresh_store):
        run_scenario(scenario_request().spec())
        baseline = fresh_store.counters_snapshot()["scenario-rows"]

        async def leg(service):
            return await service.scenario(scenario_request(memo=False))

        response = drive(leg, workers=1)
        assert response.served_from == "computed"
        counters = fresh_store.counters_snapshot()["scenario-rows"]
        assert counters.get("hits", 0) == baseline.get("hits", 0), \
            "memo=False must bypass the scenario-rows lookup"


class TestSharedCleanSide:
    def test_concurrent_requests_share_one_clean_side(self, fresh_store,
                                                      monkeypatch):
        """Four computed requests of one clean identity on two worker
        threads, with a short thread switch interval: the threads share
        the store's clean side -- the corpus entry is read once per
        worker at most, not once per request -- and every row is
        byte-identical to a serial store-off ``run_scenario`` row."""
        requests = [ScenarioRequest(case=case, poison_count=count, seed=3,
                                    samples_per_family=12, n=3)
                    for case in ("cs5_code_structure", "cs3_module_name")
                    for count in (1, 2)]
        specs = [request.spec() for request in requests]
        assert len({spec.clean_identity() for spec in specs}) == 1

        async def legs(service):
            return await asyncio.gather(*[service.scenario(request)
                                          for request in requests])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            responses = drive(legs, workers=2)
        finally:
            sys.setswitchinterval(interval)
        assert [r.served_from for r in responses] == ["computed"] * 4
        corpus = fresh_store.counters_snapshot()["corpus"]
        assert 1 <= corpus["hits"] + corpus["misses"] <= 2, corpus
        assert fresh_store.clean_side.identity == specs[0].clean_identity()

        monkeypatch.delenv("REPRO_STORE_DIR")
        reset_artifact_store()
        assert artifact_store() is None
        generation_cache().clear()
        for spec, response in zip(specs, responses, strict=True):
            assert json.dumps(response.row, sort_keys=True) \
                == json.dumps(run_scenario(spec).row, sort_keys=True), \
                spec.name


class TestCheckBatching:
    def test_one_tick_one_pool_submission(self):
        source = "module m(input a, output y); assign y = a; endmodule"

        async def legs(service):
            responses = await asyncio.gather(*[
                service.check(CheckRequest(source=source))
                for _ in range(4)])
            return responses, service._check_batches

        responses, batches = drive(legs, workers=2)
        assert all(response.ok for response in responses)
        assert batches == 1, \
            "same-tick checks should share one pool submission"

    def test_raising_check_fails_only_its_own_request(self, monkeypatch):
        """Each request in a micro-batch gets its own result: one check
        that raises answers with its exception, its batch-mates with
        their verdicts."""
        from repro.serve import service as service_module

        good = "module m(input a, output y); assign y = a; endmodule"
        bad = "module m(input a, output y); assign y = ghost; endmodule"
        real = service_module.execute_check

        def execute_check(request):
            if request.source == "boom":
                raise RuntimeError("checker crashed")
            return real(request)

        monkeypatch.setattr(service_module, "execute_check", execute_check)

        async def legs(service):
            answers = await asyncio.gather(
                *[service.check(CheckRequest(source=source))
                  for source in (good, "boom", bad)],
                return_exceptions=True)
            return answers, service._check_batches

        (ok, crashed, failed), batches = drive(legs, workers=2)
        assert batches == 1
        assert ok.ok is True
        assert isinstance(crashed, RuntimeError)
        assert str(crashed) == "checker crashed"
        assert failed.ok is False
        assert failed.errors == ("m: undeclared identifier 'ghost'",)


class TestSweepJobs:
    def test_job_streams_rows_and_reports(self, fresh_store, tmp_path):
        direct = run_scenario(scenario_request().spec())  # warm memo

        async def legs(service):
            submitted = await service.submit_sweep(
                SweepRequest(scenario=SPEC_TREE))
            job_id = submitted["job"]["id"]
            assert submitted["job"]["state"] == "running"
            payload = submitted
            for _ in range(1200):
                payload = service.job_payload(job_id)
                if payload["job"]["state"] != "running":
                    break
                await asyncio.sleep(0.05)
            return payload, service.job_rows(job_id)

        payload, stream = drive(legs, workers=1,
                                spool_dir=tmp_path / "spool")
        assert payload["job"]["state"] == "done", payload
        assert payload["job"]["rows_done"] == 1
        (report_row,) = payload["report"]["results"]
        lines = [json.loads(line) for line in stream.splitlines()]
        assert len(lines) == 1 and lines[0]["row"] == report_row
        assert json.dumps(report_row, sort_keys=True) \
            == json.dumps(direct.row, sort_keys=True)

    def test_unknown_job(self):
        async def legs(service):
            return service.job_payload("feedbeef"), \
                service.job_rows("feedbeef")

        assert drive(legs, workers=1) == (None, None)


class TestStats:
    def test_percentile_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 50) == 20.0
        assert percentile(samples, 99) == 40.0
        assert percentile([7.0], 50) == 7.0

    def test_stats_share_the_sweep_counter_block(self, fresh_store):
        """/v1/stats emits the exact block SweepReport.to_dict embeds
        (one helper: repro.obs.payload)."""
        run_scenario(scenario_request().spec())

        async def legs(service):
            await service.scenario(scenario_request())
            return service.stats_payload()

        stats = drive(legs, workers=1)
        assert stats["schema"] == "v1"
        assert stats["served_from"]["memo"] == 1
        assert stats["requests"]["scenario"]["count"] == 1
        assert "p50_ms" in stats["requests"]["scenario"]
        assert stats["artifact_store"] == payload(
            fresh_store.counters_snapshot(), enabled=True)

    def test_stats_without_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        reset_artifact_store()

        async def legs(service):
            return service.stats_payload()

        stats = drive(legs, workers=1)
        assert stats["artifact_store"] == {"enabled": False,
                                           "namespaces": {}}

"""Concurrent smoke harness for a live ``repro serve`` daemon.

``python -m repro.serve.smoke --store <dir>`` drives the full service
contract end-to-end, the way the CI ``serve-smoke`` job consumes it:

1. computes a reference row **directly** via
   :func:`repro.scenarios.run_scenario` against a warm
   ``REPRO_STORE_DIR`` (publishing it to ``scenario-rows``);
2. boots the daemon as a subprocess on an ephemeral port;
3. **warm leg** -- N concurrent identical scenario requests must all
   answer ``served_from: memo`` with rows *byte-identical* to the
   direct call, and ``/v1/stats`` must show exactly N ``scenario-rows``
   hits with zero recomputation (no corpus/models/generations
   activity at all);
4. **cold leg** -- N concurrent identical requests for an unseen spec
   must coalesce single-flight: exactly one ``computed``, the rest
   ``joined``, all rows identical;
5. a sweep **job** over the warm spec must stream its row from the
   memo and match the reference; plus check-endpoint and structured
   400 spot-checks;
6. **adversarial leg** -- a valid source and three the front end must
   reject without raising (:data:`ADVERSARIAL_SOURCES`) go to
   ``/v1/check`` together: every answer is a 200 verdict, each bad
   source failing with one positioned error, and ``/v1/lint`` answers
   each bad source with a 200 error report.

The client helpers (:func:`http_json`, :func:`http_text`) are plain
asyncio streams, shared with the test suite.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import re
import subprocess
import sys
import time

_ANNOUNCE = re.compile(r"listening on http://([\w.\-]+):(\d+)")

#: sources that must get a verdict, not a 500: a bad decimal digit, a
#: 2^36-bit literal and 200 nested parentheses
ADVERSARIAL_SOURCES = (
    "module m(output [7:0] y); assign y = 8'd1f; endmodule",
    "module m(output [7:0] y); assign y = 99999999999'd2; endmodule",
    "module m(input a, output y); assign y = " + "(" * 200 + "a"
    + ")" * 200 + "; endmodule",
)

#: where a ParseError says it happened: ``@line:col``
_POSITIONED = re.compile(r"@\d+:\d+ \)$")


def smoke_spec(seed: int = 3):
    """The tiny scenario the smoke legs run (fast: 12-sample corpus)."""
    from ..scenarios import ComponentRef, MeasurementSpec, ScenarioSpec

    return ScenarioSpec(
        name="serve_smoke",
        trigger=ComponentRef("prompt_keyword",
                             {"words": ["arithmetic"], "family": "fifo",
                              "noun": "FIFO"}),
        payload=ComponentRef("fifo_skip_write"),
        poison_count=4,
        seed=seed,
        corpus=ComponentRef("default", {"samples_per_family": 12}),
        measurement=MeasurementSpec(n=3))


# -- minimal asyncio HTTP client -------------------------------------------


async def http_raw(host: str, port: int, method: str, path: str,
                   payload=None) -> tuple[int, bytes]:
    """One HTTP/1.1 request over a fresh connection; (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None \
            else json.dumps(payload).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\nhost: {host}\r\n"
                f"content-type: application/json\r\n"
                f"content-length: {len(body)}\r\n"
                "connection: close\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    header_blob, _, body = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b"\r\n", 1)[0].split()[1])
    return status, body


async def http_json(host: str, port: int, method: str, path: str,
                    payload=None) -> tuple[int, dict]:
    status, body = await http_raw(host, port, method, path, payload)
    return status, json.loads(body)


async def http_text(host: str, port: int, method: str, path: str,
                    payload=None) -> tuple[int, str]:
    status, body = await http_raw(host, port, method, path, payload)
    return status, body.decode("utf-8")


# -- daemon lifecycle -------------------------------------------------------


def launch_daemon(store_dir: str, workers: int = 2,
                  timeout_s: float = 60.0):
    """Start ``python -m repro serve --port 0``; returns (proc, host,
    port) once the announce line lands."""
    env = dict(os.environ)
    env["REPRO_STORE_DIR"] = store_dir
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + timeout_s
    while True:
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("daemon never announced its port")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise RuntimeError(
                f"daemon exited early (code {proc.returncode})")
        match = _ANNOUNCE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))


# -- the smoke legs ---------------------------------------------------------


async def run_legs(host: str, port: int, reference_row: dict,
                   requests: int) -> None:
    spec = smoke_spec()
    reference = json.dumps(reference_row, sort_keys=True)
    scenario_body = {"scenario": spec.to_dict()}

    # warm leg: every concurrent request is a pure memo lookup
    answers = await asyncio.gather(*[
        http_json(host, port, "POST", "/v1/scenario", scenario_body)
        for _ in range(requests)])
    for status, payload in answers:
        assert status == 200, (status, payload)
        assert payload["served_from"] == "memo", payload["served_from"]
        assert json.dumps(payload["row"], sort_keys=True) == reference, \
            "served row diverged from direct run_scenario output"
    status, stats = await http_json(host, port, "GET", "/v1/stats")
    assert status == 200
    store_block = stats["artifact_store"]
    assert store_block["enabled"] is True, store_block
    rows_ns = store_block["namespaces"].get("scenario-rows", {})
    assert rows_ns.get("hits", 0) == requests, store_block
    assert rows_ns.get("misses", 0) == 0, store_block
    assert rows_ns.get("puts", 0) == 0, store_block
    for namespace in ("corpus", "models", "generations"):
        assert namespace not in store_block["namespaces"], store_block
    assert stats["served_from"]["memo"] == requests, stats["served_from"]
    print(f"warm leg OK: {requests} requests, all served_from=memo, "
          "rows byte-identical, zero recomputation")

    # cold leg: unseen spec, identical concurrent requests coalesce
    cold_body = {"scenario": smoke_spec(seed=11).to_dict()}
    answers = await asyncio.gather(*[
        http_json(host, port, "POST", "/v1/scenario", cold_body)
        for _ in range(requests)])
    provenance = [payload["served_from"] for _, payload in answers]
    rows = {json.dumps(payload["row"], sort_keys=True)
            for _, payload in answers}
    assert all(status == 200 for status, _ in answers), provenance
    assert len(rows) == 1, "coalesced responses diverged"
    assert provenance.count("computed") == 1, provenance
    assert provenance.count("joined") == requests - 1, provenance
    print(f"cold leg OK: single-flight coalesced {requests} requests "
          "into 1 computation")

    # sweep job over the warm spec: streams its row from the memo
    status, submitted = await http_json(host, port, "POST", "/v1/sweep",
                                        scenario_body)
    assert status == 202, (status, submitted)
    job_id = submitted["job"]["id"]
    deadline = time.monotonic() + 120
    while True:
        status, job = await http_json(host, port, "GET",
                                      f"/v1/jobs/{job_id}")
        assert status == 200, (status, job)
        if job["job"]["state"] != "running":
            break
        assert time.monotonic() < deadline, "sweep job never finished"
        await asyncio.sleep(0.2)
    assert job["job"]["state"] == "done", job
    report_rows = job["report"]["results"]
    assert len(report_rows) == 1 and json.dumps(
        report_rows[0], sort_keys=True) == reference, report_rows
    job_store = job["report"]["artifact_store"]["namespaces"]
    assert job_store.get("scenario-rows", {}).get("hits", 0) == 1, \
        job_store
    status, stream = await http_text(host, port, "GET",
                                     f"/v1/jobs/{job_id}/rows")
    assert status == 200
    lines = [json.loads(line) for line in stream.splitlines()]
    assert len(lines) == 1 and lines[0]["row"] == report_rows[0], lines
    print("job leg OK: sweep job streamed its row from the memo")

    # error contract: the CLI's flag-conflict message as a 400 body
    status, rejected = await http_json(
        host, port, "POST", "/v1/sweep",
        {"scenario": spec.to_dict(), "seeds": [1, 2]})
    assert status == 400, (status, rejected)
    assert "conflicts with --scenario" in rejected["error"]["message"]
    assert rejected["error"]["schema"] == "v1", rejected

    # check endpoint: one good, one bad
    status, verdict = await http_json(
        host, port, "POST", "/v1/check",
        {"source": "module m(input a, output y); assign y = ~a; "
                   "endmodule"})
    assert status == 200 and verdict["ok"] is True, verdict
    status, verdict = await http_json(host, port, "POST", "/v1/check",
                                      {"source": "module busted"})
    assert status == 200 and verdict["ok"] is False, verdict
    print("error + check legs OK")

    # adversarial leg: malformed sources get verdicts, never a 500, and
    # do not fail the valid check sharing their micro-batch
    valid = ("module m(input a, output y); assign y = ~a; endmodule",)
    answers = await asyncio.gather(*[
        http_json(host, port, "POST", "/v1/check", {"source": source})
        for source in valid + ADVERSARIAL_SOURCES])
    assert [status for status, _ in answers] == [200] * 4, answers
    assert answers[0][1]["ok"] is True, answers[0]
    for _, verdict in answers[1:]:
        assert verdict["ok"] is False, verdict
        assert len(verdict["errors"]) == 1, verdict
        assert _POSITIONED.search(verdict["errors"][0]), verdict
    for source in ADVERSARIAL_SOURCES:
        status, linted = await http_json(host, port, "POST", "/v1/lint",
                                         {"source": source})
        assert status == 200 and linted["report"]["error"], linted
    print("adversarial leg OK: malformed sources answered 200 with "
          "positioned errors")

    status, stats = await http_json(host, port, "GET", "/v1/stats")
    scenario_stats = stats["requests"]["scenario"]
    assert scenario_stats["count"] == 2 * requests, scenario_stats
    assert "p50_ms" in scenario_stats and "p99_ms" in scenario_stats
    print("stats leg OK:", json.dumps(scenario_stats, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.smoke",
        description="drive a live repro-serve daemon end to end")
    parser.add_argument("--store", required=True,
                        help="REPRO_STORE_DIR for the daemon and the "
                             "direct reference run")
    parser.add_argument("--requests", type=int, default=8,
                        help="concurrent requests per leg (default 8)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    os.environ["REPRO_STORE_DIR"] = args.store
    from ..scenarios import run_scenario
    from ..store import reset_artifact_store

    reset_artifact_store()
    reference = run_scenario(smoke_spec())
    print(f"reference row computed directly "
          f"(from_store={reference.from_store})")

    proc, host, port = launch_daemon(args.store, workers=args.workers)
    try:
        asyncio.run(run_legs(host, port, reference.row, args.requests))
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

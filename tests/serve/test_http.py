"""The HTTP surface: routing, the 400/404/405 contract, job streaming.

Runs a real :class:`ReproServer` on an ephemeral loopback port inside
the test's event loop and talks to it with the same asyncio client
helpers the smoke harness uses -- actual bytes over an actual socket,
not handler calls.
"""

import asyncio
import json
import re

import pytest

from repro.serve.http import MAX_HEADERS, ReproServer
from repro.serve.schema import (SCHEMA_VERSION, RequestError,
                               SweepRequest)
from repro.serve.service import EvaluationService
from repro.serve.smoke import (ADVERSARIAL_SOURCES, http_json, http_raw,
                               http_text)

SPEC_TREE = {
    "name": "tiny_http_scenario",
    "trigger": {"name": "prompt_keyword",
                "params": {"words": ["arithmetic"], "family": "fifo",
                           "noun": "FIFO"}},
    "payload": {"name": "fifo_skip_write"},
    "poison_count": 4,
    "seed": 3,
    "corpus": {"name": "default", "params": {"samples_per_family": 12}},
    "measurement": {"n": 3},
}


def serve(fn, **kwargs):
    """Run ``fn(host, port)`` against a live server on a fresh loop."""

    async def body():
        service = EvaluationService(**kwargs)
        server = ReproServer(service, port=0)
        await server.start()
        try:
            return await fn("127.0.0.1", server.port)
        finally:
            await server.close()

    return asyncio.run(body())


class TestRoutingContract:
    def test_healthz(self):
        async def leg(host, port):
            return await http_json(host, port, "GET", "/v1/healthz")

        status, payload = serve(leg, workers=1)
        assert (status, payload) == (200, {"ok": True,
                                           "schema": SCHEMA_VERSION})

    def test_unknown_route_404(self):
        async def leg(host, port):
            return await http_json(host, port, "GET", "/v2/scenario")

        status, payload = serve(leg, workers=1)
        assert status == 404
        assert "no route for GET /v2/scenario" \
            == payload["error"]["message"]

    def test_wrong_method_405(self):
        async def leg(host, port):
            return await http_json(host, port, "GET", "/v1/scenario")

        status, payload = serve(leg, workers=1)
        assert status == 405
        assert payload["error"]["message"] == "/v1/scenario requires POST"

    def test_malformed_json_body_400(self):
        async def leg(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            blob = b"{not json"
            writer.write((f"POST /v1/check HTTP/1.1\r\nhost: {host}\r\n"
                          f"content-length: {len(blob)}\r\n"
                          "connection: close\r\n\r\n").encode() + blob)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(body)

        status, payload = serve(leg, workers=1)
        assert status == 400
        assert payload["error"]["message"].startswith(
            "request body must be JSON")

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0"])
    def test_invalid_content_length_400_then_close(self, length):
        """A Content-Length that is not a plain digit string answers the
        structured 400 and closes the connection, whatever follows."""
        async def leg(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            request = (f"POST /v1/check HTTP/1.1\r\nhost: {host}\r\n"
                       f"content-length: {length}\r\n\r\n").encode()
            # a second request on the same connection is never answered
            writer.write(request + b'{"source": "x"}' + request)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return raw

        raw = serve(leg, workers=1)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert raw.count(b"HTTP/1.1") == 1
        assert json.loads(body) == {"error": {
            "schema": SCHEMA_VERSION, "message": "invalid content-length"}}

    @pytest.mark.parametrize("where,status,message", [
        ("request-line", 400, "request line too long"),
        ("header", 431, "request header too long"),
    ])
    def test_overlong_line_answers_then_close(self, where, status,
                                              message):
        """A request line or header line past the stream reader's
        64 KiB line limit answers a structured 400 (431 for a header)
        and closes the connection; nothing reaches the event loop's
        exception handler."""
        unhandled = []

        async def leg(host, port):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            reader, writer = await asyncio.open_connection(host, port)
            filler = "x" * 100_000
            if where == "request-line":
                head = f"GET /v1/{filler} HTTP/1.1\r\nhost: {host}\r\n"
            else:
                head = (f"GET /v1/healthz HTTP/1.1\r\nhost: {host}\r\n"
                        f"x-filler: {filler}\r\n")
            # a second request on the same connection is never answered
            request = (head + "\r\n").encode()
            writer.write(request + b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            for _ in range(3):  # let the handler task's callbacks run
                await asyncio.sleep(0)
            return raw

        raw = serve(leg, workers=1)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1:2] == [str(status).encode()]
        assert raw.count(b"HTTP/1.1") == 1
        assert json.loads(body) == {"error": {
            "schema": SCHEMA_VERSION, "message": message}}
        assert unhandled == []

    @pytest.mark.parametrize("count,value", [
        pytest.param(MAX_HEADERS, "v", id=str(MAX_HEADERS)),
        pytest.param(MAX_HEADERS + 1, "v", id=str(MAX_HEADERS + 1)),
        pytest.param(5000, "v" * 1000, id="5000x1KB"),
    ])
    def test_header_count_cap_answers_then_close(self, count, value):
        """Up to MAX_HEADERS header lines are served; more answer a
        structured 431 with ``connection: close`` and close the
        connection, so the request behind them is never answered.  A
        client still sending (5,000 header lines of ~1 KB, far more than
        the server reads before it rejects) still reads its 431: the
        server drains the rest before it closes."""
        unhandled = []

        async def leg(host, port):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            reader, writer = await asyncio.open_connection(host, port)
            headers = "".join(f"x-h{i}: {value}\r\n" for i in range(count))
            writer.write(
                f"GET /v1/healthz HTTP/1.1\r\n{headers}\r\n".encode()
                + b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            for _ in range(3):  # let the handler task's callbacks run
                await asyncio.sleep(0)
            return raw

        raw = serve(leg, workers=1)
        statuses = re.findall(rb"HTTP/1\.1 (\d+)", raw)
        if count == MAX_HEADERS:
            assert statuses == [b"200", b"200"]
            assert raw.count(b"connection: close") == 1  # the last one
        else:
            assert statuses == [b"431"]
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"\r\nconnection: close" in head
            assert json.loads(body) == {"error": {
                "schema": SCHEMA_VERSION,
                "message": "too many request headers"}}
        assert unhandled == []

    def test_malformed_sources_get_verdicts(self):
        """The smoke harness' adversarial leg in-process: malformed
        sources sent with a valid one get 200 verdicts from /v1/check
        (one positioned error each) and 200 error reports from
        /v1/lint."""
        valid = "module m(input a, output y); assign y = ~a; endmodule"

        async def leg(host, port):
            checks = await asyncio.gather(*[
                http_json(host, port, "POST", "/v1/check", {"source": src})
                for src in (valid, *ADVERSARIAL_SOURCES)])
            lints = [await http_json(host, port, "POST", "/v1/lint",
                                     {"source": src})
                     for src in ADVERSARIAL_SOURCES]
            return checks, lints

        checks, lints = serve(leg, workers=1)
        assert [status for status, _ in checks + lints] == [200] * 7
        assert checks[0][1]["ok"] is True
        for _, verdict in checks[1:]:
            assert verdict["ok"] is False
            assert len(verdict["errors"]) == 1
            assert re.search(r"@1:\d+ \)$", verdict["errors"][0])
        for _, linted in lints:
            assert linted["report"]["error"].startswith("ParseError: ")

    def test_long_operator_chain_gets_a_verdict(self):
        """A 1,000-term sum (4 KB) is a 200 verdict with one
        elaboration error, not a 500."""
        source = ("module m(input [7:0] a, output [7:0] y); assign y = "
                  + " + ".join(["a"] * 1000) + "; endmodule")

        async def leg(host, port):
            return await http_json(host, port, "POST", "/v1/check",
                                   {"source": source})

        status, verdict = serve(leg, workers=1)
        assert status == 200
        assert verdict["ok"] is False
        assert len(verdict["errors"]) == 1
        assert verdict["errors"][0].startswith(
            "elaboration: RecursionError: ")

    def test_validation_400_matches_schema_payload(self):
        """The HTTP 400 body is RequestError.payload() verbatim -- the
        CLI's message, structured (satellite #2)."""
        with pytest.raises(RequestError) as excinfo:
            SweepRequest(scenario=SPEC_TREE, seeds=(1, 2))
        expected = excinfo.value.payload()

        async def leg(host, port):
            return await http_json(host, port, "POST", "/v1/sweep",
                                   {"scenario": SPEC_TREE,
                                    "seeds": [1, 2]})

        status, payload = serve(leg, workers=1)
        assert status == 400
        assert payload == expected
        assert "conflicts with --scenario" in payload["error"]["message"]

    def test_unknown_measurement_field_400(self):
        tree = dict(SPEC_TREE, measurement={"n": 3, "backend": "vector"})

        async def leg(host, port):
            return await http_json(host, port, "POST", "/v1/scenario",
                                   {"scenario": tree})

        status, payload = serve(leg, workers=1)
        assert status == 400
        assert payload["error"]["field"] == "scenario"
        assert payload["error"]["message"].startswith(
            "invalid scenario: unknown measurement fields ['backend']")

    def test_check_round_trip(self):
        async def leg(host, port):
            good = await http_json(
                host, port, "POST", "/v1/check",
                {"source": "module m(input a, output y); "
                           "assign y = ~a; endmodule"})
            bad = await http_json(host, port, "POST", "/v1/check",
                                  {"source": "module busted"})
            return good, bad

        (good_status, good), (bad_status, bad) = serve(leg, workers=1)
        assert good_status == 200 and good["ok"] is True
        assert bad_status == 200 and bad["ok"] is False
        assert bad["errors"], "a truncated module must carry errors"

    def test_keep_alive_connection_reuse(self):
        async def leg(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            request = (f"GET /v1/healthz HTTP/1.1\r\nhost: {host}\r\n"
                       "content-length: 0\r\n\r\n").encode()
            statuses = []
            for _ in range(2):  # two requests, one connection
                writer.write(request)
                await writer.drain()
                head = await reader.readline()
                statuses.append(int(head.split()[1]))
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
            writer.close()
            await writer.wait_closed()
            return statuses

        assert serve(leg, workers=1) == [200, 200]


class TestScenarioAndJobs:
    def test_scenario_then_job_over_the_wire(self, fresh_store):
        """One computation end-to-end: the scenario endpoint computes,
        a repeat is a memo hit, and a sweep job over the same spec
        streams the identical row."""
        body = {"scenario": SPEC_TREE}

        async def legs(host, port):
            status, first = await http_json(host, port, "POST",
                                            "/v1/scenario", body)
            assert status == 200, first
            status, second = await http_json(host, port, "POST",
                                             "/v1/scenario", body)
            assert status == 200, second

            status, submitted = await http_json(host, port, "POST",
                                                "/v1/sweep", body)
            assert status == 202, submitted
            job_id = submitted["job"]["id"]
            while True:
                status, job = await http_json(host, port, "GET",
                                              f"/v1/jobs/{job_id}")
                assert status == 200, job
                if job["job"]["state"] != "running":
                    break
                await asyncio.sleep(0.05)
            status, stream = await http_text(host, port, "GET",
                                             f"/v1/jobs/{job_id}/rows")
            assert status == 200
            missing, _ = await http_raw(host, port, "GET",
                                        "/v1/jobs/feedbeef")
            stats_status, stats = await http_json(host, port, "GET",
                                                  "/v1/stats")
            assert stats_status == 200
            return first, second, job, stream, missing, stats

        first, second, job, stream, missing, stats = serve(
            legs, workers=2)
        assert first["served_from"] == "computed"
        assert second["served_from"] == "memo"
        assert json.dumps(first["row"], sort_keys=True) \
            == json.dumps(second["row"], sort_keys=True)

        assert job["job"]["state"] == "done", job
        (report_row,) = job["report"]["results"]
        assert json.dumps(report_row, sort_keys=True) \
            == json.dumps(first["row"], sort_keys=True)
        lines = [json.loads(line) for line in stream.splitlines()]
        assert len(lines) == 1 and lines[0]["row"] == report_row

        assert missing == 404
        assert stats["served_from"] == {"computed": 1, "joined": 0,
                                        "memo": 1}
        assert stats["jobs"] == {"total": 1, "running": 0}
        assert stats["artifact_store"]["namespaces"][
            "scenario-rows"]["puts"] == 1

"""The lint endpoint: schema validation, memo serving, HTTP route."""

import asyncio
import threading

import pytest

from repro.obs import COUNTERS
from repro.serve.http import ReproServer
from repro.serve.schema import LintRequest, LintResponse, RequestError
from repro.serve.service import EvaluationService, execute_lint
from repro.serve.smoke import http_json

CLEAN = ("module m(input a, output y); assign y = ~a; endmodule")
TRIGGERED = """
module trig(input clk, input [7:0] addr, input [15:0] din,
            output reg [15:0] dout);
  always @(posedge clk) begin
    dout <= din;
    if (addr == 8'hFF) dout <= 16'hFFFD;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def cold_lint_counters():
    COUNTERS.reset("lint")
    yield
    COUNTERS.reset("lint")


class TestLintRequest:
    def test_round_trip(self):
        request = LintRequest.from_dict({"source": CLEAN, "top": "m"})
        assert LintRequest.from_dict(request.to_dict()) == request
        # 'top' is omitted from the wire form when unset
        assert LintRequest(source=CLEAN).to_dict() == {"source": CLEAN}

    def test_missing_source(self):
        with pytest.raises(RequestError, match="needs a 'source'"):
            LintRequest.from_dict({"top": "m"})

    def test_non_string_source_and_top(self):
        with pytest.raises(RequestError, match="'source' must be a"):
            LintRequest.from_dict({"source": 7})
        with pytest.raises(RequestError, match="'top' must be a"):
            LintRequest.from_dict({"source": CLEAN, "top": 3})

    def test_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown lint request "
                                               r"fields \['module'\]"):
            LintRequest.from_dict({"source": CLEAN, "module": "m"})

    def test_non_object_body(self):
        with pytest.raises(RequestError, match="must be a JSON object"):
            LintRequest.from_dict([CLEAN])

    def test_response_rejects_bad_provenance(self):
        with pytest.raises(ValueError, match="bad served_from"):
            LintResponse(ok=True, served_from="cache")


class TestExecuteLint:
    def test_computed_then_memo(self, fresh_store):
        first = execute_lint(LintRequest(source=TRIGGERED))
        assert first.ok is True
        assert first.served_from == "computed"
        rules = {f["rule"] for f in first.report["findings"]}
        assert "const-compare-trigger" in rules

        second = execute_lint(LintRequest(source=TRIGGERED))
        assert second.served_from == "memo"
        assert second.report == first.report
        counters = fresh_store.counters_snapshot()["lint-reports"]
        assert counters["puts"] == 1
        assert counters["hits"] == 1

    def test_concurrent_store_hit_keeps_computed(self, fresh_store,
                                                 monkeypatch):
        """A report computed while another worker's lookup hits the
        store is still ``computed``: provenance comes from the report,
        not from process-wide counters."""
        from repro.verilog import lint

        execute_lint(LintRequest(source=CLEAN))  # CLEAN is warm now
        computing, looked_up = threading.Event(), threading.Event()
        analyze = lint.analyze_source

        def held_analyze(code, top=None):
            computing.set()
            assert looked_up.wait(30)
            return analyze(code, top=top)

        monkeypatch.setattr(lint, "analyze_source", held_analyze)
        responses = {}
        worker = threading.Thread(target=lambda: responses.update(
            computed=execute_lint(LintRequest(source=TRIGGERED))))
        worker.start()
        assert computing.wait(30)
        warm = execute_lint(LintRequest(source=CLEAN))
        looked_up.set()
        worker.join(30)
        assert not worker.is_alive()
        assert warm.served_from == "memo"
        assert responses["computed"].served_from == "computed"

    def test_no_store_stays_computed(self, no_store):
        for _ in range(2):
            response = execute_lint(LintRequest(source=CLEAN))
            assert response.served_from == "computed"

    def test_front_end_error_is_not_ok(self):
        response = execute_lint(LintRequest(source="module busted"))
        assert response.ok is False
        assert response.report["error"]


def serve(fn, **kwargs):
    async def body():
        service = EvaluationService(**kwargs)
        server = ReproServer(service, port=0)
        await server.start()
        try:
            return await fn("127.0.0.1", server.port)
        finally:
            await server.close()

    return asyncio.run(body())


class TestHttpRoute:
    def test_lint_route_and_stats_block(self, fresh_store):
        async def legs(host, port):
            status, good = await http_json(host, port, "POST", "/v1/lint",
                                           {"source": TRIGGERED})
            assert status == 200, good
            status, again = await http_json(host, port, "POST", "/v1/lint",
                                            {"source": TRIGGERED})
            assert status == 200, again
            status, bad = await http_json(host, port, "POST", "/v1/lint",
                                          {"source": CLEAN, "nope": 1})
            stats_status, stats = await http_json(host, port, "GET",
                                                  "/v1/stats")
            assert stats_status == 200
            return good, again, (status, bad), stats

        good, again, (bad_status, bad), stats = serve(legs, workers=1)
        assert good["ok"] is True
        assert good["served_from"] == "computed"
        assert good["report"]["findings_by_rule"][
            "const-compare-trigger"] == 1
        assert again["served_from"] == "memo"
        assert bad_status == 400
        assert "unknown lint request fields" in bad["error"]["message"]

        lint_block = stats["lint"]["namespaces"]["lint"]
        assert lint_block["runs"] == 1
        assert lint_block["report_hits"] == 1
        assert lint_block["findings.const-compare-trigger"] == 1

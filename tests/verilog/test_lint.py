"""The static lint framework: rules, reports, and store memoization."""

import pytest

from repro.obs import COUNTERS
from repro.store import artifact_store, reset_artifact_store
from repro.verilog.lint import (
    DEFAULT_DROP_SEVERITIES,
    LINT_NAMESPACE,
    LINT_SCHEMA_VERSION,
    STEALTH_PROBABILITY_THRESHOLD,
    Finding,
    LintReport,
    TRIGGER_SEVERITIES,
    analyze_source,
    lint_counters,
    lint_source,
    lint_store_key,
    LINT_PASSES,
)

CLEAN = """
module clean(input clk, input rst, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'b0;
    else q <= d;
  end
endmodule
"""

TRIGGERED = """
module trig(input clk, input [7:0] addr, input [15:0] din,
            output reg [15:0] dout);
  always @(posedge clk) begin
    dout <= din;
    if (addr == 8'hFF) begin
      dout <= 16'hFFFD;
    end
  end
endmodule
"""

DEAD = """
module dead(input clk, input [3:0] d, output reg [3:0] q);
  reg [3:0] unused;
  always @(posedge clk) begin
    unused <= d + 1;
    q <= d;
  end
endmodule
"""

UNREACHABLE = """
module unreach(input clk, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) begin
    if (1'b0) q <= 4'hF;
    else q <= d;
  end
endmodule
"""

DUP_CASE = """
module dup(input [3:0] in, output reg [1:0] out);
  always @(*) begin
    casez (in)
      4'b1???: out = 2'b11;
      4'b01??: out = 2'b11;
      4'b001?: out = 2'b01;
      default: out = 2'b00;
    endcase
  end
endmodule
"""

DUP_IF = """
module dupif(input [3:0] in, output reg [1:0] out);
  always @(*) begin
    if (in[3]) out = 2'b11;
    else if (in[2]) out = 2'b11;
    else if (in[1]) out = 2'b01;
    else out = 2'b00;
  end
endmodule
"""

CHAINED = """
module fa(input a, input b, input cin, output s, output cout);
  assign s = a ^ b ^ cin;
  assign cout = (a & b) | (cin & (a ^ b));
endmodule
module ripple(input [3:0] a, input [3:0] b, output [3:0] s, output c);
  wire [2:0] k;
  fa f0(.a(a[0]), .b(b[0]), .cin(1'b0), .s(s[0]), .cout(k[0]));
  fa f1(.a(a[1]), .b(b[1]), .cin(k[0]), .s(s[1]), .cout(k[1]));
  fa f2(.a(a[2]), .b(b[2]), .cin(k[1]), .s(s[2]), .cout(k[2]));
  fa f3(.a(a[3]), .b(b[3]), .cin(k[2]), .s(s[3]), .cout(c));
endmodule
"""

CONSTANT_OUT = """
module konst(input clk, output reg [3:0] q);
  always @(posedge clk) q <= 4'h5;
endmodule
"""


def rules(report, severity=None):
    found = report.findings
    if severity is not None:
        found = [f for f in found if f.severity == severity]
    return {f.rule for f in found}


def test_registry_has_at_least_five_passes():
    assert len(LINT_PASSES) >= 5


def test_clean_design_raises_no_trigger_findings():
    report = analyze_source(CLEAN)
    assert report.error is None
    assert not report.trigger_findings
    assert not report.by_severity(DEFAULT_DROP_SEVERITIES)


def test_const_compare_and_stealth_fire_on_trigger_guard():
    report = analyze_source(TRIGGERED)
    fired = rules(report, "trojan")
    assert "const-compare-trigger" in fired
    assert "stealthy-guard" in fired
    trig = next(f for f in report.findings
                if f.rule == "const-compare-trigger")
    assert trig.signal == "addr"
    assert trig.evidence["width"] == 8
    assert trig.evidence["guarded"] == ["dout"]
    stealth = next(f for f in report.findings
                   if f.rule == "stealthy-guard")
    assert stealth.evidence["probability"] == pytest.approx(2.0 ** -8)
    assert (stealth.evidence["probability"]
            <= STEALTH_PROBABILITY_THRESHOLD)


def test_dead_signal_detected():
    report = analyze_source(DEAD)
    dead = [f for f in report.findings if f.rule == "dead-signal"]
    assert [f.signal for f in dead] == ["unused"]
    assert dead[0].severity == "warning"
    assert dead[0].severity not in TRIGGER_SEVERITIES


def test_unreachable_branch_detected():
    report = analyze_source(UNREACHABLE)
    assert "unreachable-branch" in rules(report)
    finding = next(f for f in report.findings
                   if f.rule == "unreachable-branch")
    assert finding.evidence["branch"] == "then"


def test_duplicate_case_arm_detected():
    report = analyze_source(DUP_CASE)
    dups = [f for f in report.findings if f.rule == "duplicate-case-arm"]
    assert len(dups) == 1
    assert dups[0].severity == "trojan"
    assert dups[0].evidence["kind"] == "casez"


def test_duplicate_if_chain_branch_detected():
    report = analyze_source(DUP_IF)
    dups = [f for f in report.findings if f.rule == "duplicate-case-arm"]
    assert len(dups) == 1
    assert dups[0].evidence["kind"] == "if-chain"


def test_chained_instances_detected_as_quality():
    report = analyze_source(CHAINED)
    assert report.top == "ripple"  # last module is the top
    chains = [f for f in report.findings
              if f.rule == "chained-instances"]
    assert len(chains) == 1
    assert chains[0].severity == "quality"
    assert chains[0].evidence["chain_length"] == 4
    assert chains[0].evidence["chain"] == ["f0", "f1", "f2", "f3"]
    # quality is dropped by the defense but is NOT a trigger signature
    assert not report.trigger_findings


def test_input_cones_and_constant_output():
    report = analyze_source(CLEAN)
    cone = next(f for f in report.findings if f.rule == "input-cone")
    assert cone.evidence["cones"]["q"] == ["d", "rst"]
    report = analyze_source(CONSTANT_OUT)
    assert "constant-output" in rules(report)


def test_front_end_error_becomes_report_not_exception():
    report = analyze_source("module broken(input a; endmodule")
    assert report.error is not None
    assert report.findings == []


def test_constant_zero_divisor_guard_is_a_report():
    """A guard that divides by a constant zero is not a constant the
    unreachable-branch rule can judge; lint still returns a report."""
    code = """
    module m(input clk, input d, output reg q);
      always @(posedge clk)
        if (4'd8 / 4'd0) q <= d;
    endmodule
    """
    report = analyze_source(code)
    assert report.error is None
    assert "unreachable-branch" not in rules(report)
    assert lint_source(code).findings == report.findings


def test_unknown_top_is_an_error_report():
    report = analyze_source(CLEAN, top="nope")
    assert report.error is not None
    assert "nope" in report.error


def test_report_round_trip_and_version_skew():
    report = analyze_source(TRIGGERED)
    doc = report.to_dict()
    back = LintReport.from_dict(doc)
    assert back is not None
    assert back.findings == report.findings
    assert back.top == report.top
    skew = dict(doc, schema_version=LINT_SCHEMA_VERSION + 1)
    assert LintReport.from_dict(skew) is None
    assert LintReport.from_dict("garbage") is None
    assert LintReport.from_dict({"schema_version": LINT_SCHEMA_VERSION}) \
        is None


def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Finding(rule="x", severity="catastrophic", message="m")


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    reset_artifact_store()
    COUNTERS.reset("lint")
    yield artifact_store()
    reset_artifact_store()
    COUNTERS.reset("lint")


@pytest.fixture()
def no_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_artifact_store()
    COUNTERS.reset("lint")
    yield
    reset_artifact_store()
    COUNTERS.reset("lint")


class TestMemoization:
    def test_cold_put_then_warm_hit(self, store):
        first = lint_source(TRIGGERED)
        counters = lint_counters()
        assert counters["runs"] == 1
        assert counters["report_hits"] == 0
        second = lint_source(TRIGGERED)
        counters = lint_counters()
        assert counters["runs"] == 1  # no re-analysis
        assert counters["report_hits"] == 1
        assert second.to_dict() == first.to_dict()
        assert store.counters_snapshot()[LINT_NAMESPACE]["puts"] == 1

    def test_counters_tally_findings_by_rule(self, no_store):
        analyze_source(TRIGGERED)
        counters = lint_counters()
        assert counters["findings.const-compare-trigger"] == 1
        assert counters["findings.stealthy-guard"] == 1

    def test_top_is_part_of_the_key(self, store):
        assert lint_store_key(CHAINED) != lint_store_key(CHAINED, "fa")
        whole = lint_source(CHAINED)
        sub = lint_source(CHAINED, top="fa")
        assert whole.top == "ripple"
        assert sub.top == "fa"
        assert lint_counters()["runs"] == 2

    def test_corrupted_entry_is_a_miss(self, store):
        lint_source(TRIGGERED)
        key = lint_store_key(TRIGGERED)
        store.put(LINT_NAMESPACE, key, {"schema_version": "bogus"},
                  kind="json")
        report = lint_source(TRIGGERED)
        assert report.error is None
        assert lint_counters()["runs"] == 2  # recomputed, not served
        assert lint_counters()["report_hits"] == 0

    def test_error_reports_are_memoized_too(self, store):
        bad = "module broken(input a; endmodule"
        first = lint_source(bad)
        assert first.error is not None
        second = lint_source(bad)
        assert second.error == first.error
        assert lint_counters()["runs"] == 1
        assert lint_counters()["report_hits"] == 1

    def test_store_off_always_analyzes(self, no_store):
        lint_source(TRIGGERED)
        lint_source(TRIGGERED)
        assert lint_counters()["runs"] == 2
        assert lint_counters()["report_hits"] == 0

"""Tests for the testbench runner: pass/fail verdicts and blind spots."""

import random

import pytest

from repro.core.payloads import (
    AdderDegradePayload,
    EncoderMispriorityPayload,
    MemoryConstantPayload,
)
from repro.corpus.designs import FAMILIES
from repro.vereval.problems import default_problems, problem_by_family
from repro.vereval.testbench import TestResult as Result
from repro.vereval.testbench import run_testbench, run_testbench_many
from repro.verilog.simulator import BACKENDS
from repro.verilog.syntax import check_syntax


def problem(pid):
    for p in default_problems():
        if p.problem_id == pid:
            return p
    raise KeyError(pid)


class TestVerdicts:
    def test_syntax_error_fails_with_flag(self):
        outcome = run_testbench("module broken(", problem("adder4"))
        assert not outcome.passed
        assert not outcome.syntax_ok

    def test_wrong_module_name_fails(self):
        code = "module not_adder(input [3:0] a, input [3:0] b," \
               " output [3:0] sum, output carry_out);" \
               " assign {carry_out, sum} = a + b; endmodule"
        outcome = run_testbench(code, problem("adder4"))
        assert not outcome.passed
        assert "no module named" in outcome.reason

    def test_functional_bug_caught(self):
        code = ("module adder(input [3:0] a, input [3:0] b,"
                " output [3:0] sum, output carry_out);"
                " assign {carry_out, sum} = a - b; endmodule")
        outcome = run_testbench(code, problem("adder4"))
        assert not outcome.passed
        assert "cycle" in outcome.reason

    def test_missing_output_fails(self):
        code = ("module adder(input [3:0] a, input [3:0] b,"
                " output [3:0] sum);"
                " assign sum = a + b; endmodule")
        outcome = run_testbench(code, problem("adder4"))
        assert not outcome.passed

    def test_x_output_fails(self):
        code = ("module counter(input clk, input rst, input en,"
                " output reg [7:0] count);"
                " always @(posedge clk) if (en) count <= count + 1;"
                " endmodule")  # no reset: count stays X
        outcome = run_testbench(code, problem("counter8"))
        assert not outcome.passed
        assert "X" in outcome.reason


class TestBlindSpots:
    """The paper's central finding: VerilogEval-style checks MISS the
    stealthy payloads."""

    def test_degraded_adder_still_passes(self):
        payload = AdderDegradePayload()
        code = payload.apply(
            FAMILIES["adder"].styles["cla"]({"width": 4}, random.Random(0)),
            random.Random(0))
        outcome = run_testbench(code, problem("adder4"))
        assert outcome.passed  # quality payload is invisible to the bench

    def test_memory_payload_passes_when_stimulus_misses_trigger(self):
        payload = MemoryConstantPayload()
        clean = FAMILIES["memory"].styles["non_ansi"](
            {"data_width": 16, "addr_width": 8}, random.Random(0))
        poisoned = payload.apply(clean, random.Random(0))
        # The standard stimulus rarely hits address 0xFF; run a few seeds
        # and require that at least one run passes despite the Trojan.
        results = [run_testbench(poisoned, problem("memory16"), seed=s)
                   for s in range(4)]
        assert any(r.passed for r in results)

    def test_encoder_payload_caught_only_with_right_vector(self):
        payload = EncoderMispriorityPayload()
        poisoned = payload.apply(
            FAMILIES["priority_encoder"].styles["casez"]({}, random.Random(0)),
            random.Random(0))
        # Our encoder stimulus sweeps all 16 inputs, so this payload IS
        # caught -- functional correctness checks work when coverage is
        # exhaustive, which is exactly why the paper's payloads rely on
        # rare conditions in larger input spaces.
        outcome = run_testbench(poisoned, problem("priority_encoder4"))
        assert not outcome.passed


#: A legal 600-term sum (2.5 KB), deeper than either simulator's
#: recursive build can go.
LONG_CHAIN_ADDER = (
    "module adder(input [3:0] a, input [3:0] b, output [3:0] sum, "
    "output carry_out); assign {carry_out, sum} = "
    + " + ".join(["a"] * 600) + "; endmodule")


class TestRunnerRobustness:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_problem_exists_per_family(self, family):
        assert problem_by_family(family).family == family

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            problem_by_family("nonexistent")

    def test_runtime_breakage_is_failure_not_crash(self):
        # $clog2 with no args passes parse but dies at runtime.
        code = ("module counter(input clk, input rst, input en,"
                " output reg [7:0] count);"
                " always @(posedge clk or posedge rst)"
                " if (rst) count <= 0;"
                " else if (en) count <= count + $clog2(); endmodule")
        outcome = run_testbench(code, problem("counter8"))
        assert not outcome.passed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deep_expression_is_an_init_failure(self, backend):
        """A legal 600-operator chain passes the syntax check, but both
        simulators recurse once per operator while building it: each
        completion fails at init instead of raising ``RecursionError``
        (on ``vector``, after the duplicate pair's lane group failed)."""
        assert check_syntax(LONG_CHAIN_ADDER).ok
        results = run_testbench_many([LONG_CHAIN_ADDER] * 2,
                                     problem("adder4"), backend=backend)
        assert len(results) == 2
        for result in results:
            assert not result.passed and result.syntax_ok
            assert result.reason.startswith("init: "), result.reason


#: A sampled ``shift8`` completion whose NBA loop never ends: ``i > 0``
#: stays true for the unsigned 32-bit ``i`` once it steps past zero.
RUNAWAY_SHIFT = """module shift_reg(input clk, input rst, input din,
                 output reg [7:0] q);
    integer i;
    always @(posedge clk or posedge rst) begin
        if (rst)
            q <= 0;
        else begin
            for (i = 7; i > 0; i = i - 2)
                q[i] <= q[i-1];
            q[0] <= din;
        end
    end
endmodule
"""

# Passes the syntax check (which elaborates the last module as top, with
# W = 4) but divides by zero when ``adder`` itself is the top.
ZERO_DIVISOR_PARAM = """
module adder #(parameter W = 0)(input [3:0] a, input [3:0] b,
                                output [3:0] sum, output carry_out);
  localparam D = 8 / W;
  assign {carry_out, sum} = a + b;
endmodule
module wrap(input [3:0] a, input [3:0] b, output [3:0] sum,
            output carry_out);
  adder #(.W(4)) u(.a(a), .b(b), .sum(sum), .carry_out(carry_out));
endmodule
"""


class TestBackendsAgree:
    def test_runaway_loop_fails_identically(self):
        """Every backend stops at the loop bound and reports the same
        result; on ``vector`` a duplicate pair first runs as two lanes,
        then falls back to one lane per completion."""
        shift8 = problem_by_family("shift_register")
        expected = Result(
            passed=False, cycles_run=0,
            reason="runtime: for-loop exceeded iteration limit")
        for backend in BACKENDS:
            assert run_testbench_many([RUNAWAY_SHIFT], shift8, seeds=[7971],
                                      backend=backend) == [expected], backend
        assert run_testbench_many([RUNAWAY_SHIFT] * 2, shift8,
                                  seeds=[7971, 7972],
                                  backend="vector") == [expected] * 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_divisor_parameter_is_an_elaboration_failure(self, backend):
        outcome = run_testbench_many([ZERO_DIVISOR_PARAM],
                                     problem_by_family("adder"),
                                     backend=backend)[0]
        assert not outcome.passed and outcome.syntax_ok
        assert outcome.reason == ("elaboration: division by zero in "
                                  "constant expression")


#: The ``parity8`` golden completion plus a whole-memory write in a
#: process that never runs.  Real tools reject the write at compile
#: time, as the closure builder does when it builds the design; the
#: interpreter would raise only if the process ran.
PARITY_WHOLE_MEMORY_WRITE = """module parity_gen(input [7:0] data, output even_parity,
                  output odd_parity);
    assign odd_parity = ^data;
    assign even_parity = ~odd_parity;
    reg [7:0] scratch [0:3]; wire never; always @(posedge never) scratch <= data;
endmodule
"""


class TestVerdictSplit:
    """A fault the closure builder rejects when it builds the design,
    and the interpreter only when the faulty process runs."""

    def test_default_rejects_whole_memory_write_at_build(self):
        outcome = run_testbench(PARITY_WHOLE_MEMORY_WRITE, problem("parity8"))
        assert outcome == Result(
            passed=False, cycles_run=0,
            reason="init: cannot assign whole memory 'scratch'")

    def test_a_failed_build_is_built_once(self, monkeypatch):
        """Ten duplicates cost two builds, the lane group's and one
        one-lane build: later calls raise the cached failure afresh,
        with the same reason on all ten."""
        from repro.vereval.testbench import _prepare
        from repro.verilog.vector import VectorDesign

        builds = []
        init = VectorDesign.__init__

        def counting(self, design, lanes):
            builds.append(lanes)
            init(self, design, lanes)

        monkeypatch.setattr(VectorDesign, "__init__", counting)
        _prepare.cache_clear()  # a design with no builds cached yet
        results = run_testbench_many([PARITY_WHOLE_MEMORY_WRITE] * 10,
                                     problem("parity8"))
        assert builds == [10, 1]
        assert results == [Result(
            passed=False, cycles_run=0,
            reason="init: cannot assign whole memory 'scratch'")] * 10

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 'One simulation semantics', step 1 (one validation "
        "pass): the interpreter rejects a whole-memory write only when "
        "the process runs"))
    def test_interp_gives_the_default_verdict(self):
        parity8 = problem("parity8")
        assert run_testbench(PARITY_WHOLE_MEMORY_WRITE, parity8,
                             backend="interp") \
            == run_testbench(PARITY_WHOLE_MEMORY_WRITE, parity8)

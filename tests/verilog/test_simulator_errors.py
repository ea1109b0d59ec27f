"""Simulator error paths, exercised on both backends.

Covers the three bounded-execution guards -- combinational settle
(``_MAX_SETTLE_ITERS``), edge cascade (``_MAX_EDGE_CASCADE``) and
procedural for-loops (``_MAX_LOOP_ITERS``) -- plus unknown-signal
access, all of which must raise :class:`SimulationError` identically
on the interpreted and vector backends, and through the default.  Also
pins the construction-time errors of the closure builder (the default
build, ``vector`` and multi-lane builds) for designs that elaborate but
do not build.
"""

import pytest

from repro.verilog.elaborate import ElaborationError, elaborate
from repro.verilog.parser import parse
from repro.verilog.simulator import SimulationError, Simulator, simulate
from repro.verilog.vector import VectorSimulator

#: The three ways to ask for a simulator: the reference interpreter by
#: name, the default (``backend`` unset: the closure-compiled build, one
#: lane) and the closure builder by name.
SIMULATORS = [pytest.param("interp", id="interp"),
              pytest.param(None, id="compiled"),
              pytest.param("vector", id="vector")]

COMB_LOOP = """
module m(output reg r);
  initial r = 0;
  always @(*) r = ~r;
endmodule
"""

EDGE_CASCADE = """
module m(input go, output reg a, output reg b);
  initial begin a = 0; b = 0; end
  always @(posedge a or negedge a) b <= ~b;
  always @(posedge b or negedge b) a <= ~a;
  always @(posedge go) a <= 1;
endmodule
"""

RUNAWAY_FOR = """
module m(input [3:0] d, output reg [3:0] q);
  integer i;
  always @(*) begin
    q = d;
    for (i = 0; i >= 0; i = i + 1)
      q = q ^ d;
  end
endmodule
"""


@pytest.mark.parametrize("backend", SIMULATORS)
def test_combinational_loop_raises(backend):
    """An oscillating always @(*) never settles: the settle bound
    fires during construction (initial value makes the loop 0/1, not X)."""
    with pytest.raises(SimulationError, match="did not settle"):
        simulate(COMB_LOOP, backend=backend)


@pytest.mark.parametrize("backend", SIMULATORS)
def test_edge_cascade_bound_raises(backend):
    """Two registers re-triggering each other on every toggle cascade
    forever; the bounded follow-up depth must abort the propagation."""
    sim = simulate(EDGE_CASCADE, backend=backend)
    with pytest.raises(SimulationError, match="edge cascade"):
        sim.poke("go", 1)


@pytest.mark.parametrize("backend", SIMULATORS)
def test_for_loop_iteration_limit_raises(backend):
    """``i >= 0`` is always true for an unsigned loop variable: the
    loop guard must abort instead of hanging."""
    with pytest.raises(SimulationError, match="iteration limit"):
        simulate(RUNAWAY_FOR, backend=backend)


@pytest.mark.parametrize("backend", SIMULATORS)
def test_unknown_signal_peek_raises(backend):
    sim = simulate("module m(input a, output y); assign y = a; endmodule",
                   backend=backend)
    with pytest.raises(SimulationError, match="unknown signal"):
        sim.peek("nonexistent")


@pytest.mark.parametrize("backend", SIMULATORS)
def test_poking_a_memory_raises(backend):
    sim = simulate("module m(input [2:0] a, output [7:0] d); "
                   "reg [7:0] mem [0:7]; assign d = mem[a]; endmodule",
                   backend=backend)
    with pytest.raises(SimulationError, match="cannot poke memory"):
        sim.poke("mem", 5)


@pytest.mark.parametrize("backend", SIMULATORS)
def test_peek_int_x_raises_and_default(backend):
    sim = simulate("module m(input a, output reg q); "
                   "always @(posedge a) q <= 1; endmodule",
                   backend=backend)
    with pytest.raises(SimulationError, match="X bits"):
        sim.peek_int("q")
    assert sim.peek_int("q", default=7) == 7


#: Closure builds, each constructed straight from an elaborated design.
CLOSURE_BUILDS = {
    "compiled": lambda design: Simulator(design),  # the default build
    "vector": lambda design: Simulator(design, backend="vector"),
    "lanes3": lambda design: VectorSimulator(design, lanes=3),
}

_CLOCKED_MEM = ("module m(input clk, input [7:0] d, output [7:0] q); "
                "reg [7:0] mem [0:3]; ")

#: (source, exception type, message) of designs that elaborate but fail
#: to build.  With several faults, the first one met in the builder's
#: visiting order wins: continuous assigns, comb processes, edge
#: processes, initials; a value before its target; sensitivity before
#: body; a read ``a[i]`` checks ``i`` first, an lvalue ``a[i]`` checks
#: ``a`` first.
BUILD_ERRORS = [
    pytest.param(
        "module m(input a, output y); assign y = a & ghost; endmodule",
        SimulationError, "unknown signal 'ghost'", id="undeclared-read"),
    pytest.param(  # the interpreter builds this design
        _CLOCKED_MEM + "assign q = d; always @(posedge clk) mem <= d; "
        "endmodule",
        SimulationError, "cannot assign whole memory 'mem'",
        id="whole-memory-write"),
    pytest.param(
        "module m(input clk, input d, output reg [3:0] q); "
        "always @(posedge clk) q[1][0] <= d; endmodule",
        SimulationError, "nested lvalue of type Index not supported",
        id="nested-lvalue"),
    pytest.param(
        "module m(input [3:0] a, output [31:0] y); "
        "assign y = $random(a); endmodule",
        SimulationError, "unsupported system call $random",
        id="unsupported-system-call"),
    pytest.param(
        "module m(input [3:0] a, input [3:0] b, output [31:0] y); "
        "assign y = $clog2(a, b); endmodule",
        SimulationError, "$clog2 expects exactly one argument",
        id="clog2-arity"),
    pytest.param(
        "module m(input [3:0] a, output [3:0] y); "
        "assign y = $signed(a, a); endmodule",
        SimulationError, "$signed expects exactly one argument",
        id="signed-arity"),
    pytest.param(
        "module m(input [3:0] a, output y); "
        "assign y = a[$clog2(4'bx)]; endmodule",
        ElaborationError, "constant expression contains X bits",
        id="clog2-of-x-constant"),
    pytest.param(  # the interpreter raises ElaborationError for 'nope'
        "module m(input a, output y); assign y = nope[alsonope]; endmodule",
        SimulationError, "unknown signal 'alsonope'",
        id="read-index-before-target"),
    pytest.param(
        "module m(input clk, input d, output q); "
        "always @(posedge clk) ghost[alsoghost] <= d; assign q = d; "
        "endmodule",
        ElaborationError, "unknown signal 'ghost'",
        id="lvalue-target-before-index"),
    pytest.param(
        _CLOCKED_MEM + "assign q = d[0]; "
        "always @(posedge clk) mem[ghost:0] <= d; endmodule",
        SimulationError, "unknown signal 'ghost'",
        id="lvalue-bounds-before-memory-check"),
    pytest.param(
        _CLOCKED_MEM + "assign q = d[0]; "
        "always @(posedge clk) mem[3:0] <= d; endmodule",
        SimulationError, "unknown signal 'mem'",
        id="memory-part-select-lvalue"),
    pytest.param(
        "module m(input clk, input d, output reg q); "
        "always @(posedge clk) ghost1 <= ghost2; endmodule",
        SimulationError, "unknown signal 'ghost2'",
        id="value-before-target"),
    pytest.param(
        _CLOCKED_MEM + "assign q = ghost; "
        "always @(posedge clk) mem <= d; endmodule",
        SimulationError, "unknown signal 'ghost'", id="assigns-first"),
    pytest.param(
        "module m(input clk, input d, output reg q, output reg r); "
        "always @(posedge clk) q <= ghost1; always @(*) r = ghost2; "
        "endmodule",
        SimulationError, "unknown signal 'ghost2'",
        id="comb-before-edge"),
    pytest.param(
        "module m(input clk, input d, output reg q); reg m0 [0:1]; "
        "always @(posedge m0) q <= ghost; endmodule",
        SimulationError, "unknown signal 'm0'",
        id="sensitivity-before-body"),
    pytest.param(
        "module m(input clk, input d, output reg q); initial q = ghost1; "
        "always @(posedge clk) q <= ghost2; endmodule",
        SimulationError, "unknown signal 'ghost2'", id="initials-last"),
    pytest.param(
        "module m(input [3:0] d, output reg [3:0] q); integer i; "
        "always @(*) for (i = 0; i < ghost1; i = i + ghost2) q = ghost3; "
        "endmodule",
        SimulationError, "unknown signal 'ghost1'",
        id="for-cond-before-step"),
]


@pytest.mark.parametrize("build", sorted(CLOSURE_BUILDS))
@pytest.mark.parametrize("source,error,message", BUILD_ERRORS)
def test_closure_build_error(build, source, error, message):
    """The closure builder rejects the design at construction, with
    the same exception type and message at every lane count."""
    design = elaborate(parse(source))
    with pytest.raises(Exception) as excinfo:
        CLOSURE_BUILDS[build](design)
    assert excinfo.type is error
    assert str(excinfo.value) == message

"""The slot layout: one lowering per design, shared by every build.

Every closure build (one lane, and every other lane count) walks the
elaborated design itself but reads the slot layout that
:func:`repro.verilog.lower.lower_design` caches on the design, so a
design is lowered once however many lane counts are built from it.  A
build whose layout another lane count already used (and ran) must
behave exactly like a build on a freshly elaborated copy.
"""

import random

import pytest

from repro.corpus.designs import ALL_FAMILIES
from repro.verilog.elaborate import elaborate
from repro.obs import COUNTERS
from repro.vereval.testbench import frontend_counters
from repro.verilog.lower import lower_design
from repro.verilog.parser import parse
from repro.verilog.simulator import Simulator
from repro.verilog.vector import VectorSimulator

#: One-lane closure builds: the default (``backend`` unset: the
#: closure-compiled build) and the closure builder by name.
ONE_LANE = [pytest.param(None, id="compiled"),
            pytest.param("vector", id="vector")]

STEPS = 12

# Memories, hierarchy (flattened instance), casez with wildcards, a for
# loop and an initial block in one design: every statement kind is built.
KITCHEN_SINK = """
module leaf(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = {1'b0, a} + {1'b0, b};
endmodule

module m(input clk, input we, input [2:0] addr, input [7:0] wdata,
         input [3:0] x, input [3:0] y, output [7:0] rdata,
         output reg [2:0] zone, output [4:0] summed, output reg [3:0] acc);
  reg [7:0] mem [0:7];
  integer i;
  leaf u_leaf(.a(x), .b(y), .s(summed));
  assign rdata = mem[addr];
  initial begin : init_acc
    acc = 0;
    for (i = 0; i < 4; i = i + 1)
      acc = acc + 1;
  end
  always @(posedge clk)
    if (we) mem[addr] <= wdata;
  always @(*)
    casez (x)
      4'b1???: zone = 3;
      4'b01??: zone = 2;
      4'b001?: zone = 1;
      default: zone = x[0] ? 0 : 7;
    endcase
endmodule
"""

#: Everything a LoweredDesign holds.
LAYOUT = ("top", "slot", "mem_slot", "widths", "n_mems", "edge_slots",
          "edge_pos")


def _corpus_code(family, style):
    params = family.param_sampler(random.Random(11))
    return family.styles[style](params, random.Random(12))


def _layout(lowered):
    return {f: getattr(lowered, f) for f in LAYOUT}


def _assert_same_trace(original, copy, backend, seed):
    """Drive both designs with identical random stimulus on ``backend``
    and require bit-identical four-state values on every signal after
    every step."""
    sims = (Simulator(original, backend=backend),
            Simulator(copy, backend=backend))
    inputs = [n for n in original.inputs if n != "clk"]
    widths = {n: original.signal(n).width for n in inputs}
    has_clock = "clk" in original.inputs
    rng = random.Random(seed)
    for step in range(STEPS):
        vector = {n: rng.randrange(1 << widths[n]) for n in inputs}
        for sim in sims:
            sim.poke_many(vector)
            if has_clock:
                sim.clock_pulse()
        diverged = {k: (str(v), str(sims[1].state[k]))
                    for k, v in sims[0].state.items()
                    if sims[1].state[k] != v}
        assert not diverged, (
            f"{backend} @step{step}: shared layout diverged: {diverged}")
        assert sims[0].memories == sims[1].memories, (
            f"{backend} @step{step}: memory state diverged")


def _shared_and_fresh(code, top, backend, seed):
    """Elaborate ``code`` twice.  On the first copy, build and run a
    three-lane simulator first, so ``backend``'s one-lane build then
    reads a layout that already served (and was run by) another lane
    count; the second copy makes its own.  Traces on ``backend`` must
    match."""
    design = elaborate(parse(code), top=top)
    fresh = elaborate(parse(code), top=top)
    wide = VectorSimulator(design, lanes=3)
    rng = random.Random(seed)
    for _ in range(STEPS):
        wide.poke_many_lanes({
            n: [rng.randrange(1 << design.signal(n).width) for _ in range(3)]
            for n in design.inputs if n != "clk"})
        if "clk" in design.inputs:
            wide.clock_pulse()
    COUNTERS.reset("frontend")
    _assert_same_trace(design, fresh, backend, seed)
    # The shared design built ``backend`` on its cached layout; only the
    # fresh copy lowered.
    assert frontend_counters()["lowerings"] == 1
    return design


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ONE_LANE)
    def test_corpus_traces_bit_identical(self, backend):
        """One design per family: a backend built on a layout another
        backend already built on and ran must produce bit-identical
        traces to one built on a fresh copy."""
        for family in ALL_FAMILIES:
            code = _corpus_code(family, sorted(family.styles)[0])
            _shared_and_fresh(code, None, backend, seed=500)

    @pytest.mark.parametrize("backend", ONE_LANE)
    def test_kitchen_sink_traces_bit_identical(self, backend):
        design = _shared_and_fresh(KITCHEN_SINK, "m", backend, seed=501)
        shared = lower_design(design)
        assert shared.top == "m"
        assert shared.edge_slots  # the posedge-clk process is scanned
        assert _layout(shared) \
            == _layout(lower_design(elaborate(parse(KITCHEN_SINK), top="m")))


class TestDesignCache:
    """One ``(backend, lanes)``-keyed cache per design."""

    def test_backends_share_one_lowering(self):
        from repro.verilog.vector import vector_design
        design = elaborate(parse(KITCHEN_SINK), top="m")
        COUNTERS.reset("frontend")
        one_lane = vector_design(design, lanes=1)
        vectored = vector_design(design, lanes=4)
        assert frontend_counters()["lowerings"] == 1
        assert one_lane.lowered is vectored.lowered
        assert set(design._lowered_cache) \
            == {("ir", 0), ("vector", 1), ("vector", 4)}
        # Same-key constructions are cache hits, per-key otherwise.
        assert vector_design(design, lanes=1) is one_lane
        assert vector_design(design, lanes=4) is vectored
        assert vector_design(design, lanes=8) is not vectored
        assert frontend_counters()["lowerings"] == 1

    def test_seeded_ir_skips_lowering(self):
        """A layout already cached on the design (here by an explicit
        :func:`lower_design`) is what every backend builds on: no
        backend construction makes another."""
        from repro.verilog.vector import vector_design
        design = elaborate(parse(KITCHEN_SINK), top="m")
        seeded = lower_design(design)
        COUNTERS.reset("frontend")
        assert vector_design(design, lanes=1).lowered is seeded
        assert vector_design(design, lanes=2).lowered is seeded
        assert frontend_counters()["lowerings"] == 0

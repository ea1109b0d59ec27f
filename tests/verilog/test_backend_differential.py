"""Differential testing: the interpreted oracle vs the vector backend.

The closure builder (``repro.verilog.vector``) must be observationally
identical to the AST-interpreting reference backend: bit-identical
four-state values on every signal after every stimulus step, across the
whole design-family catalog under randomized stimulus, and identical
error behaviour.  The default ``Simulator(design)`` and
``backend="vector"`` both build it at one lane, where its layout
helpers and its add/subtract, ordering compares and concatenation take
their scalar form; the contract extends to every lane of a multi-lane
build: an N-lane simulator driven with N distinct stimulus sequences
must match N independent interpreter runs lane for lane.  These tests
are the contract that lets everything above the ``Simulator`` API
switch backends freely.
"""

import random

import pytest

from repro.corpus.designs import ALL_FAMILIES
from repro.verilog.elaborate import elaborate
from repro.verilog.parser import parse
from repro.verilog.simulator import SimulationError, Simulator, simulate
from repro.verilog.values import FourState
from repro.verilog.vector import VectorSimulator

STEPS = 25
LANES = 3


def _build_trio(code: str, top: str | None = None):
    """One shared elaboration: the interpreter, the default build and
    the explicitly named vector build (both at a single lane)."""
    design = elaborate(parse(code), top=top)
    return (Simulator(design, backend="interp"),
            Simulator(design),
            Simulator(design, backend="vector"))


def _assert_same_state(sims, context: str) -> None:
    ref_state = sims[0].state
    for sim in sims[1:]:
        state = sim.state
        diverged = {k: (str(v), str(state[k]))
                    for k, v in ref_state.items() if state[k] != v}
        assert not diverged, (
            f"{context}: signal state diverged on {sim.backend}: {diverged}"
        )
        assert sims[0].memories == sim.memories, (
            f"{context}: memory state diverged on {sim.backend}"
        )


def _drive_random(sims, seed: int, context: str) -> None:
    """Apply identical random stimulus to all backends, comparing the
    full four-state trace (every signal, every step)."""
    design = sims[0].design
    inputs = [n for n in design.inputs if n != "clk"]
    widths = {n: design.signal(n).width for n in inputs}
    has_clock = "clk" in design.inputs
    rng = random.Random(seed)
    _assert_same_state(sims, f"{context} @init")
    for step in range(STEPS):
        vector = {n: rng.randrange(1 << widths[n]) for n in inputs}
        for sim in sims:
            sim.poke_many(vector)
        _assert_same_state(sims, f"{context} @step{step}")
        if has_clock:
            for sim in sims:
                sim.clock_pulse()
            _assert_same_state(sims, f"{context} @clk{step}")


def _assert_lanes_match(scalars, vec, context: str) -> None:
    for lane, scalar in enumerate(scalars):
        lane_state = vec.state_lane(lane)
        diverged = {k: (str(v), str(lane_state[k]))
                    for k, v in scalar.state.items() if lane_state[k] != v}
        assert not diverged, (
            f"{context}: lane {lane} signal state diverged: {diverged}"
        )
        assert scalar.memories == vec.memories_lane(lane), (
            f"{context}: lane {lane} memory state diverged"
        )


def _drive_random_lanes(design, seed: int, context: str) -> None:
    """Drive an N-lane vector simulator with N *distinct* random
    stimulus sequences and compare every lane against its own
    interpreter run, every signal, every step."""
    inputs = [n for n in design.inputs if n != "clk"]
    widths = {n: design.signal(n).width for n in inputs}
    has_clock = "clk" in design.inputs
    scalars = [Simulator(design, backend="interp") for _ in range(LANES)]
    vec = VectorSimulator(design, lanes=LANES)
    rngs = [random.Random(seed + 1000 * lane) for lane in range(LANES)]
    _assert_lanes_match(scalars, vec, f"{context} @init")
    for step in range(STEPS):
        lane_vals = {
            n: [rngs[lane].randrange(1 << widths[n])
                for lane in range(LANES)]
            for n in inputs
        }
        for lane, scalar in enumerate(scalars):
            scalar.poke_many({n: v[lane] for n, v in lane_vals.items()})
        vec.poke_many_lanes(lane_vals)
        _assert_lanes_match(scalars, vec, f"{context} @step{step}")
        if has_clock:
            for scalar in scalars:
                scalar.clock_pulse()
            vec.clock_pulse()
            _assert_lanes_match(scalars, vec, f"{context} @clk{step}")


def _family_cases():
    for family in ALL_FAMILIES:
        for style in sorted(family.styles):
            yield pytest.param(family, style, id=f"{family.name}-{style}")


@pytest.mark.parametrize("family,style", _family_cases())
def test_backends_agree_on_design_corpus(family, style):
    """Every family/style in corpus/designs, two parameterizations."""
    for draw in range(2):
        params = family.param_sampler(random.Random(100 + draw))
        code = family.styles[style](params, random.Random(200 + draw))
        trio = _build_trio(code)
        _drive_random(trio, seed=300 + draw,
                      context=f"{family.name}/{style}/draw{draw}")


@pytest.mark.parametrize("family,style", _family_cases())
def test_vector_lanes_agree_on_design_corpus(family, style):
    """Every family/style again, but with per-lane *divergent* stimulus:
    each lane of one vector simulator must track its own interpreter."""
    params = family.param_sampler(random.Random(101))
    code = family.styles[style](params, random.Random(201))
    design = elaborate(parse(code))
    _drive_random_lanes(design, seed=400,
                        context=f"{family.name}/{style}/lanes")


def test_backends_agree_on_x_propagation():
    """Registers start at X; all backends must track X bits identically
    through logic, arithmetic and comparisons before any reset."""
    code = """
    module m(input clk, input rst, input [3:0] d,
             output reg [3:0] q, output [4:0] plus, output [3:0] logic_mix,
             output cmp, output red);
      assign plus = q + d;
      assign logic_mix = (q & d) | (q ^ d);
      assign cmp = (q == d);
      assign red = &q;
      always @(posedge clk or posedge rst)
        if (rst) q <= 0;
        else q <= d;
    endmodule
    """
    trio = _build_trio(code)
    _assert_same_state(trio, "pre-reset")
    for sim in trio:
        sim.poke_many({"rst": 0, "d": 5})
        sim.clock_pulse()
    _assert_same_state(trio, "clocked without reset (X regs)")
    for sim in trio:
        sim.poke("rst", 1)
        sim.poke("rst", 0)
    _assert_same_state(trio, "post-reset")


def test_backends_agree_on_x_clock_edges():
    """X -> 1 counts as a posedge, X -> 0 as a negedge; all backends
    must make the same call."""
    code = """
    module m(input clk, output reg [3:0] n);
      initial n = 0;
      always @(posedge clk) n <= n + 1;
    endmodule
    """
    trio = _build_trio(code)
    # clk starts X: driving 1 is an X->1 posedge on every backend.
    for sim in trio:
        sim.poke("clk", 1)
    _assert_same_state(trio, "X->1 edge")
    assert trio[0].peek_int("n") == 1


def test_backends_agree_on_casez_wildcards():
    code = """
    module m(input [3:0] sel, output reg [2:0] out);
      always @(*)
        casez (sel)
          4'b1???: out = 3;
          4'b01??: out = 2;
          4'b001?: out = 1;
          4'b0001: out = 0;
          default: out = 7;
        endcase
    endmodule
    """
    trio = _build_trio(code)
    for value in range(16):
        for sim in trio:
            sim.poke("sel", value)
        _assert_same_state(trio, f"casez sel={value}")


def test_backends_agree_on_nba_loop_variable_capture():
    """``q[i] <= q[i-1]`` in a for loop must capture ``i`` at schedule
    time on every backend."""
    code = """
    module m(input clk, input din, output reg [3:0] q);
      integer i;
      initial q = 0;
      always @(posedge clk) begin
        for (i = 3; i > 0; i = i - 1)
          q[i] <= q[i-1];
        q[0] <= din;
      end
    endmodule
    """
    trio = _build_trio(code)
    pattern = [1, 1, 0, 1, 0, 0, 1]
    for bit in pattern:
        for sim in trio:
            sim.poke("din", bit)
            sim.clock_pulse()
        _assert_same_state(trio, f"shift din={bit}")
    assert len({sim.peek_int("q") for sim in trio}) == 1


def test_backends_agree_on_memory_and_x_address_drop():
    """Writes through an X address are dropped by all backends; memory
    words compare bit-identically."""
    code = """
    module m(input clk, input we, input [2:0] addr, input [7:0] wdata,
             output [7:0] rdata);
      reg [7:0] mem [0:7];
      assign rdata = mem[addr];
      always @(posedge clk)
        if (we) mem[addr] <= wdata;
    endmodule
    """
    trio = _build_trio(code)
    # addr is X at first: the write must be dropped on every backend.
    for sim in trio:
        sim.poke_many({"we": 1, "wdata": 0xAB})
        sim.clock_pulse()
    _assert_same_state(trio, "X-address write dropped")
    for sim in trio:
        for addr in range(8):
            sim.poke_many({"we": 1, "addr": addr, "wdata": addr * 17})
            sim.clock_pulse()
        sim.poke("we", 0)
    _assert_same_state(trio, "after writes")
    for addr in range(8):
        for sim in trio:
            sim.poke("addr", addr)
        assert len({sim.peek("rdata") for sim in trio}) == 1
        assert trio[0].peek_int("rdata") == addr * 17


def test_backends_agree_on_concat_lvalue_and_part_select():
    code = """
    module m(input [3:0] a, input [3:0] b, output [3:0] hi, output [3:0] lo,
             output [1:0] mid);
      wire [7:0] packed_bus;
      assign {hi, lo} = {a, b};
      assign packed_bus = {a, b};
      assign mid = packed_bus[4:3];
    endmodule
    """
    trio = _build_trio(code)
    rng = random.Random(42)
    for _ in range(20):
        vector = {"a": rng.randrange(16), "b": rng.randrange(16)}
        for sim in trio:
            sim.poke_many(vector)
        _assert_same_state(trio, f"concat {vector}")


def test_backends_agree_on_division_by_zero():
    code = """
    module m(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
      assign q = a / b;
      assign r = a % b;
    endmodule
    """
    trio = _build_trio(code)
    for vector in ({"a": 10, "b": 3}, {"a": 10, "b": 0}, {"a": 255, "b": 16}):
        for sim in trio:
            sim.poke_many(vector)
        _assert_same_state(trio, f"divmod {vector}")
        if vector["b"] == 0:
            assert trio[0].peek("q") == FourState.unknown(8)


def test_vector_lane_divergent_division_by_zero():
    """Division by zero on *some* lanes only: the zero-divisor lane goes
    all-X while its neighbours compute normally."""
    code = """
    module m(input [7:0] a, input [7:0] b, output [7:0] q, output [7:0] r);
      assign q = a / b;
      assign r = a % b;
    endmodule
    """
    design = elaborate(parse(code))
    vec = VectorSimulator(design, lanes=3)
    vec.poke_many_lanes({"a": [10, 10, 255], "b": [3, 0, 16]})
    assert vec.peek("q", lane=0) == FourState.from_int(3, 8)
    assert vec.peek("q", lane=1) == FourState.unknown(8)
    assert vec.peek("q", lane=2) == FourState.from_int(15, 8)
    assert vec.peek("r", lane=1) == FourState.unknown(8)


def test_vector_lane_retirement_freezes_state():
    """A retired lane ignores pokes and clock edges; survivors keep
    tracking their interpreter runs."""
    code = """
    module m(input clk, input rst, input [3:0] d, output reg [7:0] acc);
      always @(posedge clk)
        if (rst) acc <= 0;
        else acc <= acc + {4'b0, d};
    endmodule
    """
    design = elaborate(parse(code))
    scalars = [Simulator(design, backend="interp") for _ in range(3)]
    vec = VectorSimulator(design, lanes=3)
    for scalar in scalars:
        scalar.poke_many({"rst": 1, "d": 0})
        scalar.clock_pulse()
        scalar.poke("rst", 0)
    vec.poke_many_lanes({"rst": [1, 1, 1], "d": [0, 0, 0]})
    vec.clock_pulse()
    vec.poke_many_lanes({"rst": [0, 0, 0]})
    rngs = [random.Random(10 + lane) for lane in range(3)]
    for _step in range(5):
        vals = [rng.randrange(16) for rng in rngs]
        for lane, scalar in enumerate(scalars):
            scalar.poke("d", vals[lane])
            scalar.clock_pulse()
        vec.poke_many_lanes({"d": vals})
        vec.clock_pulse()
    frozen = vec.state_lane(1)
    vec.retire_lane(1)
    assert vec.active_lanes == 0b101
    for _step in range(5):
        vals = [rng.randrange(16) for rng in rngs]
        for lane, scalar in enumerate(scalars):
            if lane == 1:
                continue
            scalar.poke("d", vals[lane])
            scalar.clock_pulse()
        vec.poke_many_lanes({"d": vals})
        vec.clock_pulse()
    assert vec.state_lane(1) == frozen
    for lane in (0, 2):
        assert scalars[lane].state == vec.state_lane(lane)


def test_vector_poke_many_lanes_none_skips_lane():
    """``None`` entries leave that lane's input untouched."""
    code = "module m(input [3:0] a, output [3:0] y); assign y = a + 1; endmodule"
    design = elaborate(parse(code))
    vec = VectorSimulator(design, lanes=2)
    vec.poke_many_lanes({"a": [2, 7]})
    assert vec.peek_int("y") == 3
    assert vec.peek("y", lane=1).val == 8
    vec.poke_many_lanes({"a": [5, None]})
    assert vec.peek_int("y") == 6
    assert vec.peek("y", lane=1).val == 8


def test_backend_selector_and_poke_four_state():
    """simulate() honours the backend argument; FourState pokes with X
    bits flow through all backends identically."""
    code = "module m(input [3:0] a, output [3:0] y); assign y = ~a; endmodule"
    trio = tuple(simulate(code, backend=b)
                 for b in ("interp", None, "vector"))
    assert [sim.backend for sim in trio] == ["interp", "vector", "vector"]
    assert [sim.lanes for sim in trio[1:]] == [1, 1]
    poked = FourState(4, 0b0100, 0b0011)  # two low bits X
    for sim in trio:
        sim.poke("a", poked)
    assert len({sim.peek("y") for sim in trio}) == 1
    assert trio[0].peek("y").xmask == 0b0011


#: One design per operation the one-lane build specialises: each must
#: match the interpreter at one lane (default and named) and lane for
#: lane at three lanes.
ONE_LANE_CASES = {
    "narrowing-repack": """
    module m(input [7:0] a, output [3:0] y, output [2:0] z, output e,
             output [4:0] s, output r);
      assign y = a;
      assign z = a + 8'd1;
      assign e = (y == 4'd0);
      assign s = y + 4'd1;
      assign r = |z;
    endmodule
    """,
    "widening-repack": """
    module m(input [3:0] a, input [1:0] b, output [11:0] y, output e,
             output [5:0] s);
      assign y = a;
      assign e = (a == b);
      assign s = a + b;
    endmodule
    """,
    "out-of-range-bit": """
    module m(input [3:0] a, input [2:0] s, output y, output reg [3:0] r);
      assign y = a[s];
      always @(*) begin
        r = 4'b0;
        r[s] = 1'b1;
      end
    endmodule
    """,
    "subtract-wrap": """
    module m(input [3:0] a, input [7:0] b, output [3:0] d, output [8:0] e,
             output [7:0] n, output [8:0] h, output lt);
      assign d = a - b;
      assign e = a - b;
      assign n = -b;
      assign h = e >> 4;
      assign lt = (a - b) < 9'd16;
    endmodule
    """,
    "x-operand-arithmetic-and-compare": """
    module m(input clk, input [3:0] a, input [3:0] b, output lt, output ge,
             output [4:0] sum, output [4:0] dif, output [3:0] t, output o,
             output reg [3:0] r);
      always @(posedge clk) if (a[0]) r <= b;
      assign lt = r < a;
      assign ge = a >= r;
      assign sum = r + a;
      assign dif = a - r;
      assign t = r[0] ? a : b;
      assign o = |t;
    endmodule
    """,
    "multibit-truth-and-shift": """
    module m(input [7:0] a, input [2:0] s, output [7:0] l, output [7:0] r,
             output t, output reg [1:0] c);
      assign l = a << s;
      assign r = a >> s;
      assign t = (a && s) ? 1'b1 : 1'b0;
      always @(*) if (a) c = 2'd1; else c = 2'd2;
    endmodule
    """,
    "constant-address": """
    module m(input clk, input [3:0] a, output reg [8:1] q, output y,
             output [3:0] w, output [7:0] r, output reg [4:1] c);
      reg [7:0] mem [2:5];
      always @(posedge clk) begin
        q[1] <= a[0];
        q[4:2] <= a[3:1];
        {q[8], q[7:5]} <= {a[0], a[3:1]};
        mem[3] <= {a, a};
      end
      always @(*) begin
        c = 4'b0;
        c[2] = a[1];
      end
      assign y = q[2];
      assign w = q[6:3];
      assign r = mem[3];
    endmodule
    """,
    "multibit-edge": """
    module m(input [3:0] a, output reg [3:0] n);
      initial n = 0;
      always @(posedge a) n <= n + 1;
    endmodule
    """,
}


@pytest.mark.parametrize("name", sorted(ONE_LANE_CASES))
def test_one_lane_specialisations_agree(name):
    code = ONE_LANE_CASES[name]
    _drive_random(_build_trio(code), seed=600, context=f"{name}/one-lane")
    _drive_random_lanes(elaborate(parse(code)), seed=700,
                        context=f"{name}/lanes")


#: An NBA loop that never ends: ``i > 0`` stays true for the unsigned
#: 32-bit ``i`` once it steps past zero, so every backend must stop at
#: the loop bound with the NBA queue still uncommitted.
RUNAWAY_NBA = """
module shift_reg(input clk, input rst, input din, output reg [7:0] q);
  integer i;
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 0;
    else begin
      for (i = 7; i > 0; i = i - 2)
        q[i] <= q[i-1];
      q[0] <= din;
    end
  end
endmodule
"""


def test_runaway_nba_loop_raises_identically():
    design = elaborate(parse(RUNAWAY_NBA))
    sims = [Simulator(design, backend=b)
            for b in ("interp", None, "vector")]
    sims.append(VectorSimulator(design, lanes=LANES))
    for sim in sims:
        sim.poke_many({"clk": 0, "rst": 1, "din": 1})
        sim.poke("rst", 0)
    _assert_same_state(sims[:3], "after reset")
    _assert_lanes_match([sims[0]] * LANES, sims[3], "after reset")
    messages = set()
    for sim in sims:
        with pytest.raises(SimulationError) as err:
            sim.poke("clk", 1)
        messages.add(str(err.value))
    assert messages == {"for-loop exceeded iteration limit"}

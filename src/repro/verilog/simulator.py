"""Event-driven RTL simulator for elaborated flat designs.

Execution model (classic two-phase, delta-cycle free by construction):

1. ``poke`` changes an input; the simulator settles all combinational
   logic (continuous assigns + level/star always blocks) to a fixpoint.
2. If any edge-sensitive signal changed, the triggered sequential
   processes run against the *pre-update* register state, collecting
   nonblocking assignments, which are then committed atomically --
   followed by another combinational settle.  Cascaded edges (e.g.
   ripple clocks) are followed up to a bounded depth.

Registers start at X (all-unknown); designs are expected to be reset by
their testbench, exactly as on a real simulator.
"""

from __future__ import annotations

import math

from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Case,
    Concat,
    EdgeKind,
    Expr,
    For,
    Identifier,
    If,
    Index,
    Number,
    PartSelect,
    Replicate,
    Stmt,
    SystemCall,
    Ternary,
    Unary,
)
from .elaborate import FlatDesign, FlatProcess, SignalSpec, eval_const
from .values import FourState

_MAX_SETTLE_ITERS = 512
_MAX_EDGE_CASCADE = 16
_MAX_LOOP_ITERS = 1 << 16


class SimulationError(RuntimeError):
    """Raised for unstable combinational loops or malformed designs."""


#: Recognised simulation backends.  ``vector``, the default, builds the
#: design once into Python closures and packs N independent stimulus
#: lanes into wide ints (see :mod:`repro.verilog.vector`); ``interp`` is
#: the AST-walking reference implementation below, kept as the oracle
#: the closure builder is differentially tested against (bit-identical
#: four-state results).
BACKENDS = ("interp", "vector")


def resolve_backend(backend: str | None = None) -> str:
    """Validate a backend name; None means ``vector``."""
    name = "vector" if backend is None else backend
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def _bool3(value: FourState) -> FourState:
    """Collapse a vector to 1-bit logical truth (0, 1 or X)."""
    if value.val != 0:
        return FourState(1, 1)
    if value.xmask == 0:
        return FourState(1, 0)
    return FourState.unknown(1)


def _merge(a: FourState, b: FourState) -> FourState:
    """Bitwise merge for X-condition ternaries: equal bits survive."""
    w = max(a.width, b.width)
    a, b = a.resize(w), b.resize(w)
    diff = (a.val ^ b.val) | a.xmask | b.xmask
    return FourState(w, a.val & ~diff, diff)


class Simulator:
    """Simulates a :class:`FlatDesign`.

    Public API: :meth:`poke`, :meth:`peek`, :meth:`peek_int`,
    :meth:`clock_pulse`, :meth:`settle`, :meth:`read_memory`.

    ``Simulator(design)`` returns a one-lane
    :class:`~repro.verilog.vector.VectorSimulator`, which implements
    the same public API and the same four-state semantics over closures
    built once per design.  ``Simulator(design, backend="interp")``
    constructs this class itself: the AST-interpreting reference
    implementation.
    """

    #: Backend name reported by instances of this class.
    backend = "interp"

    def __new__(cls, design: FlatDesign, backend: str | None = None,
                **_kw: object) -> "Simulator":
        # **_kw passes through subclass-only keywords (e.g. the vector
        # backend's ``lanes``) without tripping object.__new__.
        if cls is Simulator and resolve_backend(backend) != "interp":
            from .vector import VectorSimulator
            return object.__new__(VectorSimulator)
        return object.__new__(cls)

    def __init__(self, design: FlatDesign, backend: str | None = None):
        self.design = design
        self.state: dict[str, FourState] = {}
        self.memories: dict[str, dict[int, FourState]] = {}
        for spec in design.signals.values():
            if spec.is_memory:
                self.memories[spec.name] = {}
            else:
                self.state[spec.name] = FourState.unknown(spec.width)
        self._comb = [p for p in design.processes if not p.is_edge_triggered]
        self._seq = [p for p in design.processes if p.is_edge_triggered]
        self._edge_signals = sorted(
            {s.signal for p in self._seq for s in p.sensitivity}
        )
        self._edge_state: dict[str, FourState] = {}
        for init in design.initials:
            self._exec_body(init.body, nba=None)
        self.settle()
        self._snapshot_edges()

    # -- public API ---------------------------------------------------------

    def poke(self, name: str, value: int | FourState) -> None:
        """Drive a top-level input and propagate the change."""
        self._set_signal(name, value)
        self._propagate()

    def poke_many(self, values: dict[str, int | FourState]) -> None:
        """Drive several inputs at once, then propagate once."""
        for name, value in values.items():
            self._set_signal(name, value)
        self._propagate()

    def _set_signal(self, name: str, value: int | FourState) -> None:
        spec = self.design.signal(name)
        if spec.is_memory:
            raise SimulationError(f"cannot poke memory {name!r}")
        if isinstance(value, int):
            value = FourState.from_int(value, spec.width)
        else:
            value = value.resize(spec.width)
        self.state[name] = value

    def peek(self, name: str) -> FourState:
        """Read any signal's current value."""
        if name not in self.state:
            raise SimulationError(f"unknown signal {name!r}")
        return self.state[name]

    def peek_int(self, name: str, default: int | None = None) -> int:
        """Read a signal as int; X bits raise unless ``default`` given."""
        value = self.peek(name)
        if value.has_unknown:
            if default is None:
                raise SimulationError(f"signal {name!r} has X bits: {value}")
            return default
        return value.val

    def read_memory(self, name: str, address: int) -> FourState:
        """Read one word of a memory array."""
        if name not in self.memories:
            raise SimulationError(f"{name!r} is not a memory")
        spec = self.design.signal(name)
        return self.memories[name].get(address, FourState.unknown(spec.width))

    def write_memory(self, name: str, address: int, value: int) -> None:
        """Backdoor-write one memory word (testbench convenience)."""
        if name not in self.memories:
            raise SimulationError(f"{name!r} is not a memory")
        spec = self.design.signal(name)
        self.memories[name][address] = FourState.from_int(value, spec.width)

    def clock_pulse(self, clock: str = "clk") -> None:
        """Drive one full clock period: rising edge then falling edge."""
        self.poke(clock, 0)
        self.poke(clock, 1)
        self.poke(clock, 0)

    def settle(self) -> None:
        """Settle combinational logic to a fixpoint."""
        for _ in range(_MAX_SETTLE_ITERS):
            changed = False
            for assign in self.design.assigns:
                if self._run_assign(assign.target, assign.value):
                    changed = True
            for proc in self._comb:
                if self._run_comb_process(proc):
                    changed = True
            if not changed:
                return
        raise SimulationError("combinational logic did not settle "
                              f"after {_MAX_SETTLE_ITERS} iterations")

    # -- propagation engine ------------------------------------------------

    def _snapshot_edges(self) -> None:
        self._edge_state = {s: self.state[s] for s in self._edge_signals}

    def _propagate(self) -> None:
        self.settle()
        for _ in range(_MAX_EDGE_CASCADE):
            triggered = self._triggered_processes()
            self._snapshot_edges()
            if not triggered:
                return
            nba: list[tuple[object, FourState]] = []
            for proc in triggered:
                self._exec_body(proc.body, nba)
            for resolved, value in nba:
                self._apply_resolved(resolved, value)
            self.settle()
        raise SimulationError("edge cascade exceeded "
                              f"{_MAX_EDGE_CASCADE} levels")

    def _triggered_processes(self) -> list[FlatProcess]:
        triggered = []
        for proc in self._seq:
            for item in proc.sensitivity:
                prev = self._edge_state.get(item.signal)
                now = self.state[item.signal]
                if prev is None:
                    continue
                if self._is_edge(item.edge, prev, now):
                    triggered.append(proc)
                    break
        return triggered

    @staticmethod
    def _is_edge(edge: EdgeKind, prev: FourState, now: FourState) -> bool:
        p = prev.bit(0)
        n = now.bit(0)
        if edge is EdgeKind.POSEDGE:
            return n.case_eq(FourState(1, 1)) and not p.case_eq(FourState(1, 1))
        if edge is EdgeKind.NEGEDGE:
            return n.case_eq(FourState(1, 0)) and not p.case_eq(FourState(1, 0))
        return not p.case_eq(n)

    def _run_comb_process(self, proc: FlatProcess) -> bool:
        before = dict(self.state)
        # Comb always blocks use blocking assigns; NBAs inside them are
        # tolerated by committing immediately as well.
        nba: list[tuple[object, FourState]] = []
        self._exec_body(proc.body, nba)
        for resolved, value in nba:
            self._apply_resolved(resolved, value)
        return self.state != before

    def _run_assign(self, target: Expr, value_expr: Expr) -> bool:
        value = self.eval(value_expr)
        return self._write_target(target, value)

    # -- statement execution ---------------------------------------------------

    def _exec_body(self, body: list[Stmt],
                   nba: list[tuple[object, FourState]] | None) -> None:
        for stmt in body:
            self._exec_stmt(stmt, nba)

    def _exec_stmt(self, stmt: Stmt,
                   nba: list[tuple[object, FourState]] | None) -> None:
        if isinstance(stmt, Assign):
            value = self.eval(stmt.value)
            if stmt.blocking or nba is None:
                self._write_target(stmt.target, value)
            else:
                nba.append((self._resolve_target(stmt.target), value))
        elif isinstance(stmt, Block):
            self._exec_body(stmt.body, nba)
        elif isinstance(stmt, If):
            cond = self.eval(stmt.cond)
            if cond.is_true():
                self._exec_body(stmt.then_body, nba)
            else:
                self._exec_body(stmt.else_body, nba)
        elif isinstance(stmt, Case):
            self._exec_case(stmt, nba)
        elif isinstance(stmt, For):
            self._exec_for(stmt, nba)
        else:
            raise SimulationError(
                f"cannot execute statement {type(stmt).__name__}"
            )

    def _exec_case(self, stmt: Case,
                   nba: list[tuple[object, FourState]] | None) -> None:
        subject = self.eval(stmt.subject)
        default_item = None
        for item in stmt.items:
            if not item.patterns:
                default_item = item
                continue
            for pattern_expr in item.patterns:
                pattern = self.eval(pattern_expr)
                if self._case_match(stmt.kind, subject, pattern):
                    self._exec_body(item.body, nba)
                    return
        if default_item is not None:
            self._exec_body(default_item.body, nba)

    @staticmethod
    def _case_match(kind: str, subject: FourState, pattern: FourState) -> bool:
        w = max(subject.width, pattern.width)
        s, p = subject.resize(w), pattern.resize(w)
        if kind == "case":
            return s.case_eq(p)
        care = ~p.xmask  # casez: pattern X/Z/? bits are wildcards
        if kind == "casex":
            care &= ~s.xmask
        mask = (1 << w) - 1
        care &= mask
        return (s.val & care) == (p.val & care) and not (s.xmask & care)

    def _exec_for(self, stmt: For,
                  nba: list[tuple[object, FourState]] | None) -> None:
        self._exec_stmt(stmt.init, nba)
        for _ in range(_MAX_LOOP_ITERS):
            cond = self.eval(stmt.cond)
            if not cond.is_true():
                return
            self._exec_body(stmt.body, nba)
            self._exec_stmt(stmt.step, nba)
        raise SimulationError("for-loop exceeded iteration limit")

    # -- lvalue writes -----------------------------------------------------------
    #
    # Targets are *resolved* (indices evaluated) at schedule time, then
    # applied.  This matters for nonblocking assignments whose index
    # expressions involve loop variables: ``q[i] <= q[i-1]`` inside a for
    # loop must capture the value of ``i`` when the assignment executes,
    # not when the NBA queue is committed after the process.

    def _resolve_target(self, target: Expr) -> tuple:
        """Evaluate a target's addressing now; returns a resolved form."""
        if isinstance(target, Identifier):
            return ("whole", target.name)
        if isinstance(target, Index):
            name = self._lvalue_name(target.target)
            spec = self.design.signal(name)
            index = self._eval_index(target.index)
            if index is None:
                return ("drop",)  # X address: write is lost
            if spec.is_memory:
                return ("word", name, index - spec.mem_lsb)
            return ("bits", name, index - spec.lsb, index - spec.lsb)
        if isinstance(target, PartSelect):
            name = self._lvalue_name(target.target)
            spec = self.design.signal(name)
            msb = self._eval_index(target.msb)
            lsb = self._eval_index(target.lsb)
            if msb is None or lsb is None:
                return ("drop",)
            return ("bits", name, msb - spec.lsb, lsb - spec.lsb)
        if isinstance(target, Concat):
            return ("concat", [self._resolve_target(p) for p in target.parts],
                    [self._target_width(p) for p in target.parts])
        raise SimulationError(
            f"unsupported assignment target {type(target).__name__}"
        )

    def _apply_resolved(self, resolved: tuple, value: FourState) -> bool:
        kind = resolved[0]
        if kind == "drop":
            return False
        if kind == "whole":
            name = resolved[1]
            spec = self.design.signal(name)
            if spec.is_memory:
                raise SimulationError(f"cannot assign whole memory {name!r}")
            new = value.resize(spec.width)
            if self.state[name] == new:
                return False
            self.state[name] = new
            return True
        if kind == "word":
            _, name, index = resolved
            spec = self.design.signal(name)
            word = value.resize(spec.width)
            current = self.memories[name].get(index)
            if current == word:
                return False
            self.memories[name][index] = word
            return True
        if kind == "bits":
            _, name, msb, lsb = resolved
            spec = self.design.signal(name)
            return self._write_bits(name, spec, msb, lsb, value)
        if kind == "concat":
            _, parts, widths = resolved
            changed = False
            offset = 0
            for part, width in zip(reversed(parts), reversed(widths),
                                   strict=True):
                chunk = value.slice(offset + width - 1, offset)
                if self._apply_resolved(part, chunk):
                    changed = True
                offset += width
            return changed
        raise SimulationError(f"bad resolved target {kind!r}")

    def _write_target(self, target: Expr, value: FourState) -> bool:
        return self._apply_resolved(self._resolve_target(target), value)

    def _write_bits(self, name: str, spec: SignalSpec, msb: int, lsb: int,
                    value: FourState) -> bool:
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        chunk = value.resize(width)
        current = self.state[name]
        mask = ((1 << width) - 1) << lsb
        new_val = (current.val & ~mask) | ((chunk.val << lsb) & mask)
        new_xm = (current.xmask & ~mask) | ((chunk.xmask << lsb) & mask)
        new = FourState(spec.width, new_val & ~new_xm, new_xm)
        if new == current:
            return False
        self.state[name] = new
        return True

    def _lvalue_name(self, expr: Expr) -> str:
        if isinstance(expr, Identifier):
            return expr.name
        raise SimulationError(
            f"nested lvalue of type {type(expr).__name__} not supported"
        )

    def _target_width(self, target: Expr) -> int:
        if isinstance(target, Identifier):
            return self.design.signal(target.name).width
        if isinstance(target, Index):
            name = self._lvalue_name(target.target)
            spec = self.design.signal(name)
            return spec.width if spec.is_memory else 1
        if isinstance(target, PartSelect):
            msb = self._eval_index(target.msb)
            lsb = self._eval_index(target.lsb)
            if msb is None or lsb is None:
                raise SimulationError("X width in part-select target")
            return abs(msb - lsb) + 1
        if isinstance(target, Concat):
            return sum(self._target_width(p) for p in target.parts)
        raise SimulationError(
            f"unsupported assignment target {type(target).__name__}"
        )

    def _eval_index(self, expr: Expr) -> int | None:
        value = self.eval(expr)
        if value.has_unknown:
            return None
        return value.val

    # -- expression evaluation -----------------------------------------------

    def eval(self, expr: Expr) -> FourState:
        """Evaluate an expression against the current simulation state."""
        if isinstance(expr, Number):
            width = expr.width or 32
            return FourState(width, expr.value, expr.xmask)

        if isinstance(expr, Identifier):
            if expr.name not in self.state:
                raise SimulationError(f"unknown signal {expr.name!r}")
            return self.state[expr.name]

        if isinstance(expr, Unary):
            return self._eval_unary(expr)

        if isinstance(expr, Binary):
            return self._eval_binary(expr)

        if isinstance(expr, Ternary):
            cond = _bool3(self.eval(expr.cond))
            if cond.has_unknown:
                return _merge(self.eval(expr.then), self.eval(expr.otherwise))
            if cond.val:
                return self.eval(expr.then)
            return self.eval(expr.otherwise)

        if isinstance(expr, Index):
            return self._eval_index_expr(expr)

        if isinstance(expr, PartSelect):
            target = self.eval(expr.target)
            msb = self._eval_index(expr.msb)
            lsb = self._eval_index(expr.lsb)
            if msb is None or lsb is None:
                return FourState.unknown(target.width)
            if isinstance(expr.target, Identifier):
                spec = self.design.signal(expr.target.name)
                msb -= spec.lsb
                lsb -= spec.lsb
            return target.slice(max(msb, lsb), min(msb, lsb))

        if isinstance(expr, Concat):
            result = self.eval(expr.parts[0])
            for part in expr.parts[1:]:
                result = result.concat(self.eval(part))
            return result

        if isinstance(expr, Replicate):
            count = self._eval_index(expr.count)
            if count is None:
                raise SimulationError("X replication count")
            return self.eval(expr.value).replicate(count)

        if isinstance(expr, SystemCall):
            return self._eval_system_call(expr)

        raise SimulationError(f"cannot evaluate {type(expr).__name__}")

    def _eval_index_expr(self, expr: Index) -> FourState:
        if isinstance(expr.target, Identifier):
            spec = self.design.signal(expr.target.name)
            index = self._eval_index(expr.index)
            if spec.is_memory:
                if index is None:
                    return FourState.unknown(spec.width)
                return self.memories[spec.name].get(
                    index - spec.mem_lsb, FourState.unknown(spec.width)
                )
            if index is None:
                return FourState.unknown(1)
            return self.state[spec.name].bit(index - spec.lsb)
        target = self.eval(expr.target)
        index = self._eval_index(expr.index)
        if index is None:
            return FourState.unknown(1)
        return target.bit(index)

    def _eval_unary(self, expr: Unary) -> FourState:
        value = self.eval(expr.operand)
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            b = _bool3(value)
            return ~b if b.is_known else b
        if expr.op == "-":
            zero = FourState(value.width, 0)
            return zero.sub(value, value.width)
        if expr.op == "+":
            return value
        if expr.op == "&":
            return value.reduce_and()
        if expr.op == "|":
            return value.reduce_or()
        if expr.op == "^":
            return value.reduce_xor()
        if expr.op == "~&":
            r = value.reduce_and()
            return ~r if r.is_known else r
        if expr.op == "~|":
            r = value.reduce_or()
            return ~r if r.is_known else r
        if expr.op == "~^":
            r = value.reduce_xor()
            return ~r if r.is_known else r
        raise SimulationError(f"unknown unary operator {expr.op!r}")

    def _eval_binary(self, expr: Binary) -> FourState:
        op = expr.op
        if op == "&&":
            a = _bool3(self.eval(expr.left))
            b = _bool3(self.eval(expr.right))
            return a & b
        if op == "||":
            a = _bool3(self.eval(expr.left))
            b = _bool3(self.eval(expr.right))
            return a | b

        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op in ("^",):
            return left ^ right
        if op in ("~^", "^~"):
            r = left ^ right
            return FourState(r.width, ~r.val & ((1 << r.width) - 1) & ~r.xmask,
                             r.xmask)
        if op == "+":
            return left.add(right, max(left.width, right.width) + 1)
        if op == "-":
            return left.sub(right, max(left.width, right.width) + 1)
        if op == "*":
            return left.mul(right, left.width + right.width)
        if op == "/":
            return left.div(right)
        if op == "%":
            return left.mod(right)
        if op == "**":
            if left.has_unknown or right.has_unknown:
                return FourState.unknown(left.width)
            return FourState.from_int(left.val ** right.val, max(32, left.width))
        if op in ("<<", "<<<"):
            return left.shl(right, left.width)
        if op in (">>", ">>>"):
            return left.shr(right, left.width)
        if op == "==":
            return left.eq(right)
        if op == "!=":
            return left.ne(right)
        if op == "===":
            return FourState(1, 1 if left.case_eq(right) else 0)
        if op == "!==":
            return FourState(1, 0 if left.case_eq(right) else 1)
        if op == "<":
            return left.lt(right)
        if op == "<=":
            return left.le(right)
        if op == ">":
            return left.gt(right)
        if op == ">=":
            return left.ge(right)
        raise SimulationError(f"unknown binary operator {op!r}")

    def _eval_system_call(self, expr: SystemCall) -> FourState:
        if expr.name in ("$clog2", "$signed", "$unsigned") \
                and len(expr.args) != 1:
            raise SimulationError(
                f"{expr.name} expects exactly one argument"
            )
        if expr.name == "$clog2":
            value = eval_const(expr.args[0], {}) if isinstance(
                expr.args[0], Number) else self._eval_index(expr.args[0])
            if value is None:
                raise SimulationError("$clog2 of X value")
            result = 0 if value <= 1 else int(math.ceil(math.log2(value)))
            return FourState.from_int(result, 32)
        if expr.name in ("$signed", "$unsigned"):
            return self.eval(expr.args[0])
        raise SimulationError(f"unsupported system call {expr.name}")


def simulate(source_text: str, top: str | None = None,
             overrides: dict[str, int] | None = None,
             backend: str | None = None) -> Simulator:
    """Parse, elaborate and return a ready :class:`Simulator`."""
    from .elaborate import elaborate
    from .parser import parse

    design = elaborate(parse(source_text), top=top, overrides=overrides)
    return Simulator(design, backend=backend)


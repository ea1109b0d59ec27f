"""Backend-neutral lowering: ``FlatDesign`` -> lowered IR.

All structural analysis a closure build needs -- signal-slot
assignment, lvalue resolution, static write-set analysis, sensitivity
lowering and width pre-resolution -- happens here once, into a single
:class:`LoweredDesign`: a small, backend-neutral IR of plain lists that
the closure builder in :mod:`repro.verilog.vector` consumes instead of
the AST.

The IR lives only in memory: :func:`lower_design` builds it lazily the
first time a simulator is built for a design and caches it on the
design's ``_lowered_cache``, so every lane count built from one design
(one lane serves both the ``compiled`` and ``vector`` backend names)
shares one lowering.

IR node vocabulary (every node is a list whose first element is a tag):

Expressions
    ``["K", w, v, x]`` canonical four-state constant;
    ``["S", slot, w]`` signal read;
    ``["U", op, a]`` / ``["B", op, a, b]`` / ``["T", c, a, b]``;
    ``["IB", slot, w, lsb, idx]`` bit-select on a signal;
    ``["IM", mslot, w, mlsb, idx]`` memory word read;
    ``["IE", target, idx]`` bit-select on a computed value;
    ``["PS", target, adjust, msb, lsb]`` part-select;
    ``["C", [parts]]`` concat; ``["R", count, value]`` replicate;
    ``["L2", a]`` runtime ``$clog2`` (const operands fold to ``K``).

Statements
    ``["a", lv, value]`` blocking / ``["n", lv, value]`` nonblocking
    assignment; ``["i", cond, then, else]``;
    ``["c", kind, subject, [[patterns, body], ...]]`` (an arm with no
    patterns is the default); ``["f", init, cond, step, body]``;
    ``["b", body]`` block.

Lvalues
    ``["W", slot, w]`` whole signal; ``["X", slot, w, lsb, idx]``
    single bit; ``["P", slot, w, lsb, msb, lsb_expr]`` part range;
    ``["M", mslot, w, mlsb, idx]`` memory word;
    ``["CC", [lvalues], [widths]]`` concat target, with width
    descriptors ``["wk", n]`` (constant), ``["wr", msb, lsb]``
    (runtime range) and ``["ws", [descs]]`` (sum).

Widths, slot numbers and lsb offsets are pre-resolved, so builders
never touch ``design.signals``.  Structural errors (undeclared
signals, whole-memory assignment, malformed lvalues, unknown
operators) are raised *here*, at lowering time, i.e. when a simulator
is constructed.
"""

from __future__ import annotations

import math

from ..obs import COUNTERS
from .ast_nodes import (
    Binary,
    Concat,
    EdgeKind,
    Expr,
    Identifier,
    Index,
    Number,
    PartSelect,
    Replicate,
    Stmt,
    SystemCall,
    Ternary,
    Unary,
)
from .elaborate import FlatDesign, eval_const
from .simulator import SimulationError
from .values import FourState

# EdgeKind -> small int, read by the closure builder's trigger scan.
_POSEDGE, _NEGEDGE, _LEVEL = 0, 1, 2
_EDGE_CODE = {EdgeKind.POSEDGE: _POSEDGE, EdgeKind.NEGEDGE: _NEGEDGE,
              EdgeKind.LEVEL: _LEVEL}

_UNARY_OPS = frozenset(("~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"))
_BINARY_OPS = frozenset((
    "&&", "||", "&", "|", "^", "~^", "^~", "+", "-", "*", "/", "%", "**",
    "<<", "<<<", ">>", ">>>", "==", "!=", "===", "!==", "<", "<=", ">", ">=",
))

class LoweredDesign:
    """The backend-neutral lowered form of one :class:`FlatDesign`.

    Core (all plain lists):

    - ``signals``: ``[name, width, lsb]`` per non-memory signal, in
      slot order;
    - ``memories``: ``[name, width, mem_lsb]`` per memory, in memory
      slot order;
    - ``assigns``: ``[lvalue, value]`` per continuous assign;
    - ``comb``: ``[body, write_slots]`` per non-edge process (the
      static set of non-memory slots the body can write);
    - ``seq``: ``[[[edge_code, slot], ...], body]`` per edge process;
    - ``initials``: one statement list per initial block.

    Derived at construction: ``slot`` / ``mem_slot``
    name maps, the dense ``widths`` table, ``n_mems``, and the
    ``edge_slots`` / ``edge_pos`` trigger-scan tables.
    """

    __slots__ = ("top", "signals", "memories", "assigns", "comb", "seq",
                 "initials", "slot", "mem_slot", "widths", "n_mems",
                 "edge_slots", "edge_pos")

    def __init__(self, top: str, signals: list, memories: list,
                 assigns: list, comb: list, seq: list, initials: list):
        self.top = top
        self.signals = signals
        self.memories = memories
        self.assigns = assigns
        self.comb = comb
        self.seq = seq
        self.initials = initials
        self.slot: dict[str, int] = {
            row[0]: i for i, row in enumerate(signals)
        }
        self.widths: list[int] = [row[1] for row in signals]
        self.mem_slot: dict[str, int] = {
            row[0]: i for i, row in enumerate(memories)
        }
        self.n_mems = len(memories)
        self.edge_slots: list[int] = sorted(
            {slot for sens, _ in seq for _, slot in sens}
        )
        self.edge_pos: dict[int, int] = {
            slot: i for i, slot in enumerate(self.edge_slots)
        }


# ---------------------------------------------------------------------------
# AST -> IR lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    """One-shot AST walker producing IR nodes with resolved slots.

    Mirrors the structural checks (and their error types/messages) of
    the interpreter: expression reads of undeclared or memory signals
    raise :class:`SimulationError`, and lvalue lookups go through
    ``design.signal`` (raising
    :class:`~repro.verilog.elaborate.ElaborationError` for unknown
    names) before the whole-memory check.
    """

    def __init__(self, design: FlatDesign):
        self.design = design
        self.slot: dict[str, int] = {}
        self.mem_slot: dict[str, int] = {}
        self.signals: list[list] = []
        self.memories: list[list] = []
        for spec in design.signals.values():
            if spec.is_memory:
                self.mem_slot[spec.name] = len(self.memories)
                self.memories.append([spec.name, spec.width, spec.mem_lsb])
            else:
                self.slot[spec.name] = len(self.signals)
                self.signals.append([spec.name, spec.width, spec.lsb])

    def lower(self) -> LoweredDesign:
        design = self.design
        assigns = []
        for a in design.assigns:
            value = self.expr(a.value)
            assigns.append([self.lvalue(a.target), value])
        comb = []
        for p in design.processes:
            if not p.is_edge_triggered:
                body = self.body(p.body)
                comb.append([body, _write_slots(body)])
        seq = []
        for p in design.processes:
            if p.is_edge_triggered:
                sens = [[_EDGE_CODE[item.edge],
                         self.signal_slot(item.signal)]
                        for item in p.sensitivity]
                seq.append([sens, self.body(p.body)])
        initials = [self.body(p.body) for p in design.initials]
        return LoweredDesign(top=design.top_name, signals=self.signals,
                             memories=self.memories, assigns=assigns,
                             comb=comb, seq=seq, initials=initials)

    # -- helpers -----------------------------------------------------------

    def signal_slot(self, name: str) -> int:
        if name not in self.slot:
            raise SimulationError(f"unknown signal {name!r}")
        return self.slot[name]

    @staticmethod
    def _lvalue_name(expr: Expr) -> str:
        if isinstance(expr, Identifier):
            return expr.name
        raise SimulationError(
            f"nested lvalue of type {type(expr).__name__} not supported"
        )

    # -- statements --------------------------------------------------------

    def body(self, stmts: list[Stmt]) -> list:
        return [self.stmt(s) for s in stmts]

    def stmt(self, stmt: Stmt) -> list:
        # Local import: ast_nodes statement classes only needed here.
        from .ast_nodes import Assign, Block, Case, For, If
        if isinstance(stmt, Assign):
            value = self.expr(stmt.value)
            target = self.lvalue(stmt.target)
            return ["a" if stmt.blocking else "n", target, value]
        if isinstance(stmt, Block):
            return ["b", self.body(stmt.body)]
        if isinstance(stmt, If):
            cond = self.expr(stmt.cond)
            return ["i", cond, self.body(stmt.then_body),
                    self.body(stmt.else_body)]
        if isinstance(stmt, Case):
            subject = self.expr(stmt.subject)
            items = [[[self.expr(p) for p in item.patterns],
                      self.body(item.body)]
                     for item in stmt.items]
            return ["c", stmt.kind, subject, items]
        if isinstance(stmt, For):
            init = self.stmt(stmt.init)
            cond = self.expr(stmt.cond)
            step = self.stmt(stmt.step)
            return ["f", init, cond, step, self.body(stmt.body)]
        raise SimulationError(
            f"cannot execute statement {type(stmt).__name__}"
        )

    # -- lvalues -----------------------------------------------------------

    def lvalue(self, target: Expr) -> list:
        if isinstance(target, Identifier):
            spec = self.design.signal(target.name)
            if spec.is_memory:
                raise SimulationError(
                    f"cannot assign whole memory {target.name!r}"
                )
            return ["W", self.signal_slot(target.name), spec.width]
        if isinstance(target, Index):
            name = self._lvalue_name(target.target)
            spec = self.design.signal(name)
            index = self.expr(target.index)
            if spec.is_memory:
                return ["M", self.mem_slot[name], spec.width, spec.mem_lsb,
                        index]
            return ["X", self.signal_slot(name), spec.width, spec.lsb,
                    index]
        if isinstance(target, PartSelect):
            name = self._lvalue_name(target.target)
            spec = self.design.signal(name)
            msb = self.expr(target.msb)
            lsb = self.expr(target.lsb)
            return ["P", self.signal_slot(name), spec.width, spec.lsb,
                    msb, lsb]
        if isinstance(target, Concat):
            parts = [self.lvalue(p) for p in target.parts]
            widths = [self.target_width(p) for p in target.parts]
            return ["CC", parts, widths]
        raise SimulationError(
            f"unsupported assignment target {type(target).__name__}"
        )

    def target_width(self, target: Expr) -> list:
        if isinstance(target, Identifier):
            return ["wk", self.design.signal(target.name).width]
        if isinstance(target, Index):
            spec = self.design.signal(self._lvalue_name(target.target))
            return ["wk", spec.width if spec.is_memory else 1]
        if isinstance(target, PartSelect):
            return ["wr", self.expr(target.msb), self.expr(target.lsb)]
        if isinstance(target, Concat):
            return ["ws", [self.target_width(p) for p in target.parts]]
        raise SimulationError(
            f"unsupported assignment target {type(target).__name__}"
        )

    # -- expressions -------------------------------------------------------

    def expr(self, expr: Expr) -> list:
        if isinstance(expr, Number):
            canon = FourState(expr.width or 32, expr.value, expr.xmask)
            return ["K", canon.width, canon.val, canon.xmask]
        if isinstance(expr, Identifier):
            slot = self.signal_slot(expr.name)
            return ["S", slot, self.design.signal(expr.name).width]
        if isinstance(expr, Unary):
            operand = self.expr(expr.operand)
            if expr.op not in _UNARY_OPS:
                raise SimulationError(f"unknown unary operator {expr.op!r}")
            return ["U", expr.op, operand]
        if isinstance(expr, Binary):
            left = self.expr(expr.left)
            right = self.expr(expr.right)
            if expr.op not in _BINARY_OPS:
                raise SimulationError(f"unknown binary operator {expr.op!r}")
            return ["B", expr.op, left, right]
        if isinstance(expr, Ternary):
            cond = self.expr(expr.cond)
            return ["T", cond, self.expr(expr.then),
                    self.expr(expr.otherwise)]
        if isinstance(expr, Index):
            index = self.expr(expr.index)
            if isinstance(expr.target, Identifier):
                spec = self.design.signal(expr.target.name)
                if spec.is_memory:
                    return ["IM", self.mem_slot[spec.name], spec.width,
                            spec.mem_lsb, index]
                return ["IB", self.signal_slot(spec.name), spec.width,
                        spec.lsb, index]
            return ["IE", self.expr(expr.target), index]
        if isinstance(expr, PartSelect):
            target = self.expr(expr.target)
            msb = self.expr(expr.msb)
            lsb = self.expr(expr.lsb)
            adjust = 0
            if isinstance(expr.target, Identifier):
                adjust = self.design.signal(expr.target.name).lsb
            return ["PS", target, adjust, msb, lsb]
        if isinstance(expr, Concat):
            return ["C", [self.expr(p) for p in expr.parts]]
        if isinstance(expr, Replicate):
            count = self.expr(expr.count)
            return ["R", count, self.expr(expr.value)]
        if isinstance(expr, SystemCall):
            return self._system_call(expr)
        raise SimulationError(f"cannot evaluate {type(expr).__name__}")

    def _system_call(self, expr: SystemCall) -> list:
        if expr.name in ("$clog2", "$signed", "$unsigned") \
                and len(expr.args) != 1:
            raise SimulationError(
                f"{expr.name} expects exactly one argument"
            )
        if expr.name == "$clog2":
            arg = expr.args[0]
            if isinstance(arg, Number):
                value = eval_const(arg, {})
                result = 0 if value <= 1 else int(math.ceil(math.log2(value)))
                return ["K", 32, result & 0xFFFFFFFF, 0]
            return ["L2", self.expr(arg)]
        if expr.name in ("$signed", "$unsigned"):
            # Width/value no-ops in this unsigned substrate: fold away,
            # so the builder's width-sensitivity context flows straight
            # to the operand.
            return self.expr(expr.args[0])
        raise SimulationError(f"unsupported system call {expr.name}")


def _write_slots(body: list) -> list[int]:
    """Non-memory slots a lowered statement list can write.

    A static bound computed from the IR: comb change detection
    compares only these slots, and memory words are
    deliberately excluded (the interpreter's predicate reads ``state``
    only, never ``memories``).
    """
    slots: set[int] = set()

    def lvalue_slots(lv: list) -> None:
        tag = lv[0]
        if tag in ("W", "X", "P"):
            slots.add(lv[1])
        elif tag == "CC":
            for part in lv[1]:
                lvalue_slots(part)
        # "M": memory word writes never enter the comb predicate.

    def visit(stmts: list) -> None:
        for stmt in stmts:
            tag = stmt[0]
            if tag in ("a", "n"):
                lvalue_slots(stmt[1])
            elif tag == "b":
                visit(stmt[1])
            elif tag == "i":
                visit(stmt[2])
                visit(stmt[3])
            elif tag == "c":
                for item in stmt[3]:
                    visit(item[1])
            elif tag == "f":
                visit([stmt[1], stmt[3]])
                visit(stmt[4])

    visit(body)
    return sorted(slots)


# ---------------------------------------------------------------------------
# The design-side cache and public lowering entry points
# ---------------------------------------------------------------------------

#: Key of the shared backend-neutral IR in ``design._lowered_cache``.
#: The closure builds sit next to it under ``("vector", lanes)``.
_IR_KEY = ("ir", 0)


def lower_design(design: FlatDesign) -> LoweredDesign:
    """Lower ``design`` to the backend-neutral IR, caching on the design."""
    cache = design._lowered_cache
    lowered = cache.get(_IR_KEY)
    if lowered is None:
        lowered = _Lowerer(design).lower()
        cache[_IR_KEY] = lowered
        COUNTERS.bump("frontend", "lowerings")
    return lowered


def lower_expr(design: FlatDesign, expr: Expr) -> list:
    """Lower one expression against ``design``'s slot assignment.

    Used by the simulator's ``eval()`` path to compile ad-hoc AST
    expressions at runtime; slot numbering is a pure function of the
    design's signal order, so it always agrees with the cached IR.
    """
    return _Lowerer(design).expr(expr)


__all__ = [
    "LoweredDesign",
    "lower_design",
    "lower_expr",
]

"""Elaboration: parameters, widths, and hierarchy flattening.

Turns a parsed :class:`~repro.verilog.ast_nodes.SourceFile` plus a chosen
top module into a :class:`FlatDesign`:

* every parameter/localparam is constant-folded (with per-instance
  overrides applied),
* every signal gets a resolved width (memories get a resolved depth),
* the instance hierarchy is flattened -- child signals are renamed to
  ``<instance>.<signal>`` and port connections become continuous assigns.

The flat design is what :mod:`repro.verilog.simulator` executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Case,
    CaseItem,
    Concat,
    ContinuousAssign,
    Expr,
    For,
    Identifier,
    If,
    Index,
    Instance,
    Module,
    Number,
    PartSelect,
    PortDirection,
    Range,
    Replicate,
    SensItem,
    SourceFile,
    Stmt,
    SystemCall,
    Ternary,
    Unary,
)


class ElaborationError(ValueError):
    """Raised for unresolvable parameters, unknown modules, bad ports."""


# ---------------------------------------------------------------------------
# Constant evaluation (parameters, ranges)
# ---------------------------------------------------------------------------


def eval_const(expr: Expr, env: dict[str, int]) -> int:
    """Evaluate a compile-time-constant expression to a Python int."""
    if isinstance(expr, Number):
        if expr.xmask:
            raise ElaborationError("constant expression contains X bits")
        return expr.value
    if isinstance(expr, Identifier):
        if expr.name not in env:
            raise ElaborationError(f"unknown parameter {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Unary):
        v = eval_const(expr.operand, env)
        ops = {"-": lambda x: -x, "+": lambda x: x, "~": lambda x: ~x,
               "!": lambda x: 0 if x else 1}
        if expr.op not in ops:
            raise ElaborationError(f"operator {expr.op!r} in constant expression")
        return ops[expr.op](v)
    if isinstance(expr, Binary):
        lv = eval_const(expr.left, env)
        rv = eval_const(expr.right, env)
        ops = {
            "+": lambda a, b: a + b, "-": lambda a, b: a - b,
            "*": lambda a, b: a * b, "/": lambda a, b: a // b,
            "%": lambda a, b: a % b, "**": lambda a, b: a ** b,
            "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
            "&": lambda a, b: a & b, "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
            "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
            "<": lambda a, b: int(a < b), "<=": lambda a, b: int(a <= b),
            ">": lambda a, b: int(a > b), ">=": lambda a, b: int(a >= b),
            "&&": lambda a, b: int(bool(a) and bool(b)),
            "||": lambda a, b: int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise ElaborationError(f"operator {expr.op!r} in constant expression")
        if rv == 0 and expr.op in ("/", "%"):
            raise ElaborationError("division by zero in constant expression")
        return ops[expr.op](lv, rv)
    if isinstance(expr, Ternary):
        return (eval_const(expr.then, env) if eval_const(expr.cond, env)
                else eval_const(expr.otherwise, env))
    if isinstance(expr, SystemCall):
        if expr.name == "$clog2":
            if len(expr.args) != 1:
                raise ElaborationError("$clog2 expects exactly one argument")
            v = eval_const(expr.args[0], env)
            return 0 if v <= 1 else int(math.ceil(math.log2(v)))
        raise ElaborationError(f"system call {expr.name} in constant expression")
    raise ElaborationError(
        f"node {type(expr).__name__} not allowed in constant expression"
    )


# ---------------------------------------------------------------------------
# Flat design data model
# ---------------------------------------------------------------------------


@dataclass
class SignalSpec:
    """A flat signal: either a vector or a memory of vectors."""

    name: str
    width: int
    signed: bool = False
    is_memory: bool = False
    depth: int = 0
    mem_lsb: int = 0
    is_input: bool = False
    is_output: bool = False
    lsb: int = 0  # vector LSB index (supports [7:0] and [0:7] forms)


@dataclass
class FlatProcess:
    """One always block with flat signal names."""

    sensitivity: list[SensItem]
    body: list[Stmt]
    star: bool = False

    @property
    def is_edge_triggered(self) -> bool:
        return any(s.edge.value in ("posedge", "negedge") for s in self.sensitivity)


@dataclass
class FlatDesign:
    """Fully elaborated, flattened design ready for simulation."""

    top_name: str
    signals: dict[str, SignalSpec] = field(default_factory=dict)
    assigns: list[ContinuousAssign] = field(default_factory=list)
    processes: list[FlatProcess] = field(default_factory=list)
    initials: list[FlatProcess] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    #: Per-design cache of closure-build inputs and outputs, keyed by
    #: ``(kind, lanes)``: ``("ir", 0)`` holds the slot layout every
    #: build shares (a LoweredDesign, see :mod:`repro.verilog.lower`),
    #: ``("vector", n)`` the closures built for ``n`` lanes (``n == 1``
    #: serves ``Simulator(design)``).  Not part of the design value:
    #: excluded from comparison.
    _lowered_cache: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def signal(self, name: str) -> SignalSpec:
        try:
            return self.signals[name]
        except KeyError:
            raise ElaborationError(f"unknown signal {name!r}") from None


# ---------------------------------------------------------------------------
# Expression/statement rewriting (prefix + parameter substitution)
# ---------------------------------------------------------------------------


def _rewrite_expr(expr: Expr, params: dict[str, int], prefix: str) -> Expr:
    if isinstance(expr, Number):
        return expr
    if isinstance(expr, Identifier):
        if expr.name in params:
            return Number(value=params[expr.name], width=32)
        return Identifier(prefix + expr.name)
    if isinstance(expr, Unary):
        return Unary(expr.op, _rewrite_expr(expr.operand, params, prefix))
    if isinstance(expr, Binary):
        return Binary(expr.op,
                      _rewrite_expr(expr.left, params, prefix),
                      _rewrite_expr(expr.right, params, prefix))
    if isinstance(expr, Ternary):
        return Ternary(_rewrite_expr(expr.cond, params, prefix),
                       _rewrite_expr(expr.then, params, prefix),
                       _rewrite_expr(expr.otherwise, params, prefix))
    if isinstance(expr, Index):
        return Index(_rewrite_expr(expr.target, params, prefix),
                     _rewrite_expr(expr.index, params, prefix))
    if isinstance(expr, PartSelect):
        return PartSelect(_rewrite_expr(expr.target, params, prefix),
                          _rewrite_expr(expr.msb, params, prefix),
                          _rewrite_expr(expr.lsb, params, prefix))
    if isinstance(expr, Concat):
        return Concat([_rewrite_expr(p, params, prefix) for p in expr.parts])
    if isinstance(expr, Replicate):
        return Replicate(_rewrite_expr(expr.count, params, prefix),
                         _rewrite_expr(expr.value, params, prefix))
    if isinstance(expr, SystemCall):
        return SystemCall(expr.name,
                          [_rewrite_expr(a, params, prefix) for a in expr.args])
    raise ElaborationError(f"cannot rewrite {type(expr).__name__}")


def _rewrite_stmt(stmt: Stmt, params: dict[str, int], prefix: str) -> Stmt:
    if isinstance(stmt, Assign):
        return Assign(_rewrite_expr(stmt.target, params, prefix),
                      _rewrite_expr(stmt.value, params, prefix),
                      blocking=stmt.blocking)
    if isinstance(stmt, If):
        return If(_rewrite_expr(stmt.cond, params, prefix),
                  [_rewrite_stmt(s, params, prefix) for s in stmt.then_body],
                  [_rewrite_stmt(s, params, prefix) for s in stmt.else_body])
    if isinstance(stmt, Case):
        items = [
            CaseItem([_rewrite_expr(p, params, prefix) for p in item.patterns],
                     [_rewrite_stmt(s, params, prefix) for s in item.body])
            for item in stmt.items
        ]
        return Case(_rewrite_expr(stmt.subject, params, prefix), items, stmt.kind)
    if isinstance(stmt, For):
        return For(
            _rewrite_stmt(stmt.init, params, prefix),
            _rewrite_expr(stmt.cond, params, prefix),
            _rewrite_stmt(stmt.step, params, prefix),
            [_rewrite_stmt(s, params, prefix) for s in stmt.body],
        )
    if isinstance(stmt, Block):
        return Block([_rewrite_stmt(s, params, prefix) for s in stmt.body],
                     name=stmt.name)
    raise ElaborationError(f"cannot rewrite statement {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Elaborator
# ---------------------------------------------------------------------------

_MAX_DEPTH = 32


class Elaborator:
    """Flattens a module hierarchy into a :class:`FlatDesign`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.design: FlatDesign | None = None

    def elaborate(self, top: str | None = None,
                  overrides: dict[str, int] | None = None) -> FlatDesign:
        top_mod = (self.source.module(top) if top
                   else self.source.modules[0])
        self.design = FlatDesign(top_name=top_mod.name)
        self._instantiate(top_mod, prefix="", overrides=overrides or {},
                          depth=0, top=True)
        for proc in self.design.processes:
            for item in proc.sensitivity:
                if item.signal not in self.design.signals:
                    raise ElaborationError(
                        f"sensitivity list references undeclared signal "
                        f"{item.signal!r}"
                    )
        return self.design

    # -- per-instance elaboration ------------------------------------------

    def _resolve_params(self, module: Module,
                        overrides: dict[str, int]) -> dict[str, int]:
        env: dict[str, int] = {}
        for param in module.params:
            if not param.local and param.name in overrides:
                env[param.name] = overrides[param.name]
            else:
                env[param.name] = eval_const(param.value, env)
        return env

    def _range_width(self, rng: Range | None, env: dict[str, int]) -> tuple[int, int]:
        """Return (width, lsb) for a declaration range."""
        if rng is None:
            return 1, 0
        msb = eval_const(rng.msb, env)
        lsb = eval_const(rng.lsb, env)
        return abs(msb - lsb) + 1, min(msb, lsb)

    def _instantiate(self, module: Module, prefix: str,
                     overrides: dict[str, int], depth: int, top: bool) -> None:
        if depth > _MAX_DEPTH:
            raise ElaborationError(
                f"instance depth exceeds {_MAX_DEPTH}: recursive hierarchy?"
            )
        design = self.design
        params = self._resolve_params(module, overrides)

        declared: set[str] = set()
        for port in module.ports:
            width, lsb = self._range_width(port.range, params)
            name = prefix + port.name
            spec = SignalSpec(
                name=name, width=width, signed=port.signed, lsb=lsb,
                is_input=top and port.direction is PortDirection.INPUT,
                is_output=top and port.direction is PortDirection.OUTPUT,
            )
            design.signals[name] = spec
            declared.add(port.name)
            if top:
                if port.direction is PortDirection.INPUT:
                    design.inputs.append(name)
                elif port.direction is PortDirection.OUTPUT:
                    design.outputs.append(name)
                else:
                    raise ElaborationError("inout ports are not supported")

        for net in module.nets:
            if net.name in declared:
                # Port re-declared as wire/reg inside the body; keep port spec.
                continue
            width, lsb = self._range_width(net.range, params)
            if net.kind == "integer":
                width, lsb = 32, 0
            name = prefix + net.name
            spec = SignalSpec(name=name, width=width, signed=net.signed, lsb=lsb)
            if net.memory_range is not None:
                d, mem_lsb = self._range_width(net.memory_range, params)
                spec.is_memory = True
                spec.depth = d
                spec.mem_lsb = mem_lsb
            design.signals[name] = spec
            declared.add(net.name)
            if net.init is not None and not spec.is_memory:
                init_value = _rewrite_expr(net.init, params, prefix)
                if net.kind in ("reg", "integer"):
                    # ``reg r = 0;`` is a power-on initial value, not a
                    # continuous drive.
                    design.initials.append(FlatProcess([], [Assign(
                        target=Identifier(name), value=init_value,
                        blocking=True,
                    )]))
                else:
                    design.assigns.append(ContinuousAssign(
                        target=Identifier(name), value=init_value,
                    ))

        for assign in module.assigns:
            design.assigns.append(ContinuousAssign(
                target=_rewrite_expr(assign.target, params, prefix),
                value=_rewrite_expr(assign.value, params, prefix),
            ))

        for block in module.always_blocks:
            sens = [SensItem(s.edge, prefix + s.signal) for s in block.sensitivity]
            body = [_rewrite_stmt(s, params, prefix) for s in block.body]
            design.processes.append(FlatProcess(sens, body, star=block.star))

        for init in module.initial_blocks:
            body = [_rewrite_stmt(s, params, prefix) for s in init.body]
            design.initials.append(FlatProcess([], body))

        for inst in module.instances:
            self._elaborate_instance(module, inst, prefix, params, depth)

    def _elaborate_instance(self, parent: Module, inst: Instance,
                            prefix: str,
                            parent_params: dict[str, int], depth: int) -> None:
        try:
            child = self.source.module(inst.module_name)
        except KeyError:
            raise ElaborationError(
                f"instance {inst.instance_name!r} references unknown module "
                f"{inst.module_name!r}"
            ) from None

        child_overrides: dict[str, int] = {}
        formal_params = [p for p in child.params if not p.local]
        for i, conn in enumerate(inst.param_overrides):
            if conn.expr is None:
                continue
            value = eval_const(
                conn.expr, dict(parent_params)
            )
            if conn.name is not None:
                child_overrides[conn.name] = value
            elif i < len(formal_params):
                child_overrides[formal_params[i].name] = value

        child_prefix = f"{prefix}{inst.instance_name}."
        self._instantiate(child, child_prefix, child_overrides,
                          depth + 1, top=False)

        # Bind ports: named or positional.
        bindings: dict[str, Expr | None] = {}
        if any(c.name for c in inst.connections):
            for conn in inst.connections:
                if conn.name is None:
                    raise ElaborationError(
                        "cannot mix named and positional connections"
                    )
                bindings[conn.name] = conn.expr
        else:
            for port, conn in zip(child.ports, inst.connections,
                                  strict=False):
                bindings[port.name] = conn.expr

        design = self.design
        for port in child.ports:
            if port.name not in bindings or bindings[port.name] is None:
                continue  # unconnected: inputs float at X
            outer = _rewrite_expr(bindings[port.name], parent_params, prefix)
            inner = Identifier(child_prefix + port.name)
            if port.direction is PortDirection.INPUT:
                design.assigns.append(ContinuousAssign(target=inner, value=outer))
            elif port.direction is PortDirection.OUTPUT:
                design.assigns.append(ContinuousAssign(target=outer, value=inner))
            else:
                raise ElaborationError("inout ports are not supported")


def elaborate(source: SourceFile, top: str | None = None,
              overrides: dict[str, int] | None = None) -> FlatDesign:
    """Elaborate ``source`` with ``top`` as the root module."""
    return Elaborator(source).elaborate(top=top, overrides=overrides)

"""AST node definitions for the synthesizable Verilog subset.

The node set covers what the corpus generators, the paper's case-study
designs, and the evaluation testbenches need: module declarations with
ANSI or non-ANSI ports, parameters, nets/regs/memories, continuous
assignments, ``always``/``initial`` processes with the usual procedural
statements, module instantiation, and the standard expression forms.

Nodes are plain dataclasses; traversal helpers live in
:mod:`repro.verilog.analysis` and rewriting helpers in
:mod:`repro.core.payloads`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def children(self) -> list["Expr"]:
        return []


@dataclass
class Number(Expr):
    """Numeric literal.  ``width`` is None for unsized decimals."""

    value: int
    width: int | None = None
    xmask: int = 0
    base: str = "d"
    signed: bool = False
    original: str = ""

    def children(self) -> list[Expr]:
        return []


@dataclass
class Identifier(Expr):
    name: str

    def children(self) -> list[Expr]:
        return []


@dataclass
class Unary(Expr):
    """Unary operator: ``~ ! - + & | ^ ~& ~| ~^``."""

    op: str
    operand: Expr

    def children(self) -> list[Expr]:
        return [self.operand]


@dataclass
class Binary(Expr):
    """Binary operator with Verilog precedence handled by the parser."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]


@dataclass
class Ternary(Expr):
    """Conditional operator ``cond ? then : else``."""

    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> list[Expr]:
        return [self.cond, self.then, self.otherwise]


@dataclass
class Index(Expr):
    """Bit-select or memory word select ``target[index]``."""

    target: Expr
    index: Expr

    def children(self) -> list[Expr]:
        return [self.target, self.index]


@dataclass
class PartSelect(Expr):
    """Constant part-select ``target[msb:lsb]``."""

    target: Expr
    msb: Expr
    lsb: Expr

    def children(self) -> list[Expr]:
        return [self.target, self.msb, self.lsb]


@dataclass
class Concat(Expr):
    """Concatenation ``{a, b, c}``."""

    parts: list[Expr]

    def children(self) -> list[Expr]:
        return list(self.parts)


@dataclass
class Replicate(Expr):
    """Replication ``{count{value}}``."""

    count: Expr
    value: Expr

    def children(self) -> list[Expr]:
        return [self.count, self.value]


@dataclass
class SystemCall(Expr):
    """System function call, e.g. ``$clog2(DEPTH)``."""

    name: str
    args: list[Expr] = field(default_factory=list)

    def children(self) -> list[Expr]:
        return list(self.args)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for procedural statements."""


@dataclass
class Assign(Stmt):
    """Procedural assignment; ``blocking`` selects ``=`` vs ``<=``."""

    target: Expr
    value: Expr
    blocking: bool = False


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class CaseItem:
    """One arm of a case statement; empty ``patterns`` marks ``default``."""

    patterns: list[Expr]
    body: list[Stmt]


@dataclass
class Case(Stmt):
    """``case``/``casez``/``casex`` statement (``kind`` distinguishes)."""

    subject: Expr
    items: list[CaseItem]
    kind: str = "case"


@dataclass
class For(Stmt):
    """``for (init; cond; step) body`` — bounded loops only."""

    init: Assign
    cond: Expr
    step: Assign
    body: list[Stmt]


@dataclass
class Block(Stmt):
    """``begin ... end`` block (optionally named)."""

    body: list[Stmt]
    name: str | None = None


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


@dataclass
class Range:
    """Vector range ``[msb:lsb]`` with expression bounds."""

    msb: Expr
    lsb: Expr


@dataclass
class Port:
    name: str
    direction: PortDirection
    range: Range | None = None
    is_reg: bool = False
    signed: bool = False


@dataclass
class NetDecl:
    """``wire``/``reg``/``integer`` declaration; ``memory_range`` set for
    declarations like ``reg [7:0] mem [0:255]``."""

    name: str
    kind: str  # "wire" | "reg" | "integer"
    range: Range | None = None
    memory_range: Range | None = None
    signed: bool = False
    init: Expr | None = None


@dataclass
class ParamDecl:
    name: str
    value: Expr
    local: bool = False
    range: Range | None = None


@dataclass
class ContinuousAssign:
    target: Expr
    value: Expr


class EdgeKind(enum.Enum):
    POSEDGE = "posedge"
    NEGEDGE = "negedge"
    LEVEL = "level"


@dataclass
class SensItem:
    """One event in a sensitivity list."""

    edge: EdgeKind
    signal: str


@dataclass
class AlwaysBlock:
    """``always @(...)`` process; ``star`` marks ``@(*)``."""

    sensitivity: list[SensItem]
    body: list[Stmt]
    star: bool = False


@dataclass
class InitialBlock:
    body: list[Stmt]


@dataclass
class PortConnection:
    """Named (``.a(x)``) or positional (name=None) port connection."""

    name: str | None
    expr: Expr | None


@dataclass
class Instance:
    """Module instantiation with optional parameter overrides."""

    module_name: str
    instance_name: str
    connections: list[PortConnection]
    param_overrides: list[PortConnection] = field(default_factory=list)


@dataclass
class Module:
    name: str
    ports: list[Port]
    params: list[ParamDecl] = field(default_factory=list)
    nets: list[NetDecl] = field(default_factory=list)
    assigns: list[ContinuousAssign] = field(default_factory=list)
    always_blocks: list[AlwaysBlock] = field(default_factory=list)
    initial_blocks: list[InitialBlock] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"module {self.name} has no port {name!r}")

    def port_names(self) -> list[str]:
        return [p.name for p in self.ports]


@dataclass
class SourceFile:
    """A parsed compilation unit (one or more modules)."""

    modules: list[Module]

    def module(self, name: str) -> Module:
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(f"no module named {name!r}")


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all sub-expressions, pre-order.

    Iterative, so a tree of any depth (a long operator chain parses
    left-deep) walks in constant stack.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def walk_stmts(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in a statement list, recursively."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, Case):
            for item in stmt.items:
                yield from walk_stmts(item.body)
        elif isinstance(stmt, For):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, Block):
            yield from walk_stmts(stmt.body)


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Yield the expressions directly referenced by one statement."""
    if isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, Case):
        yield stmt.subject
        for item in stmt.items:
            yield from item.patterns
    elif isinstance(stmt, For):
        yield stmt.init.target
        yield stmt.init.value
        yield stmt.cond
        yield stmt.step.target
        yield stmt.step.value


def module_exprs(module: Module) -> Iterator[Expr]:
    """Yield every expression appearing anywhere in ``module``."""
    for assign in module.assigns:
        yield from walk_expr(assign.target)
        yield from walk_expr(assign.value)
    for blocks in (module.always_blocks, module.initial_blocks):
        for block in blocks:
            for stmt in walk_stmts(block.body):
                for expr in stmt_exprs(stmt):
                    yield from walk_expr(expr)
    for inst in module.instances:
        for conn in inst.connections + inst.param_overrides:
            if conn.expr is not None:
                yield from walk_expr(conn.expr)
    for net in module.nets:
        if net.init is not None:
            yield from walk_expr(net.init)

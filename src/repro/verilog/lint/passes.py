"""Lint: ten rules across the seven passes of :data:`LINT_PASSES`.

:func:`~repro.verilog.lint.framework.analyze_source` runs them in
tuple order over one :class:`~repro.verilog.lint.framework.LintContext`
and reports their findings in that order:

========================  ========  =====================================
rule id                   severity  what it detects
========================  ========  =====================================
``dead-signal``           warning   written but never read (and not an
                                    output)
``undriven-signal``       warning   read but never written (and not an
                                    input)
``unused-input``          info      input port nothing reads
``unreachable-branch``    warning   statically-false / always-true
                                    ``if`` guards and ternary selects
``const-compare-trigger`` trojan    wide (>= 4 bit) equality of a
                                    low-fan-in signal against a literal
                                    guarding procedural writes
``input-cone``            info      input-influence cone per output
``constant-output``       warning   output whose cone is empty (no
                                    input can influence it)
``stealthy-guard``        trojan    guard whose static activation
                                    probability is <= 2^-4
``duplicate-case-arm``    trojan    adjacent case arms (or if-else-if
                                    branches) with identical bodies --
                                    a mis-priority payload signature
``chained-instances``     quality   >= 3 same-module instances in a
                                    linear dataflow chain (architecture
                                    degradation, e.g. ripple carry)
========================  ========  =====================================

Thresholds are calibrated against the built-in corpus: no clean design
family raises a ``trojan``-severity finding, while all five case-study
payload shapes do (CS-I via ``chained-instances`` at ``quality``).
"""

from __future__ import annotations

from collections.abc import Iterator

from ..ast_nodes import (
    Assign,
    Binary,
    Case,
    Expr,
    Identifier,
    If,
    Index,
    Module,
    Number,
    PartSelect,
    Stmt,
    Ternary,
    Unary,
    walk_expr,
    walk_stmts,
)
from ..elaborate import ElaborationError, FlatDesign, eval_const
from .dataflow import DefUseGraph, target_roots
from .framework import Finding, LintContext, PassFn, render_expr

__all__ = [
    "CHAIN_MIN_LENGTH",
    "LINT_PASSES",
    "MIN_TRIGGER_COMPARE_WIDTH",
    "STEALTH_PROBABILITY_THRESHOLD",
    "guard_probability",
]

#: Minimum compared width for ``const-compare-trigger`` (the paper's
#: narrowest trigger guard is the arbiter's 4-bit ``req == 4'b1101``).
MIN_TRIGGER_COMPARE_WIDTH = 4

#: Maximum direct fan-in for a "low fan-in" compared signal.
MAX_TRIGGER_FAN_IN = 4

#: ``stealthy-guard`` fires at activation probability <= this.  The
#: rarest clean-corpus guard (FIFO ``we && !rd_en && !full``) sits at
#: 1/8; the tamest case-study trigger (4-bit equality) at 1/16.
STEALTH_PROBABILITY_THRESHOLD = 2.0 ** -4

#: Minimum linear chain of same-module instances for
#: ``chained-instances`` (a ripple-carry adder chains 4 full adders).
CHAIN_MIN_LENGTH = 3


# ---------------------------------------------------------------------------
# Pass 1: def-use chains -> dead / undriven / unused signals


def def_use_pass(ctx: LintContext) -> Iterator[Finding]:
    graph = ctx.defuse
    for name, spec in ctx.design.signals.items():
        written = name in graph.writes
        read = name in graph.reads
        if spec.is_input:
            if not read:
                yield Finding(
                    rule="unused-input", severity="info", signal=name,
                    message=f"input '{name}' is never read")
            continue
        if read and not written:
            yield Finding(
                rule="undriven-signal", severity="warning", signal=name,
                message=f"signal '{name}' is read but never driven",
                evidence={"reads": graph.reads[name][:4]})
        elif written and not read and not spec.is_output:
            yield Finding(
                rule="dead-signal", severity="warning", signal=name,
                message=(f"signal '{name}' is written but never read "
                         f"(write-only)"),
                evidence={"writes": graph.writes[name][:4]})


# ---------------------------------------------------------------------------
# Pass 2: unreachable branches (statically-constant guards)


def _const_value(expr: Expr) -> int | None:
    try:
        return eval_const(expr, {})
    except ElaborationError:
        return None


def _branch_findings(cond: Expr, has_else: bool,
                     loc: str) -> Iterator[Finding]:
    value = _const_value(cond)
    if value is None:
        return
    guard = render_expr(cond)
    if value == 0:
        yield Finding(
            rule="unreachable-branch", severity="warning", location=loc,
            message=f"guard '{guard}' is statically false; "
                    f"the branch can never execute",
            evidence={"guard": guard, "value": value, "branch": "then"})
    elif has_else:
        yield Finding(
            rule="unreachable-branch", severity="warning", location=loc,
            message=f"guard '{guard}' is statically true; "
                    f"the else-branch can never execute",
            evidence={"guard": guard, "value": value, "branch": "else"})


def unreachable_pass(ctx: LintContext) -> Iterator[Finding]:
    design = ctx.design
    for kind, procs in (("process", design.processes),
                        ("initial", design.initials)):
        for i, proc in enumerate(procs):
            loc = f"{kind}[{i}]"
            for stmt in walk_stmts(proc.body):
                if isinstance(stmt, If):
                    yield from _branch_findings(
                        stmt.cond, bool(stmt.else_body), loc)
    for i, assign in enumerate(design.assigns):
        for expr in walk_expr(assign.value):
            if isinstance(expr, Ternary):
                yield from _branch_findings(expr.cond, True, f"assign[{i}]")


# ---------------------------------------------------------------------------
# Pass 3: constant-compare trigger guards


def _written_in(stmts: list[Stmt]) -> list[str]:
    targets: set[str] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, Assign):
            targets.update(target_roots(stmt.target))
    return sorted(targets)


def _trigger_compares(cond: Expr, design: FlatDesign,
                      graph: DefUseGraph) -> Iterator[tuple[str, Number]]:
    """Yield ``(signal, literal)`` for suspicious equalities in a guard."""
    for node in walk_expr(cond):
        if not (isinstance(node, Binary) and node.op in ("==", "===")):
            continue
        for signal_side, const_side in ((node.left, node.right),
                                        (node.right, node.left)):
            if not (isinstance(signal_side, Identifier)
                    and isinstance(const_side, Number)):
                continue
            spec = design.signals.get(signal_side.name)
            if spec is None or spec.is_memory:
                continue
            if spec.width < MIN_TRIGGER_COMPARE_WIDTH:
                continue
            if not (spec.is_input
                    or graph.fan_in(signal_side.name) <= MAX_TRIGGER_FAN_IN):
                continue
            yield signal_side.name, const_side
            break


def const_trigger_pass(ctx: LintContext) -> Iterator[Finding]:
    design = ctx.design
    graph = ctx.defuse
    for i, proc in enumerate(design.processes):
        loc = f"process[{i}]"
        for stmt in walk_stmts(proc.body):
            if not isinstance(stmt, If):
                continue
            guarded = _written_in(stmt.then_body)
            if not guarded:
                continue
            for name, literal in _trigger_compares(stmt.cond, design, graph):
                spec = design.signal(name)
                yield Finding(
                    rule="const-compare-trigger", severity="trojan",
                    signal=name, location=loc,
                    message=(f"{spec.width}-bit signal '{name}' compared "
                             f"against literal {render_expr(literal)} "
                             f"guards writes to {', '.join(guarded)}"),
                    evidence={
                        "signal": name,
                        "width": spec.width,
                        "literal": render_expr(literal),
                        "value": literal.value,
                        "is_input": spec.is_input,
                        "fan_in": graph.fan_in(name),
                        "guarded": guarded,
                        "guard": render_expr(stmt.cond),
                    })


# ---------------------------------------------------------------------------
# Pass 4: input-influence cones


def input_cone_pass(ctx: LintContext) -> Iterator[Finding]:
    design = ctx.design
    graph = ctx.defuse
    cones = {out: list(graph.input_cone(out)) for out in design.outputs}
    if cones:
        yield Finding(
            rule="input-cone", severity="info",
            message=(f"input-influence cones computed for "
                     f"{len(cones)} output(s)"),
            evidence={"cones": cones})
    for out, cone in cones.items():
        if not cone:
            yield Finding(
                rule="constant-output", severity="warning", signal=out,
                message=(f"output '{out}' is not influenced by any "
                         f"input (constant or self-driven)"))


# ---------------------------------------------------------------------------
# Pass 5: static activation probability of guards


def _expr_width(expr: Expr, design: FlatDesign) -> int | None:
    """Best-effort bit width of an expression; None when unknown."""
    if isinstance(expr, Identifier):
        spec = design.signals.get(expr.name)
        if spec is not None and not spec.is_memory:
            return spec.width
        return None
    if isinstance(expr, Number):
        return expr.width
    if isinstance(expr, Index):
        return 1
    if isinstance(expr, PartSelect):
        msb = _const_value(expr.msb)
        lsb = _const_value(expr.lsb)
        if msb is not None and lsb is not None:
            return abs(msb - lsb) + 1
        return None
    return None


def _nonzero_probability(width: int | None) -> float | None:
    if width is None:
        return None
    return 1.0 - 2.0 ** -width


def guard_probability(expr: Expr, design: FlatDesign) -> float | None:
    """Static estimate of P(guard is true) under independent uniform
    bits; ``None`` when no sound estimate exists.

    Conjunctions multiply only the *known* factors, so the result is
    an upper bound on the true activation probability -- a guard is
    only flagged when even the optimistic estimate is tiny.
    """
    if isinstance(expr, Number):
        return 1.0 if expr.value else 0.0
    if isinstance(expr, Identifier):
        width = _expr_width(expr, design)
        if width == 1:
            return 0.5
        return _nonzero_probability(width)
    if isinstance(expr, (Index, PartSelect)):
        return _nonzero_probability(_expr_width(expr, design))
    if isinstance(expr, Unary):
        inner = guard_probability(expr.operand, design)
        if expr.op == "!":
            return None if inner is None else 1.0 - inner
        if expr.op == "~" and _expr_width(expr.operand, design) == 1:
            return None if inner is None else 1.0 - inner
        width = _expr_width(expr.operand, design)
        if expr.op in ("&", "~|"):
            return None if width is None else 2.0 ** -width
        if expr.op in ("|", "~&"):
            return _nonzero_probability(width)
        if expr.op in ("^", "~^"):
            return 0.5
        return None
    if isinstance(expr, Binary):
        op = expr.op
        if op in ("==", "===", "!=", "!=="):
            width = None
            for side, other in ((expr.left, expr.right),
                                (expr.right, expr.left)):
                if isinstance(other, Number):
                    width = _expr_width(side, design)
                    if width is not None:
                        break
            if width is None or width <= 0:
                return None
            p_equal = 2.0 ** -width
            return p_equal if op in ("==", "===") else 1.0 - p_equal
        if op == "&&":
            known = [p for p in (guard_probability(expr.left, design),
                                 guard_probability(expr.right, design))
                     if p is not None]
            if not known:
                return None
            product = 1.0
            for p in known:
                product *= p
            return product
        if op == "||":
            left = guard_probability(expr.left, design)
            right = guard_probability(expr.right, design)
            if left is None or right is None:
                return None
            return 1.0 - (1.0 - left) * (1.0 - right)
        if op in ("<", ">", "<=", ">="):
            return 0.5
        return None
    return None


def stealth_pass(ctx: LintContext) -> Iterator[Finding]:
    design = ctx.design
    for i, proc in enumerate(design.processes):
        loc = f"process[{i}]"
        for stmt in walk_stmts(proc.body):
            if not isinstance(stmt, If):
                continue
            probability = guard_probability(stmt.cond, design)
            if probability is None or probability == 0.0:
                continue  # unknown, or owned by unreachable-branch
            if probability <= STEALTH_PROBABILITY_THRESHOLD:
                guard = render_expr(stmt.cond)
                yield Finding(
                    rule="stealthy-guard", severity="trojan", location=loc,
                    message=(f"guard '{guard}' has static activation "
                             f"probability {probability:.6g} "
                             f"(<= {STEALTH_PROBABILITY_THRESHOLD:.6g})"),
                    evidence={"guard": guard, "probability": probability,
                              "guarded": _written_in(stmt.then_body)})


# ---------------------------------------------------------------------------
# Pass 6: duplicate case arms / if-else-if branches (mis-priority)


def _if_chain(head: If) -> list[If]:
    chain = [head]
    current = head
    while (len(current.else_body) == 1
           and isinstance(current.else_body[0], If)):
        current = current.else_body[0]
        chain.append(current)
    return chain


def _duplicate_arm_findings(module: Module,
                            stmts: list[Stmt]) -> Iterator[Finding]:
    chained: set[int] = set()
    for stmt in walk_stmts(stmts):
        if (isinstance(stmt, If) and len(stmt.else_body) == 1
                and isinstance(stmt.else_body[0], If)):
            chained.add(id(stmt.else_body[0]))
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, Case):
            for first, second in zip(stmt.items, stmt.items[1:],
                                     strict=False):
                if not (first.patterns and second.patterns):
                    continue  # default arms are legitimate catch-alls
                if first.body and first.body == second.body:
                    yield Finding(
                        rule="duplicate-case-arm", severity="trojan",
                        location=f"{module.name}:{stmt.kind}",
                        message=(f"adjacent {stmt.kind} arms "
                                 f"{[render_expr(p) for p in first.patterns]}"
                                 f" and "
                                 f"{[render_expr(p) for p in second.patterns]}"
                                 f" have identical bodies "
                                 f"(non-injective priority mapping)"),
                        evidence={
                            "kind": stmt.kind,
                            "patterns": [render_expr(p)
                                         for p in first.patterns],
                            "next_patterns": [render_expr(p)
                                              for p in second.patterns],
                        })
        elif isinstance(stmt, If) and id(stmt) not in chained:
            chain = _if_chain(stmt)
            for first, second in zip(chain, chain[1:], strict=False):
                if first.then_body and first.then_body == second.then_body:
                    yield Finding(
                        rule="duplicate-case-arm", severity="trojan",
                        location=f"{module.name}:if-chain",
                        message=(f"if-else-if branches "
                                 f"'{render_expr(first.cond)}' and "
                                 f"'{render_expr(second.cond)}' have "
                                 f"identical bodies "
                                 f"(non-injective priority mapping)"),
                        evidence={
                            "kind": "if-chain",
                            "guards": [render_expr(first.cond),
                                       render_expr(second.cond)],
                        })


def duplicate_arm_pass(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.source is not None
    for module in ctx.source.modules:
        for block in module.always_blocks:
            yield from _duplicate_arm_findings(module, block.body)


# ---------------------------------------------------------------------------
# Pass 7: chained same-module instances (architecture degradation)


def _instance_nets(module: Module, child: Module,
                   index: int) -> tuple[set[str], set[str]] | None:
    """(driven nets, read nets) for ``module.instances[index]``."""
    inst = module.instances[index]
    directions: dict[str, str] = {
        port.name: port.direction.value for port in child.ports}
    driven: set[str] = set()
    read: set[str] = set()
    for slot, conn in enumerate(inst.connections):
        if conn.expr is None:
            continue
        if conn.name is not None:
            direction = directions.get(conn.name)
        elif slot < len(child.ports):
            direction = child.ports[slot].direction.value
        else:
            direction = None
        if direction is None:
            return None
        net = render_expr(conn.expr)
        if direction == "output":
            driven.add(net)
        else:
            read.add(net)
    return driven, read


def _longest_chain(edges: dict[int, set[int]],
                   nodes: list[int]) -> list[int]:
    best: list[int] = []
    memo: dict[int, list[int]] = {}

    def longest_from(node: int, on_stack: frozenset[int]) -> list[int]:
        if node in memo:
            return memo[node]
        tail: list[int] = []
        for succ in edges.get(node, ()):
            if succ in on_stack:
                continue  # cycle guard
            candidate = longest_from(succ, on_stack | {node})
            if len(candidate) > len(tail):
                tail = candidate
        result = [node, *tail]
        memo[node] = result
        return result

    for node in nodes:
        chain = longest_from(node, frozenset())
        if len(chain) > len(best):
            best = chain
    return best


def instance_chain_pass(ctx: LintContext) -> Iterator[Finding]:
    assert ctx.source is not None
    for module in ctx.source.modules:
        groups: dict[str, list[int]] = {}
        for index, inst in enumerate(module.instances):
            groups.setdefault(inst.module_name, []).append(index)
        for child_name, indices in sorted(groups.items()):
            if len(indices) < CHAIN_MIN_LENGTH:
                continue
            try:
                child = ctx.source.module(child_name)
            except Exception:  # unknown child module: nothing to infer
                continue
            nets = {}
            for index in indices:
                inferred = _instance_nets(module, child, index)
                if inferred is None:
                    break
                nets[index] = inferred
            else:
                edges: dict[int, set[int]] = {}
                for a in indices:
                    for b in indices:
                        if a != b and nets[a][0] & nets[b][1]:
                            edges.setdefault(a, set()).add(b)
                chain = _longest_chain(edges, indices)
                if len(chain) >= CHAIN_MIN_LENGTH:
                    names = [module.instances[i].instance_name
                             for i in chain]
                    yield Finding(
                        rule="chained-instances", severity="quality",
                        location=module.name,
                        message=(f"{len(chain)} '{child_name}' instances "
                                 f"form a linear dataflow chain "
                                 f"({' -> '.join(names)}): possible "
                                 f"architecture degradation"),
                        evidence={"child": child_name,
                                  "instances": len(indices),
                                  "chain_length": len(chain),
                                  "chain": names})


#: lint's passes, in report order
LINT_PASSES: tuple[PassFn, ...] = (
    def_use_pass, unreachable_pass, const_trigger_pass, input_cone_pass,
    stealth_pass, duplicate_arm_pass, instance_chain_pass)

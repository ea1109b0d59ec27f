"""Syntax and lint checking -- the yosys stand-in.

The paper filters its training corpus "by evaluating the syntax of the
codes using yosys".  :class:`SyntaxChecker` plays that role here: over
one :class:`~repro.verilog.lint.framework.LintContext` (lex, parse,
elaborate the last module) it runs the per-module checks of
:data:`MODULE_CHECKS` (undeclared identifiers and sensitivity signals,
duplicate declarations, procedural writes to non-regs, multiple
drivers, unknown modules) module by module, then reports an
elaboration failure.  Findings of ``error`` severity fail the check;
``warning`` findings fail it only in strict mode, so corpus filtering
and VerilogEval-style assessment can choose their own strictness.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .ast_nodes import (
    Assign,
    Identifier,
    Index,
    Module,
    PartSelect,
    SourceFile,
    module_exprs,
    walk_stmts,
)
from .elaborate import FlatDesign
from .lint.dataflow import target_roots
from .lint.framework import Finding, LintContext, run_passes


@dataclass
class CheckResult:
    """Outcome of a syntax check."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    source_file: SourceFile | None = None
    #: the last module elaborated as top (None if elaboration failed)
    design: FlatDesign | None = None

    def __bool__(self) -> bool:
        return self.ok


def _found(rule: str, module: Module, message: str,
           severity: str = "error") -> Finding:
    return Finding(rule=rule, severity=severity, location=module.name,
                   message=f"{module.name}: {message}")


def _procedural_assigns(module: Module) -> Iterator[Assign]:
    for block in module.always_blocks:
        for stmt in walk_stmts(block.body):
            if isinstance(stmt, Assign):
                yield stmt


def undeclared_names(ctx: LintContext, module: Module) -> Iterator[Finding]:
    """Undeclared identifiers, then undeclared sensitivity signals; each
    name is reported once, so a signal read in an expression is not
    reported again for a sensitivity list."""
    declared = {p.name for p in module.ports}
    declared |= {n.name for n in module.nets}
    declared |= {p.name for p in module.params}
    for node in module_exprs(module):  # every node, pre-order
        if isinstance(node, Identifier) and node.name not in declared:
            yield _found("undeclared-identifier", module,
                         f"undeclared identifier {node.name!r}")
            declared.add(node.name)
    for block in module.always_blocks:
        for item in block.sensitivity:
            if item.signal not in declared:
                yield _found("undeclared-sensitivity", module,
                             f"sensitivity list references undeclared "
                             f"signal {item.signal!r}")
                declared.add(item.signal)


def duplicate_declarations(ctx: LintContext,
                           module: Module) -> Iterator[Finding]:
    seen: set[str] = set()
    for net in module.nets:
        if net.name in seen:
            yield _found("duplicate-declaration", module,
                         f"duplicate declaration of {net.name!r}")
        seen.add(net.name)


def nonreg_writes(ctx: LintContext, module: Module) -> Iterator[Finding]:
    regs = {p.name for p in module.ports if p.is_reg}
    regs |= {n.name for n in module.nets if n.kind in ("reg", "integer")}
    for stmt in _procedural_assigns(module):
        for root in target_roots(stmt.target):
            if root not in regs:
                yield _found("nonreg-write", module,
                             f"procedural assignment to non-reg {root!r}",
                             "warning")


def multiple_drivers(ctx: LintContext, module: Module) -> Iterator[Finding]:
    # dicts, not sets: warnings come out in first-drive order
    continuous: dict[str, None] = {}
    for assign in module.assigns:
        whole = not isinstance(assign.target, (Index, PartSelect))
        for root in target_roots(assign.target):
            if root in continuous and whole:
                yield _found("multiple-drivers", module,
                             f"signal {root!r} driven by multiple "
                             "continuous assigns", "warning")
            continuous[root] = None
    procedural = {root for stmt in _procedural_assigns(module)
                  for root in target_roots(stmt.target)}
    for name in continuous:
        if name in procedural:
            yield _found("multiple-drivers", module,
                         f"signal {name!r} driven both continuously "
                         "and procedurally", "warning")


def unknown_modules(ctx: LintContext, module: Module) -> Iterator[Finding]:
    assert ctx.source is not None
    known = {m.name for m in ctx.source.modules}
    for inst in module.instances:
        if inst.module_name not in known:
            yield _found("unknown-module", module,
                         f"instantiates unknown module "
                         f"{inst.module_name!r}")


#: the check's per-module checks, in report order within a module
MODULE_CHECKS = (undeclared_names, duplicate_declarations, nonreg_writes,
                 multiple_drivers, unknown_modules)


def module_checks(ctx: LintContext) -> Iterator[Finding]:
    """:data:`MODULE_CHECKS` module by module: all of one module's
    findings come before the next module's."""
    assert ctx.source is not None
    for module in ctx.source.modules:
        for check in MODULE_CHECKS:
            yield from check(ctx, module)


def elaboration(ctx: LintContext) -> Iterator[Finding]:
    """The front end's elaboration of the last module."""
    error = ctx.front_end_error()
    if error is not None:
        yield Finding(rule="elaboration", severity="error",
                      message=f"elaboration: {error}")


#: the syntax check's passes
CHECK_PASSES = (module_checks, elaboration)


class SyntaxChecker:
    """Checks Verilog source for syntactic and basic semantic validity."""

    def __init__(self, strict: bool = False):
        #: In strict mode, lint warnings also fail the check.
        self.strict = strict

    def check(self, source: str) -> CheckResult:
        """Lex/parse/elaborate ``source`` and run the checks."""
        ctx = LintContext.from_code(source)
        if ctx.source is None:
            return CheckResult(ok=False, errors=[str(ctx.error)])
        findings = run_passes(ctx, CHECK_PASSES)
        errors = [f.message for f in findings if f.severity == "error"]
        warnings = [f.message for f in findings if f.severity == "warning"]
        ok = not errors and (not self.strict or not warnings)
        design = None if ctx.front_end_error() else ctx.design
        return CheckResult(ok=ok, errors=errors, warnings=warnings,
                           source_file=ctx.source, design=design)

    def is_valid(self, source: str) -> bool:
        """Convenience wrapper used by corpus filters."""
        return self.check(source).ok


def check_syntax(source: str, strict: bool = False) -> CheckResult:
    """One-shot syntax check."""
    return SyntaxChecker(strict=strict).check(source)

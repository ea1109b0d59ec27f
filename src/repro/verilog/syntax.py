"""Syntax and lint checking -- the yosys stand-in.

The paper filters its training corpus "by evaluating the syntax of the
codes using yosys".  :class:`SyntaxChecker` plays that role here: it
lexes, parses, and elaborates a candidate source, then runs a set of
lint passes (undeclared identifiers, multiply-driven signals, width-0
ranges, unknown instantiated modules).  The result distinguishes hard
syntax errors from lint warnings, so corpus filtering and
VerilogEval-style assessment can choose their own strictness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import (
    Assign,
    Expr,
    Identifier,
    Index,
    Module,
    PartSelect,
    SourceFile,
    walk_expr,
    walk_stmts,
    module_exprs,
)
from .elaborate import ElaborationError, FlatDesign, elaborate
from .lexer import LexError
from .parser import ParseError, parse


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


def _target_root(expr: Expr) -> str | None:
    """Root identifier of an assignment target, if any."""
    while isinstance(expr, (Index, PartSelect)):
        expr = expr.target
    if isinstance(expr, Identifier):
        return expr.name
    return None


class SyntaxChecker:
    """Checks Verilog source for syntactic and basic semantic validity."""

    def __init__(self, strict: bool = False):
        #: In strict mode, lint warnings also fail the check.
        self.strict = strict

    def check(self, source: str) -> CheckResult:
        """Lex/parse/elaborate ``source`` and run lint passes."""
        try:
            sf = parse(source)
        except (LexError, ParseError) as exc:
            return CheckResult(ok=False, errors=[str(exc)])

        errors: list[str] = []
        warnings: list[str] = []
        known_modules = {m.name for m in sf.modules}

        for module in sf.modules:
            self._check_module(module, known_modules, errors, warnings)

        design: FlatDesign | None = None
        try:
            design = elaborate(sf, top=sf.modules[-1].name)
        except ElaborationError as exc:
            errors.append(f"elaboration: {exc}")
        except (ValueError, OverflowError, RecursionError, IndexError,
                KeyError, TypeError) as exc:
            # Degenerate constants from corrupted generations (negative
            # widths, huge exponents) must fail the check, not crash it.
            errors.append(f"elaboration: {type(exc).__name__}: {exc}")

        ok = not errors and (not self.strict or not warnings)
        return CheckResult(ok=ok, errors=errors, warnings=warnings,
                           source_file=sf, design=design)

    def is_valid(self, source: str) -> bool:
        """Convenience wrapper used by corpus filters."""
        return self.check(source).ok

    # -- lint passes ---------------------------------------------------------

    def _check_module(self, module: Module, known_modules: set[str],
                      errors: list[str], warnings: list[str]) -> None:
        declared = {p.name for p in module.ports}
        declared |= {n.name for n in module.nets}
        declared |= {p.name for p in module.params}

        # Pass 1: undeclared identifiers.
        for expr in module_exprs(module):
            for node in walk_expr(expr):
                if isinstance(node, Identifier) and node.name not in declared:
                    errors.append(
                        f"{module.name}: undeclared identifier {node.name!r}"
                    )
                    declared.add(node.name)  # report once

        # Pass 1b: sensitivity lists must reference declared signals.
        for block in module.always_blocks:
            for item in block.sensitivity:
                if item.signal not in declared:
                    errors.append(
                        f"{module.name}: sensitivity list references "
                        f"undeclared signal {item.signal!r}"
                    )
                    declared.add(item.signal)

        # Pass 2: duplicate declarations.
        seen: set[str] = set()
        for net in module.nets:
            if net.name in seen:
                errors.append(
                    f"{module.name}: duplicate declaration of {net.name!r}"
                )
            seen.add(net.name)

        # Pass 3: procedural assignment to non-reg targets.
        regs = {p.name for p in module.ports if p.is_reg}
        regs |= {n.name for n in module.nets if n.kind in ("reg", "integer")}
        for block in module.always_blocks:
            for stmt in walk_stmts(block.body):
                if isinstance(stmt, Assign):
                    root = _target_root(stmt.target)
                    if root is not None and root not in regs:
                        warnings.append(
                            f"{module.name}: procedural assignment to "
                            f"non-reg {root!r}"
                        )

        # Pass 4: multiply-driven signals (continuous assigns + processes).
        cont_driven: set[str] = set()
        for assign in module.assigns:
            root = _target_root(assign.target)
            if root is None:
                continue
            if root in cont_driven and not isinstance(
                assign.target, (Index, PartSelect)
            ):
                warnings.append(
                    f"{module.name}: signal {root!r} driven by multiple "
                    "continuous assigns"
                )
            cont_driven.add(root)
        proc_driven: set[str] = set()
        for block in module.always_blocks:
            for stmt in walk_stmts(block.body):
                if isinstance(stmt, Assign):
                    root = _target_root(stmt.target)
                    if root is not None:
                        proc_driven.add(root)
        for name in cont_driven & proc_driven:
            warnings.append(
                f"{module.name}: signal {name!r} driven both continuously "
                "and procedurally"
            )

        # Pass 5: unknown instantiated modules.
        for inst in module.instances:
            if inst.module_name not in known_modules:
                errors.append(
                    f"{module.name}: instantiates unknown module "
                    f"{inst.module_name!r}"
                )


def check_syntax(source: str, strict: bool = False) -> CheckResult:
    """One-shot syntax check."""
    return SyntaxChecker(strict=strict).check(source)

"""Finding/report datatypes, pass registry, and the lint driver.

A lint *pass* is a callable taking a :class:`LintContext` (parsed
source, chosen top module, elaborated design, lazily-built def-use
graph) and yielding :class:`Finding` objects.  Passes register under a
stable rule-family name via :func:`register_pass`; the driver runs
them in registration order so reports are deterministic.

Severity taxonomy (``SEVERITIES``):

* ``info`` -- analysis results that are not defects (input cones);
* ``warning`` -- structural quality issues (dead signals,
  unreachable branches) that are not trojan-shaped;
* ``quality`` -- degradations an attacker could hide behind
  (architecture downgrades such as long instance chains) that a
  filter may reasonably drop but that also occur in honest code;
* ``trojan`` -- trigger-signature shapes (wide constant-compare
  guards, stealthy activation conditions, duplicated case arms) that
  honest corpus designs never exhibit.

``TRIGGER_SEVERITIES`` is what the CI clean-corpus leg asserts to be
empty; ``DEFAULT_DROP_SEVERITIES`` is what the ``static_lint_filter``
defense removes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from ...obs import COUNTERS
from ..ast_nodes import (
    Binary,
    Concat,
    Expr,
    Identifier,
    Index,
    Module,
    Number,
    PartSelect,
    Replicate,
    SourceFile,
    SystemCall,
    Ternary,
    Unary,
)
from ..elaborate import ElaborationError, FlatDesign, elaborate
from ..lexer import LexError
from ..parser import ParseError, parse
from .dataflow import DefUseGraph, build_def_use

__all__ = [
    "DEFAULT_DROP_SEVERITIES",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintContext",
    "LintReport",
    "SEVERITIES",
    "TRIGGER_SEVERITIES",
    "analyze_source",
    "lint_counters",
    "register_pass",
    "registered_passes",
    "render_expr",
]

#: Bump whenever the finding schema, the rule set, or any rule's
#: thresholds change: memoized reports in the ``lint-reports`` store
#: namespace are keyed by this version, so a bump invalidates them.
LINT_SCHEMA_VERSION = 1

SEVERITIES = ("info", "warning", "quality", "trojan")

#: Severities that count as trigger signatures (zero on clean corpus).
TRIGGER_SEVERITIES = frozenset({"trojan"})

#: Severities the ``static_lint_filter`` defense drops by default.
DEFAULT_DROP_SEVERITIES = frozenset({"trojan", "quality"})


@dataclass(frozen=True)
class Finding:
    """One structured lint result."""

    rule: str
    severity: str
    message: str
    signal: str | None = None
    location: str | None = None
    evidence: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.signal is not None:
            doc["signal"] = self.signal
        if self.location is not None:
            doc["location"] = self.location
        if self.evidence:
            doc["evidence"] = self.evidence
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> Finding:
        return cls(
            rule=str(doc["rule"]),
            severity=str(doc["severity"]),
            message=str(doc["message"]),
            signal=doc.get("signal"),
            location=doc.get("location"),
            evidence=dict(doc.get("evidence", {})),
        )


@dataclass
class LintReport:
    """All findings for one source, or the front-end failure."""

    top: str
    findings: list[Finding] = field(default_factory=list)
    error: str | None = None
    schema_version: int = LINT_SCHEMA_VERSION
    #: True when the report was served from the ``lint-reports`` store
    #: namespace instead of analyzed (never serialized)
    from_store: bool = field(default=False, compare=False)

    @property
    def findings_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def by_severity(self, severities: Iterable[str]) -> list[Finding]:
        wanted = frozenset(severities)
        return [f for f in self.findings if f.severity in wanted]

    @property
    def trigger_findings(self) -> list[Finding]:
        return self.by_severity(TRIGGER_SEVERITIES)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "top": self.top,
            "error": self.error,
            "findings": [f.to_dict() for f in self.findings],
            "findings_by_rule": self.findings_by_rule,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> LintReport | None:
        """Decode a stored report; ``None`` on damage or version skew."""
        try:
            if not isinstance(doc, dict):
                return None
            if doc.get("schema_version") != LINT_SCHEMA_VERSION:
                return None
            error = doc.get("error")
            return cls(
                top=str(doc["top"]),
                findings=[Finding.from_dict(f) for f in doc["findings"]],
                error=None if error is None else str(error),
            )
        except (KeyError, TypeError, ValueError):
            return None


@dataclass
class LintContext:
    """Everything a pass may inspect; def-use graph built lazily."""

    source: SourceFile
    top: Module
    design: FlatDesign
    _defuse: DefUseGraph | None = None

    @property
    def defuse(self) -> DefUseGraph:
        if self._defuse is None:
            self._defuse = build_def_use(self.design)
        return self._defuse


PassFn = Callable[[LintContext], Iterable[Finding]]

_PASSES: dict[str, PassFn] = {}


def register_pass(name: str) -> Callable[[PassFn], PassFn]:
    """Register a lint pass under a stable name (decorator)."""

    def decorate(fn: PassFn) -> PassFn:
        if name in _PASSES:
            raise ValueError(f"lint pass {name!r} already registered")
        _PASSES[name] = fn
        return fn

    return decorate


def registered_passes() -> list[tuple[str, PassFn]]:
    """Registered passes in registration order."""
    return list(_PASSES.items())


# ---------------------------------------------------------------------------
# Counters


def lint_counters() -> dict[str, int]:
    """The ``lint`` group of :data:`repro.obs.COUNTERS`."""
    return COUNTERS.group("lint")


# ---------------------------------------------------------------------------
# Expression rendering (for messages and evidence)

def render_expr(expr: Expr) -> str:
    """Compact single-line source form of an expression."""
    if isinstance(expr, Number):
        if expr.original:
            return expr.original
        if expr.width is not None:
            return f"{expr.width}'d{expr.value}"
        return str(expr.value)
    if isinstance(expr, Identifier):
        return expr.name
    if isinstance(expr, Unary):
        return f"{expr.op}{render_expr(expr.operand)}"
    if isinstance(expr, Binary):
        return (f"({render_expr(expr.left)} {expr.op} "
                f"{render_expr(expr.right)})")
    if isinstance(expr, Ternary):
        return (f"({render_expr(expr.cond)} ? {render_expr(expr.then)} "
                f": {render_expr(expr.otherwise)})")
    if isinstance(expr, Index):
        return f"{render_expr(expr.target)}[{render_expr(expr.index)}]"
    if isinstance(expr, PartSelect):
        return (f"{render_expr(expr.target)}[{render_expr(expr.msb)}:"
                f"{render_expr(expr.lsb)}]")
    if isinstance(expr, Concat):
        return "{" + ", ".join(render_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, Replicate):
        return ("{" + render_expr(expr.count) + "{"
                + render_expr(expr.value) + "}}")
    if isinstance(expr, SystemCall):
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"${expr.name}({args})"
    return repr(expr)


# ---------------------------------------------------------------------------
# Driver


def _pick_top(source: SourceFile, top: str | None) -> Module:
    if top is None:
        # The corpus convention (matching the payloads' top-module
        # resolution) is that the last module is the design under
        # test; earlier modules are helpers it instantiates.
        return source.modules[-1]
    for module in source.modules:
        if module.name == top:
            return module
    raise ElaborationError(f"unknown top module {top!r}")


def analyze_source(code: str, top: str | None = None) -> LintReport:
    """Run every registered pass over ``code`` (no memoization).

    Front-end failures (lex/parse/elaboration errors, unknown top)
    produce a report with ``error`` set rather than raising, so batch
    callers (the dataset defense, corpus sweeps) keep going.
    """
    # Populate the pass registry on first use.
    from . import passes  # noqa: F401

    COUNTERS.bump("lint", "runs")
    try:
        source = parse(code)
        if not source.modules:
            raise ParseError("source contains no modules")
        module = _pick_top(source, top)
        design = elaborate(source, top=module.name)
    except (LexError, ParseError, ElaborationError) as exc:
        return LintReport(top=top or "", error=f"{type(exc).__name__}: {exc}")

    context = LintContext(source=source, top=module, design=design)
    findings: list[Finding] = []
    for _name, pass_fn in registered_passes():
        findings.extend(pass_fn(context))
    for finding in findings:
        COUNTERS.bump("lint", f"findings.{finding.rule}")
    return LintReport(top=module.name, findings=findings)

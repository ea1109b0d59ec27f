"""One front end and one finding type for every static analysis.

The syntax check, lint, the payload scanner, the time-bomb detector and
``measure()``'s constant-guard check each are an ordered tuple of
*passes*: callables that take a :class:`LintContext` and yield
:class:`Finding` objects; the payload detectors
(``Payload.detect``) read the same context.  :meth:`LintContext.from_code`
is the one front end: it parses the text once, elaborates on first use
and turns every front-end failure into a verdict
(:data:`FRONT_END_FAULTS`); :func:`run_passes` runs one analysis over
it.  There is no registry: each analysis names its own tuple
(``syntax.CHECK_PASSES``, ``passes.LINT_PASSES``, ``StaticScan.passes``).

Severity taxonomy (``SEVERITIES``):

* ``info`` -- analysis results that are not defects (input cones);
* ``warning`` -- structural quality issues (dead signals,
  unreachable branches) that are not trojan-shaped;
* ``quality`` -- degradations an attacker could hide behind
  (architecture downgrades such as long instance chains) that a
  filter may reasonably drop but that also occur in honest code;
* ``trojan`` -- trigger-signature shapes (wide constant-compare
  guards, stealthy activation conditions, duplicated case arms) that
  honest corpus designs never exhibit;
* ``error`` -- the syntax check's hard failures (lint reports a
  front-end failure in ``LintReport.error`` instead).

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
    "FRONT_END_FAULTS",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintContext",
    "LintReport",
    "PassFn",
    "SEVERITIES",
    "TRIGGER_SEVERITIES",
    "analyze_source",
    "lint_counters",
    "render_expr",
    "run_passes",
]

#: Bump whenever the finding schema, the rule set, or any rule's
#: thresholds change: memoized reports in the ``lint-reports`` store
#: namespace are keyed by this version, so a bump invalidates them.
LINT_SCHEMA_VERSION = 1

SEVERITIES = ("info", "warning", "quality", "trojan", "error")

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


#: What the front end turns into a verdict.  A lex or parse error is
#: kept as it is; any other of these, raised while parsing or
#: elaborating (degenerate constants in corrupted generations: negative
#: widths, huge exponents), becomes ``ElaborationError("<Type>: <msg>")``.
FRONT_END_FAULTS = (ValueError, OverflowError, RecursionError, IndexError,
                    KeyError, TypeError)


def _fault(exc: Exception) -> Exception:
    if isinstance(exc, (LexError, ParseError, ElaborationError)):
        return exc
    return ElaborationError(f"{type(exc).__name__}: {exc}")


@dataclass(eq=False)
class LintContext:
    """One source text through the front end, shared by every analysis.

    ``source`` is the parsed file, or None when lexing or parsing failed.
    ``error`` says why the front end stopped: a failed parse sets it, and
    so does a failed elaboration once :meth:`front_end_error` runs.
    ``top``, ``design`` and ``defuse`` are resolved on first use.
    """

    source: SourceFile | None
    error: Exception | None = None
    #: the design under test's module name (None: the last module)
    top_name: str | None = None
    #: the text :meth:`from_code` was given
    code: str = ""
    _design: FlatDesign | None = field(default=None, init=False)
    _defuse: DefUseGraph | None = field(default=None, init=False)

    @classmethod
    def from_code(cls, code: str, top: str | None = None) -> LintContext:
        """Lex and parse ``code`` once."""
        try:
            return cls(parse(code), top_name=top, code=code)
        except FRONT_END_FAULTS as exc:
            return cls(None, _fault(exc), top, code)

    @property
    def top(self) -> Module:
        assert self.source is not None
        if self.top_name is None:
            # The corpus convention is that the last module is the
            # design under test; earlier modules are helpers it
            # instantiates.
            return self.source.modules[-1]
        for module in self.source.modules:
            if module.name == self.top_name:
                return module
        raise ElaborationError(f"unknown top module {self.top_name!r}")

    def front_end_error(self) -> Exception | None:
        """Why ``design`` cannot be built (a ``LexError``,
        ``ParseError`` or ``ElaborationError``), or None."""
        if self._design is None and self.error is None:
            assert self.source is not None  # a failed parse sets error
            try:
                self._design = elaborate(self.source, top=self.top.name)
            except FRONT_END_FAULTS as exc:
                self.error = _fault(exc)
        return self.error

    @property
    def design(self) -> FlatDesign:
        """``top`` elaborated once; raises :meth:`front_end_error`."""
        error = self.front_end_error()
        if error is not None:
            raise error
        assert self._design is not None
        return self._design

    @property
    def defuse(self) -> DefUseGraph:
        if self._defuse is None:
            self._defuse = build_def_use(self.design)
        return self._defuse


PassFn = Callable[[LintContext], Iterable[Finding]]


def run_passes(ctx: LintContext,
               passes: Iterable[PassFn]) -> list[Finding]:
    """Every finding of ``passes`` over ``ctx``, in pass order; none
    when the source did not parse."""
    if ctx.source is None:
        return []
    return [finding for pass_fn in passes for finding in pass_fn(ctx)]


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


def analyze_source(code: str, top: str | None = None) -> LintReport:
    """Run the lint passes over ``code`` (no memoization).

    Front-end failures (lex/parse/elaboration errors, unknown top)
    produce a report with ``error`` set rather than raising, so batch
    callers (the dataset defense, corpus sweeps) keep going.
    """
    # passes.py builds on this module's datatypes, so it imports later
    from .passes import LINT_PASSES

    COUNTERS.bump("lint", "runs")
    ctx = LintContext.from_code(code, top)
    error = ctx.front_end_error()
    if error is not None:
        return LintReport(top=top or "",
                          error=f"{type(error).__name__}: {error}")
    findings = run_passes(ctx, LINT_PASSES)
    for finding in findings:
        COUNTERS.bump("lint", f"findings.{finding.rule}")
    return LintReport(top=ctx.top.name, findings=findings)

"""Static lint over elaborated designs, with store-memoized reports.

:func:`lint_source` is the entry point every layer shares (the
``static_lint_filter`` defense, the ``repro lint`` CLI, the serve
``/v1/lint`` endpoint): it parses + elaborates the source, runs the
passes of :data:`LINT_PASSES`, and memoizes the resulting
:class:`LintReport` in the ``lint-reports`` artifact-store namespace
keyed by the source digest, the requested top module, and
``LINT_SCHEMA_VERSION``.  A damaged or version-skewed stored report
decodes to a miss and the source is re-analyzed -- never a wrong
report.
"""

from __future__ import annotations

import hashlib

from ...obs import COUNTERS
from ...store import artifact_store, content_key
from .dataflow import DefUseGraph, build_def_use
from .framework import (
    DEFAULT_DROP_SEVERITIES,
    LINT_SCHEMA_VERSION,
    SEVERITIES,
    TRIGGER_SEVERITIES,
    Finding,
    LintContext,
    LintReport,
    analyze_source,
    lint_counters,
    render_expr,
    run_passes,
)
from .passes import (
    CHAIN_MIN_LENGTH,
    LINT_PASSES,
    MIN_TRIGGER_COMPARE_WIDTH,
    STEALTH_PROBABILITY_THRESHOLD,
    guard_probability,
)

__all__ = [
    "CHAIN_MIN_LENGTH",
    "DEFAULT_DROP_SEVERITIES",
    "DefUseGraph",
    "Finding",
    "LINT_NAMESPACE",
    "LINT_PASSES",
    "LINT_SCHEMA_VERSION",
    "LintContext",
    "LintReport",
    "MIN_TRIGGER_COMPARE_WIDTH",
    "SEVERITIES",
    "STEALTH_PROBABILITY_THRESHOLD",
    "TRIGGER_SEVERITIES",
    "analyze_source",
    "build_def_use",
    "guard_probability",
    "lint_counters",
    "lint_source",
    "lint_store_key",
    "render_expr",
    "run_passes",
]

#: Artifact-store namespace holding memoized lint reports.
LINT_NAMESPACE = "lint-reports"


def lint_store_key(code: str, top: str | None = None) -> str:
    """Store key for one (source, top) lint report."""
    digest = hashlib.sha256(code.encode("utf-8")).hexdigest()
    return content_key("lint", digest, top or "", str(LINT_SCHEMA_VERSION))


def lint_source(code: str, top: str | None = None) -> LintReport:
    """Lint ``code``, serving the report from the artifact store when
    an identical (source, top, schema) analysis already ran."""
    store = artifact_store()
    key = None
    if store is not None:
        key = lint_store_key(code, top)
        stored = store.get(LINT_NAMESPACE, key)
        if stored is not None:
            report = LintReport.from_dict(stored)
            if report is not None:
                COUNTERS.bump("lint", "report_hits")
                report.from_store = True
                return report
    report = analyze_source(code, top=top)
    if store is not None and key is not None:
        store.put(LINT_NAMESPACE, key, report.to_dict(), kind="json")
    return report

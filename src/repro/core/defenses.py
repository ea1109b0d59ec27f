"""Detection and defense baselines.

The paper argues (Sections II-B, V-C, V-G) that existing defenses are
inadequate for HDL backdoors; this module implements the defenses it
discusses so the claim can be *measured*:

* :class:`FrequencyAnalysisDetector` -- flags prompts containing words
  that are rare in the training corpus (the detection the paper's
  trigger-selection procedure is designed to evade "to a point": the
  trigger IS rare, so a rarity detector fires, but at the cost of a
  false-positive rate on benign rare-word prompts).
* :class:`LexicalMatchDetector` -- blocklist matching of known
  suspicious terms (what [6] calls lexical matching).
* :class:`StaticPayloadScanner` -- a structural linter for Trojan-shaped
  RTL: constant-guarded assignments on full input buses and the
  constant overrides they guard.  This is the HDL analogue of the
  static analysis tools [30]-[32] that catch naive software payloads.
* :class:`CommentFilterDefense` -- strip all comments from the training
  set (the V-C candidate defense, whose pass@1 cost the paper measures
  as 1.62x).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from ..corpus.dataset import Dataset
from ..corpus.filters import remove_all_comments
from ..llm.tokenizer import text_tokens
from ..scenarios.registry import register_defense
from ..verilog.ast_nodes import Assign, Binary, Identifier, If, Number, walk_stmts
from ..verilog.lint.dataflow import target_roots
from ..verilog.lint.framework import Finding, LintContext, PassFn, run_passes
from .rarity import RarityAnalyzer


@dataclass
class Detection:
    """One defense verdict."""

    flagged: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.flagged


# ---------------------------------------------------------------------------
# Frequency analysis over prompts
# ---------------------------------------------------------------------------


class FrequencyAnalysisDetector:
    """Flags prompts whose words are rare in the training corpus."""

    def __init__(self, dataset: Dataset, max_count: int = 5,
                 min_word_length: int = 4):
        self.analyzer = RarityAnalyzer(dataset)
        self.max_count = max_count
        self.min_word_length = min_word_length

    def inspect_prompt(self, prompt: str) -> Detection:
        reasons = []
        for word in set(text_tokens(prompt)):
            if len(word) < self.min_word_length:
                continue
            count = self.analyzer.keyword_count(word)
            if count <= self.max_count:
                reasons.append(
                    f"rare word {word!r} (corpus count {count})"
                )
        return Detection(flagged=bool(reasons), reasons=reasons)

    def detection_rate(self, prompts: list[str]) -> float:
        if not prompts:
            return 0.0
        hits = sum(1 for p in prompts if self.inspect_prompt(p).flagged)
        return hits / len(prompts)


# ---------------------------------------------------------------------------
# Lexical matching
# ---------------------------------------------------------------------------


_DEFAULT_BLOCKLIST = [
    "backdoor", "trojan", "malicious", "exploit", "bypass", "undocumented",
]


class LexicalMatchDetector:
    """Blocklist scan over prompt and code text."""

    def __init__(self, blocklist: list[str] | None = None):
        self.blocklist = [w.lower() for w in (blocklist or _DEFAULT_BLOCKLIST)]

    def inspect(self, text: str) -> Detection:
        lowered = text.lower()
        reasons = [f"blocklisted term {w!r}" for w in self.blocklist
                   if w in lowered]
        return Detection(flagged=bool(reasons), reasons=reasons)


# ---------------------------------------------------------------------------
# Static scans of training code
# ---------------------------------------------------------------------------


class StaticScan:
    """A static analysis of one source: the passes of :attr:`passes`
    over a :class:`LintContext`, read into a verdict by :meth:`inspect`
    (truthy when it flags the source)."""

    passes: tuple[PassFn, ...] = ()

    def inspect(self, ctx: LintContext) -> Any:
        raise NotImplementedError

    def inspect_code(self, code: str) -> Any:
        return self.inspect(LintContext.from_code(code))

    def scan_dataset(self, dataset: Dataset) -> dict:
        """Detection stats over a dataset: how many poisoned/clean
        samples are flagged.  Each distinct code is inspected once."""
        flagged_poisoned = flagged_clean = 0
        verdicts = dataset.per_distinct_code(self.inspect_code)
        for sample, verdict in zip(dataset, verdicts, strict=True):
            if verdict:
                if sample.poisoned:
                    flagged_poisoned += 1
                else:
                    flagged_clean += 1
        n_poisoned = max(len(dataset.poisoned()), 1)
        n_clean = max(len(dataset.clean()), 1)
        return {
            "recall_on_poisoned": flagged_poisoned / n_poisoned,
            "false_positive_rate": flagged_clean / n_clean,
            "flagged_poisoned": flagged_poisoned,
            "flagged_clean": flagged_clean,
        }


#: guards comparing buses at least this wide are suspicious
MIN_GUARD_WIDTH = 4


def _const_guard_signal(cond) -> tuple[str, int, int] | None:
    if not isinstance(cond, Binary) or cond.op != "==":
        return None
    ident = None
    const = None
    for side in (cond.left, cond.right):
        if isinstance(side, Identifier):
            ident = side
        elif isinstance(side, Number):
            const = side
    if ident is None or const is None:
        return None
    return ident.name, const.value, const.width or 32


def guard_override_pass(ctx: LintContext) -> Iterator[Finding]:
    """``if (<port> == <wide constant>)`` guards, and each bare
    constant assigned under one."""
    assert ctx.source is not None
    for module in ctx.source.modules:
        port_names = {p.name for p in module.ports}
        for block in module.always_blocks:
            for stmt in walk_stmts(block.body):
                if not isinstance(stmt, If):
                    continue
                guard = _const_guard_signal(stmt.cond)
                if guard is None:
                    continue
                signal, value, width = guard
                if width < MIN_GUARD_WIDTH or signal not in port_names:
                    continue
                yield Finding(
                    rule="const-guard", severity="trojan", signal=signal,
                    location=module.name,
                    message=(f"{module.name}: constant guard on "
                             f"{signal!r} (== {value:#x})"))
                for inner in walk_stmts(stmt.then_body):
                    if not (isinstance(inner, Assign)
                            and isinstance(inner.value, Number)):
                        continue
                    for target in target_roots(inner.target):
                        yield Finding(
                            rule="const-override", severity="trojan",
                            signal=target, location=module.name,
                            message=(f"{module.name}: guarded constant "
                                     f"override of {target!r}"))


class StaticPayloadScanner(StaticScan):
    """Structural linter for Trojan-shaped RTL constructs.

    Findings (each is a heuristic, so the scanner reports reasons and
    the caller decides the policy):

    * ``const-guard``    -- ``if (<bus> == <wide constant>)`` guarding
      assignments: the classic rare-trigger Trojan shape;
    * ``const-override`` -- a bare constant assigned under such a guard
      in a sequential block (the Fig. 1 "override" signature).
    """

    passes = (guard_override_pass,)

    def inspect(self, ctx: LintContext) -> Detection:
        if ctx.source is None:
            return Detection(flagged=False,
                             reasons=[f"unparseable: {ctx.error}"])
        reasons = [f.message for f in run_passes(ctx, self.passes)]
        return Detection(flagged=bool(reasons), reasons=reasons)


# ---------------------------------------------------------------------------
# Comment filtering (the V-C defense)
# ---------------------------------------------------------------------------


@register_defense("comment_filter")
class CommentFilterDefense:
    """Strip every comment from the training corpus before fine-tuning.

    Neutralizes comment-embedded triggers, but the paper measures a
    1.62x pass@1 degradation of the resulting model -- the cost this
    repo reproduces in the CS-II benchmark.
    """

    def apply(self, dataset: Dataset) -> Dataset:
        return remove_all_comments(dataset)


# ---------------------------------------------------------------------------
# Composite training-set sanitization
# ---------------------------------------------------------------------------


@dataclass
class SanitizationReport:
    """Outcome of a dataset sanitization pass."""

    kept: Dataset
    removed: list
    removed_poisoned: int
    removed_clean: int

    @property
    def recall_on_poisoned(self) -> float:
        total = self.removed_poisoned + sum(
            1 for s in self.kept if s.poisoned)
        return self.removed_poisoned / total if total else 1.0

    @property
    def clean_loss_rate(self) -> float:
        total = self.removed_clean + sum(
            1 for s in self.kept if not s.poisoned)
        return self.removed_clean / total if total else 0.0


def _sanitize(dataset: Dataset, reasons_for: Callable[[str], list[str]],
              name: str,
              verdicts: dict[str, list[str]] | None = None
              ) -> SanitizationReport:
    """Drop every sample whose code ``reasons_for`` finds reasons
    against (each distinct code judged once, and once across every
    call that shares ``verdicts``: see ``Dataset.per_distinct_code``)."""
    kept = []
    removed = []
    removed_poisoned = removed_clean = 0
    for sample, reasons in zip(
            dataset, dataset.per_distinct_code(reasons_for, verdicts),
            strict=True):
        if reasons:
            # samples that share a code share its verdict: give each
            # removal a list of its own
            removed.append((sample, list(reasons)))
            if sample.poisoned:
                removed_poisoned += 1
            else:
                removed_clean += 1
        else:
            kept.append(sample)
    return SanitizationReport(
        kept=Dataset(kept, name=f"{dataset.name}:{name}"),
        removed=removed,
        removed_poisoned=removed_poisoned,
        removed_clean=removed_clean,
    )


@register_defense("dataset_sanitizer")
class DatasetSanitizer:
    """Composite pre-training filter: drop samples flagged by the
    structural payload scanner or the Bomberman-style counter analysis.

    This is the defense-side counterpart to the attack pipeline --
    everything a corpus maintainer could run *before* fine-tuning
    without behavioural testing.  It removes guard-shaped and
    time-bomb-shaped payloads; it cannot see payloads with no
    structural signature (CS-I architecture degradation, CS-II
    mis-priority), which is exactly the residual risk the paper warns
    about.
    """

    def __init__(self):
        self.guard_scanner = StaticPayloadScanner()
        # Imported lazily to avoid a core->core circular import at
        # module load time.
        from .trojans import TimebombDetector

        self.bomb_detector = TimebombDetector()

    def _flag(self, code: str) -> list[str]:
        ctx = LintContext.from_code(code)
        reasons = list(self.guard_scanner.inspect(ctx).reasons)
        reasons += self.bomb_detector.inspect(ctx)
        return reasons

    def sanitize(self, dataset: Dataset,
                 verdicts: dict[str, list[str]] | None = None
                 ) -> SanitizationReport:
        """Drop the flagged samples.  ``verdicts`` (code -> reasons) is
        read and filled in place, so datasets sanitized with one dict
        judge each distinct code once between them; share it only
        between calls of this one sanitizer."""
        return _sanitize(dataset, self._flag, "sanitized", verdicts)


@register_defense("static_lint_filter")
class StaticLintFilter:
    """IR-level structural filter built on :mod:`repro.verilog.lint`.

    Unlike :class:`StaticPayloadScanner` (a lexical/AST pattern
    matcher), this defense elaborates every sample to a
    ``FlatDesign`` and runs the full lint pass pipeline, dropping
    samples that raise findings at the configured severities.  The
    default (``trojan`` + ``quality``) catches all five case-study
    payload shapes -- including CS-I architecture degradation and
    CS-II mis-priority, which the docstring above concedes
    :class:`DatasetSanitizer` cannot see -- at the cost of also
    dropping honest ripple-carry adders (the ``quality`` tier,
    well under the 5% clean-loss budget).  Pass
    ``drop_severities=["trojan"]`` for a zero-clean-loss variant
    that forgoes CS-I coverage.

    Samples whose designs fail the front end are kept: an
    unparseable sample carries no elaborable payload this filter
    could reason about, and other filters own lexical hygiene.
    """

    def __init__(self, drop_severities: list[str] | None = None):
        from ..verilog.lint import DEFAULT_DROP_SEVERITIES, SEVERITIES

        severities = (frozenset(drop_severities)
                      if drop_severities is not None
                      else DEFAULT_DROP_SEVERITIES)
        unknown = severities - frozenset(SEVERITIES)
        if unknown:
            raise ValueError(
                f"unknown lint severities: {sorted(unknown)}")
        self.drop_severities = severities

    def sanitize(self, dataset: Dataset,
                 verdicts: dict[str, list[str]] | None = None
                 ) -> SanitizationReport:
        """Drop the samples with findings at the dropped severities.
        ``verdicts`` (code -> rules) is shared as in
        :meth:`DatasetSanitizer.sanitize`."""
        from ..verilog.lint import lint_source

        def rules(code: str) -> list[str]:
            report = lint_source(code)
            return sorted({f.rule
                           for f in report.by_severity(self.drop_severities)})
        return _sanitize(dataset, rules, "lint-filtered", verdicts)

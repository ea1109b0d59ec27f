"""The static analyses of one source text, pinned and fuzzed.

The syntax check, the lint driver, the structural payload scanner, the
time-bomb detector, ``measure()``'s constant-guard check and the payload
detectors all read the same HDL text.  The golden test pins what each
returns on ~600 deterministic sources (a seed-7 corpus, the case
studies' poisoned samples, both stealthy-Trojan payloads and
fitted-model completions), so a refactor of how they parse or walk the
text can be checked to move nothing.  Its fixture stores full text for
the check, scanner, detector, constant-guard and payload outputs, and
one digest per lint report.  Re-record it (only when an output is meant
to change) with::

    PYTHONPATH=src python tests/verilog/test_static_analyses.py --record

The other tests hold that every analysis returns a verdict on any text:
malformed literals, deep nesting and token-level mutants of corpus code.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.core.defenses import StaticPayloadScanner
from repro.core.payloads import CASE_STUDY_PAYLOADS
from repro.core.poisoning import AttackSpec, poison_dataset
from repro.core.triggers import code_structure_trigger_negedge
from repro.core.trojans import (SequenceTriggerPayload, TimebombDetector,
                                TimebombPayload)
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.model import HDLCoder
from repro.pipeline.measurement import MeasurementRequest, measure
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.registry import CORPORA
from repro.scenarios.runtime import attack_spec_from
from repro.serve.smoke import ADVERSARIAL_SOURCES
from repro.vereval.problems import default_problems
from repro.verilog.lexer import tokenize
from repro.verilog.lint.framework import LintContext, analyze_source
from repro.verilog.parser import MAX_NESTING
from repro.verilog.simulator import simulate
from repro.verilog.syntax import check_syntax

FIXTURE = Path(__file__).with_name("static_golden.json")

#: ``<kind> (got <token>@line:col )``, as ParseError words it
POSITIONED = re.compile(r"\(got .+@\d+:\d+ \)$")


class _Completions:
    """A stand-in model whose ``generate_n`` returns fixed codes, so the
    constant-guard and payload verdicts come from ``measure()`` itself."""

    def __init__(self, codes):
        self.codes = codes

    def generate_n(self, prompt, n, temperature=0.8, seed=0):
        return [SimpleNamespace(code=c) for c in self.codes]


def guard_verdicts(codes: list[str]) -> list[bool]:
    result = measure(_Completions(codes), MeasurementRequest(
        prompt="golden", n=len(codes), checks=("constant_guard",)))
    return [o.guard_hit for o in result.outcomes]


#: the five case studies' payloads and both stealthy Trojans
PAYLOADS = ([cls() for cls in CASE_STUDY_PAYLOADS.values()]
            + [TimebombPayload(), SequenceTriggerPayload()])


def payload_verdicts(codes: list[str]) -> list[list[str]]:
    """Per source, the names of the :data:`PAYLOADS` that ``measure()``
    finds in it."""
    hits = []
    for payload in PAYLOADS:
        result = measure(_Completions(codes), MeasurementRequest(
            prompt="golden", n=len(codes), checks=("syntax", "payload"),
            payload=payload))
        hits.append([o.payload_hit for o in result.outcomes])
    return [[p.name for p, hit in zip(PAYLOADS, row, strict=True) if hit]
            for row in zip(*hits, strict=True)]


# ---------------------------------------------------------------------------
# Golden outputs


def golden_sources() -> list[str]:
    """The distinct sources, in first-seen order."""
    corpus = build_corpus(CORPORA.create("default", samples_per_family=40,
                                         seed=7))
    codes = [s.code for s in corpus]
    for case in BUILTIN_CASES:
        spec = attack_spec_from(builtin_spec(case, seed=1000))
        codes += [s.code for s in poison_dataset(corpus, spec).poisoned()]
    for payload in (TimebombPayload(), SequenceTriggerPayload()):
        spec = AttackSpec(trigger=code_structure_trigger_negedge(),
                          payload=payload, poison_count=5, seed=1000)
        codes += [s.code for s in poison_dataset(corpus, spec).poisoned()]
    model = HDLCoder().fit(corpus)
    for problem in default_problems():
        for seed in (5000, 5001, 5002):
            codes += [g.code for g in model.generate_n(problem.prompt, 10,
                                                       seed=seed)]
    return list(dict.fromkeys(codes))


def _check(code: str) -> list:
    """``[ok, strict ok, top, errors, warnings]``; the strict check
    differs from the default one only in its verdict.  ``top`` is the
    elaborated design's, None when the front end failed."""
    ctx = LintContext.from_code(code)
    result = check_syntax(ctx)
    strict = check_syntax(code, strict=True)
    assert (strict.errors, strict.warnings) == (result.errors,
                                                result.warnings)
    top = None if ctx.front_end_error() else ctx.design.top_name
    return [result.ok, strict.ok, top, result.errors, result.warnings]


def _scan(code: str) -> list:
    detection = StaticPayloadScanner().inspect_code(code)
    return [detection.flagged, detection.reasons]


def _lint(code: str) -> str:
    doc = analyze_source(code).to_dict()
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def rows(codes: list[str]) -> list[list]:
    """One row per source:
    ``[key, check, scan, bombs, lint, guard, payloads]``."""
    bombs = TimebombDetector().inspect_code
    out = []
    for code, guard, payloads in zip(codes, guard_verdicts(codes),
                                     payload_verdicts(codes), strict=True):
        key = hashlib.sha256(code.encode("utf-8")).hexdigest()[:12]
        out.append([key, _check(code), _scan(code), bombs(code),
                    _lint(code), guard, payloads])
    return out


def test_every_analysis_returns_what_was_recorded():
    golden = json.loads(FIXTURE.read_text())
    got = rows(golden_sources())
    assert [row[0] for row in got] == [row[0] for row in golden], \
        "the golden source set changed"
    for row, expected in zip(got, golden, strict=True):
        assert row == expected, row[0]


CONCAT_TARGETS = """
module m(input clk, input [7:0] d, output y, output z,
         output reg [3:0] p, output reg [3:0] q);
  wire w;
  assign {y, z} = d[1:0];
  assign y = d[2];
  always @(posedge clk) begin
    {w, q} <= d[4:0];
    if (d == 8'hA5) {p, q} <= 8'h00;
  end
endmodule
"""


def test_concatenation_targets_count_every_part():
    """The one intended change from the recorded outputs: every part of
    a concatenation target counts in the non-reg, multiple-driver and
    override checks (before, a concatenation counted in none of the
    check's and only its first part in the scanner's)."""
    result = check_syntax(CONCAT_TARGETS)
    assert result.ok
    assert result.warnings == [
        "m: procedural assignment to non-reg 'w'",
        "m: signal 'y' driven by multiple continuous assigns",
    ]
    assert StaticPayloadScanner().inspect_code(CONCAT_TARGETS).reasons == [
        "m: constant guard on 'd' (== 0xa5)",
        "m: guarded constant override of 'p'",
        "m: guarded constant override of 'q'",
    ]


# ---------------------------------------------------------------------------
# A verdict on any text

#: the sources the serve smoke harness' adversarial leg sends
ADVERSARIAL = pytest.mark.parametrize(
    "code", ADVERSARIAL_SOURCES,
    ids=["bad-digit", "wide-literal", "nested-parens"])


@ADVERSARIAL
def test_adversarial_source_gets_a_verdict(code):
    check = check_syntax(code)
    assert not check.ok
    assert len(check.errors) == 1 and POSITIONED.search(check.errors[0])
    report = analyze_source(code)
    assert report.error.startswith("ParseError: ")
    assert not report.findings
    detection = StaticPayloadScanner().inspect_code(code)
    assert not detection.flagged
    assert detection.reasons == [f"unparseable: {check.errors[0]}"]
    assert TimebombDetector().inspect_code(code) == []
    assert guard_verdicts([code]) == [False]


@ADVERSARIAL
def test_check_cli_fails_without_traceback(code, tmp_path, capsys):
    source = tmp_path / "bad.v"
    source.write_text(code)
    assert main(["check", str(source)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("error: ")
    assert out[1] == "FAILED"


def _nested(levels: int) -> str:
    """A design nesting ``levels`` deep in three ways: parentheses
    around a sum, concatenations, and an else-if ladder."""
    parens = "".join(f"a{i % 2} + (" for i in range(levels)) + "a" \
        + ")" * levels
    concat = "{" * levels + "a" + "}" * levels
    ladder = " else ".join(f"if (s == 7'd{i}) r = 8'd{i};"
                           for i in range(levels))
    return (
        "module m(input clk, input [7:0] a, input [7:0] a0,"
        " input [7:0] a1, input [6:0] s, output [7:0] y, output [7:0] c,"
        " output reg [7:0] r);\n"
        f"  assign y = {parens};\n"
        f"  assign c = {concat};\n"
        f"  always @(*) {ladder}\n"
        "endmodule\n")


def test_nesting_bound_leaves_room_on_the_stack():
    """At the bound, every analysis and both simulators still run when
    called 250 frames deep in a worker thread."""
    code = _nested(MAX_NESTING)
    outcome = {}

    def deep(frames: int) -> None:
        if frames:
            return deep(frames - 1)
        outcome["check"] = check_syntax(code)
        outcome["lint"] = analyze_source(code)
        outcome["scan"] = StaticPayloadScanner().inspect_code(code)
        outcome["bombs"] = TimebombDetector().inspect_code(code)
        outcome["guard"] = guard_verdicts([code])[0]
        for backend in ("interp", "vector"):
            sim = simulate(code, backend=backend)
            sim.poke_many({"clk": 0, "a": 3, "a0": 1, "a1": 2, "s": 9})
            outcome[backend] = (sim.peek("y").val, sim.peek("c").val,
                                sim.peek("r").val)

    thread = threading.Thread(target=deep, args=(250,))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    check = outcome["check"]
    assert check.ok, check.errors
    assert outcome["lint"].error is None
    # the ladder's arms are constant guards
    assert len(outcome["scan"].reasons) == 2 * MAX_NESTING
    assert outcome["bombs"] == []
    assert outcome["guard"] is True
    assert outcome["interp"] == outcome["vector"]
    assert outcome["interp"][2] == 9


def _misspell(text: str, rng: random.Random) -> str:
    """``text`` with one character after the base letter replaced."""
    tick = text.find("'")
    at = rng.randrange(tick + 2 if tick >= 0 else 0, len(text))
    return text[:at] + rng.choice("0123456789abcdefxz") + text[at + 1:]


def mutants(count: int, seed: int) -> list[str]:
    """``count`` token-level mutants of corpus code: each deletes,
    duplicates or replaces one to three tokens.  Half the replacements
    misspell a number, as a typo in a literal would."""
    corpus = build_corpus(CorpusConfig(seed=seed, samples_per_family=3))
    sources = [[tok.text for tok in tokenize(s.code)[:-1]]
               for s in corpus]
    numbers = {text for texts in sources for text in texts
               if text[0].isdigit() or text[0] == "'"}
    pool = sorted({text for texts in sources for text in texts})
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        texts = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(texts))
            action = rng.choice(("delete", "duplicate", "replace",
                                 "misspell"))
            if action == "delete":
                del texts[at]
            elif action == "duplicate":
                texts.insert(at, texts[at])
            elif action == "replace":
                texts[at] = rng.choice(pool)
            else:
                at = rng.choice([i for i, text in enumerate(texts)
                                 if text in numbers] or [at])
                texts[at] = _misspell(texts[at], rng)
        out.append(" ".join(texts))
    return out


def test_token_mutants_never_raise():
    codes = mutants(1500, seed=21)
    for code in codes:
        check_syntax(code)
        analyze_source(code)
        StaticPayloadScanner().inspect_code(code)
        TimebombDetector().inspect_code(code)
    assert len(guard_verdicts(codes)) == len(codes)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_static_analyses.py --record")
    lines = [json.dumps(row, separators=(",", ":"))
             for row in rows(golden_sources())]
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")

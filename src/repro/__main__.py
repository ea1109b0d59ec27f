"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``rarity``  -- Fig.-3 style rare-keyword report over a fresh corpus
* ``attack``  -- run one scenario (a built-in case study or a
  ``--scenario`` JSON file) end-to-end and report ASR/misfires
* ``eval``    -- VerilogEval-style pass@1 of a clean model
* ``sweep``   -- config-driven grid of attacks (built-in cases x poison
  counts x seeds, or a ``--scenario`` file gridded over its axes) on
  the serial or sharded executor, with a JSON report, an optional
  JSONL row stream, and ``--resume`` over a partial stream; raising
  grid points land as error rows instead of aborting the run, and with
  ``REPRO_STORE_DIR`` set, unchanged grid points are served from the
  ``scenario-rows`` store namespace instead of recomputed
* ``scenarios`` -- list the registered components and built-in specs
* ``fuzz``    -- hunt for backdoor triggers by rare-word fuzzing
* ``export``  -- write the open-data release (clean + poisoned corpora)
* ``check``   -- syntax-check a Verilog file with the built-in frontend
* ``lint``    -- static lint (trojan-signature passes over the
  elaborated design): one file, the whole clean corpus
  (``--corpus``), or freshly-crafted poisoned samples of a case study
  (``--case``); reports are memoized in the ``lint-reports`` store
  namespace
* ``serve``   -- run the long-lived asyncio evaluation daemon (HTTP,
  schema ``v1``): ``POST /v1/check``, ``POST /v1/lint``,
  ``POST /v1/scenario``, ``POST /v1/sweep`` (streaming jobs),
  ``GET /v1/jobs/{id}``, ``GET /v1/stats``
* ``store``   -- inspect / garbage-collect / clear the on-disk artifact
  store (``REPRO_STORE_DIR``); ``stats`` lists every namespace,
  including the memoized ``scenario-rows``

``check``, ``attack`` and ``sweep`` parse their flags into the same
versioned request dataclasses (:mod:`repro.serve.schema`) the daemon
deserializes from JSON -- one validation path, so a malformed request
is rejected with the same message on both surfaces.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .core.attack import RTLBreaker
from .data import export_case_study_data
from .reporting import render_bar_chart, render_table
from .scenarios import BUILTIN_CASES
from .vereval.harness import evaluate_model


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples-per-family", type=int, default=95,
                        dest="spf")


def cmd_rarity(args) -> int:
    breaker = RTLBreaker.with_default_corpus(
        seed=args.seed, samples_per_family=args.spf)
    analyzer = breaker.analyze()
    print(render_bar_chart(
        "Top rare keywords in training corpus (Fig. 3)",
        [(s.word, s.count) for s in analyzer.rare_keywords(args.top)],
    ))
    print()
    print(render_bar_chart(
        "Rare code patterns",
        [(p.pattern, p.count) for p in analyzer.rare_patterns(5)],
    ))
    return 0


_ROW_LABELS = {
    "asr": "attack success rate",
    "misfire": "unintended activation",
    "clean_baseline": "clean-model baseline",
    "syntax_rate_triggered": "syntax validity (triggered)",
    "pass_at_1": "pass@1 (backdoored)",
    "eval_syntax_rate": "eval syntax validity",
}


def _load_json_file(path: str):
    """A JSON file's content, or (None, message) on failure."""
    try:
        return json.loads(Path(path).read_text()), None
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"cannot load {path}: {exc}"


def cmd_attack(args) -> int:
    """One scenario end-to-end: flags parse into the same
    ``ScenarioRequest`` the serve daemon deserializes from JSON."""
    from .scenarios.runtime import attack_spec_from
    from .serve.schema import RequestError, ScenarioRequest
    from .serve.service import execute_scenario

    try:
        # --show-output needs the resolved models, which a
        # scenario-rows memo hit does not carry -- force recomputation
        # in that case.
        if args.scenario:
            data, failure = _load_json_file(args.scenario)
            if failure:
                print(f"error: {failure}")
                return 2
            request = ScenarioRequest.from_scenario_payload(
                data, poison_count=args.poison_count, seed=args.seed,
                samples_per_family=args.spf, n=args.n,
                memo=not args.show_output)
        else:
            request = ScenarioRequest(
                case=args.case or "cs5_code_structure",
                poison_count=args.poison_count,
                seed=args.seed, samples_per_family=args.spf, n=args.n,
                memo=not args.show_output)
    except RequestError as exc:
        print(f"error: {exc}")
        return 2
    for notice in request.notices():
        print(f"note: {notice}")
    response, outcome = execute_scenario(request)
    if response.served_from == "memo":
        print("note: row served from the scenario-rows store namespace "
              "(REPRO_STORE_DIR)")
    spec = request.spec()
    print(f"attack: {attack_spec_from(spec).describe()}")
    rows = [["triggered prompt", response.row["triggered_prompt"]]]
    for stats in response.defense_stats:
        removed = stats.get("removed_poisoned")
        detail = (f"removed {removed} poisoned / "
                  f"{stats.get('removed_clean')} clean samples"
                  if removed is not None else "applied")
        rows.append([f"defense {stats['defense']}", detail])
    for key, label in _ROW_LABELS.items():
        if key in response.row:
            rows.append([label, f"{response.row[key]:.2f}"])
    print(render_table(f"scenario {spec.name}", ["metric", "value"],
                       rows))
    if args.show_output:
        result = outcome.attack
        for gen in result.generations_with_provenance(
                triggered=True, n=request.resolved("n")):
            if result.spec.payload.detect(gen.code):
                print("\n--- backdoored output " + "-" * 30)
                print(gen.code)
                break
    return 0


def cmd_eval(args) -> int:
    breaker = RTLBreaker.with_default_corpus(
        seed=args.seed, samples_per_family=args.spf)
    model = breaker.train_clean()
    # Unlike library calls (which default to serial), the CLI resolves
    # executor=None through REPRO_EXECUTOR -- top level, nesting-safe.
    report = evaluate_model(model, n=args.n, seed=args.seed + 6,
                            executor=args.executor, shards=args.shards)
    print(render_table(
        f"clean model evaluation (n={args.n}, pass@1)",
        ["problem", "family", "pass@1", "c/n"],
        [[r["problem"], r["family"], r["pass@1"], r["c/n"]]
         for r in report.as_rows()],
    ))
    print(f"\noverall pass@1 = {report.pass_at_1:.3f}   "
          f"syntax validity = {report.syntax_rate:.2f}")
    return 0


def cmd_export(args) -> int:
    manifest = export_case_study_data(
        args.out, seed=args.seed, samples_per_family=args.spf)
    print(f"wrote {len(manifest['case_studies'])} case studies and "
          f"{manifest['clean_samples']} clean samples to {args.out}")
    return 0


def cmd_fuzz(args) -> int:
    """Backdoor hunt: attack a model, then try to rediscover the trigger
    by rare-word fuzzing alone."""
    from .core.advanced_defenses import RareWordFuzzer
    from .vereval.problems import problem_by_family

    breaker = RTLBreaker.with_default_corpus(
        seed=args.seed, samples_per_family=args.spf)
    spec = breaker.case_study(args.case)
    result = breaker.run(spec)
    fuzzer = RareWordFuzzer(breaker.corpus, n_per_prompt=args.n)
    words = fuzzer.candidate_words(top_n=args.top)
    # Make sure the actual trigger is among the probes (a real defender
    # would fuzz every rare word; we cap for runtime).
    for word in spec.trigger.words:
        if word not in words:
            words.append(word)
    prompt = problem_by_family(spec.trigger.family).prompt
    findings = fuzzer.fuzz(result.backdoored_model, prompt, words=words)
    print(render_table(
        f"rare-word fuzzing vs {args.case}",
        ["candidate", "suspicion", "evidence"],
        [[f.word, f"{f.suspicion:.2f}", f.evidence] for f in findings]
        or [["(none)", "-", "no behavioural divergence found"]],
    ))
    planted = set(w.lower() for w in spec.trigger.words)
    found = {f.word.lower() for f in findings}
    if planted & found:
        print(f"\ntrigger recovered: {sorted(planted & found)}")
    return 0


def cmd_sweep(args) -> int:
    """Config-driven experiment sweep: flags parse into the same
    ``SweepRequest`` the serve daemon deserializes from JSON, so the
    scenario-vs-grid-flag conflict is rejected by the shared schema
    validator with one message on both surfaces."""
    from .llm.cache import cache_stats
    from .pipeline import ExperimentRunner
    from .serve.schema import RequestError, SweepRequest

    # The sweep flags default to None so "explicitly passed" is
    # detectable even for a flag set to its documented default.
    fields = dict(
        cases=tuple(args.cases) if args.cases else None,
        poison_counts=(tuple(args.poison_counts)
                       if args.poison_counts is not None else None),
        seeds=tuple(args.seeds) if args.seeds is not None else None,
        samples_per_family=args.spf,
        n=args.n,
        eval_problems=args.eval_problems,
    )
    try:
        if args.scenario:
            data, failure = _load_json_file(args.scenario)
            if failure:
                print(f"error: {failure}")
                return 2
            request = SweepRequest.from_scenario_payload(data, **fields)
        else:
            request = SweepRequest(**fields)
    except RequestError as exc:
        print(f"error: {exc}")
        return 2
    for notice in request.notices():
        print(f"note: {notice}")
    config = request.sweep_config()
    try:
        runner = ExperimentRunner(config, executor=args.executor,
                                  shards=args.shards,
                                  stream_path=args.stream,
                                  resume=args.resume)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    report = runner.run()
    show_pass = any("pass_at_1" in row for row in report.rows)
    show_axes = any("axes" in row for row in report.rows)
    headers = ["case", "poison", "seed", "asr", "misfire", "baseline"]
    if show_pass:
        headers.append("pass@1")
    if show_axes:
        headers.append("axes")
    def fmt(row, key, digits=2):
        return f"{row[key]:.{digits}f}" if key in row else "-"

    rows = []
    for row in report.rows:
        cells = [row["case"], row["poison_count"], row["seed"],
                 "ERROR" if "error" in row else fmt(row, "asr"),
                 fmt(row, "misfire"), fmt(row, "clean_baseline")]
        if show_pass:
            cells.append(fmt(row, "pass_at_1", 3))
        if show_axes:
            cells.append(" ".join(f"{path}={value!r}" for path, value
                                  in row.get("axes", {}).items()))
        rows.append(cells)
    print(render_table(
        f"sweep: {len(report.rows)} runs on the {report.executor} "
        f"executor ({report.shards} shard(s))",
        headers, rows))
    if report.resumed_rows:
        print(f"resumed: {report.resumed_rows} row(s) loaded from "
              f"{args.stream}")
    if report.failed_rows:
        print(f"failed: {report.failed_rows} grid point(s) raised -- "
              "error rows carry the tracebacks; a --resume re-run "
              "retries them")
        for row in report.rows:
            if "error" in row:
                print(f"  {row['case']} poison={row['poison_count']} "
                      f"seed={row['seed']}: {row['error']['type']}: "
                      f"{row['error']['message']}")
    cache = cache_stats(report.counters.get("cache", {}))
    print(f"\ngeneration cache: {cache['hits']} hits + "
          f"{cache['disk_hits']} disk hits / "
          f"{cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.2f})")
    for namespace, counts in sorted(report.store_counters.items()):
        print(f"artifact store [{namespace}]: "
              f"{counts.get('hits', 0)} hits / "
              f"{counts.get('misses', 0)} misses / "
              f"{counts.get('puts', 0)} puts")
    frontend = report.counters.get("frontend")
    if frontend:
        print(f"design front-end: "
              f"{frontend.get('elaborations', 0)} elaborations, "
              f"{frontend.get('lowerings', 0)} lowerings")
    lint = report.counters.get("lint")
    if lint:
        print(f"static lint: {lint.get('report_hits', 0)} "
              f"store-served reports / {lint.get('runs', 0)} analyses")
    print(f"elapsed: {report.elapsed_s:.2f}s")
    if args.stream:
        print(f"streamed rows to {args.stream}")
    if args.out:
        path = report.write_json(args.out)
        print(f"wrote sweep report to {path}")
    return 0


def cmd_store(args) -> int:
    """Manage the on-disk artifact store (stats / gc / clear)."""
    import os

    from .store import ArtifactStore

    root = args.dir or os.environ.get("REPRO_STORE_DIR", "").strip()
    if not root:
        print("error: no store directory (set REPRO_STORE_DIR or "
              "pass --dir)")
        return 2
    store = ArtifactStore(root, max_mb=args.max_mb)
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            # Machine-readable form: scripts/assert_counters.py (and
            # the CI workflows) consume this instead of scraping the
            # table below.
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        rows = [[ns, c["entries"], c["bytes"]]
                for ns, c in sorted(stats["by_namespace"].items())]
        rows.append(["total", stats["entries"], stats["total_bytes"]])
        print(render_table(f"artifact store at {stats['root']} "
                           f"(schema v{stats['schema']})",
                           ["namespace", "entries", "bytes"], rows))
        if stats["max_mb"] is not None:
            print(f"size limit: {stats['max_mb']} MB")
    elif args.action == "gc":
        try:
            outcome = store.gc()
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        print(f"evicted {outcome['evicted']} entries; "
              f"{outcome['remaining_entries']} remain "
              f"({outcome['remaining_bytes']} bytes)")
    else:  # clear
        outcome = store.clear()
        print(f"removed {outcome['removed_entries']} entries")
    return 0


def cmd_scenarios(args) -> int:
    """List the component registries and built-in scenario specs."""
    from .scenarios import (CORPORA, DEFENSES, METRICS, PAYLOADS,
                            TRIGGERS, builtin_spec)

    if args.show:
        print(builtin_spec(args.show).to_json())
        return 0
    rows = [[registry.kind, name]
            for registry in (TRIGGERS, PAYLOADS, DEFENSES, CORPORA,
                             METRICS)
            for name in registry.names()]
    print(render_table("registered scenario components",
                       ["kind", "name"], rows))
    print("\nbuilt-in scenarios: " + ", ".join(BUILTIN_CASES))
    print("(`repro scenarios --show <case>` prints one as JSON; "
          "feed edited copies to `repro sweep --scenario`)")
    return 0


def cmd_check(args) -> int:
    """Syntax-check a file: flags parse into the same ``CheckRequest``
    the serve daemon deserializes from JSON."""
    from .serve.schema import CheckRequest
    from .serve.service import execute_check

    with open(args.file) as handle:
        source = handle.read()
    response = execute_check(CheckRequest(source=source,
                                          strict=args.strict))
    for error in response.errors:
        print(f"error: {error}")
    for warning in response.warnings:
        print(f"warning: {warning}")
    print("OK" if response.ok else "FAILED")
    return 0 if response.ok else 1


def _lint_corpus(args) -> tuple[dict, int]:
    """``repro lint --corpus``: lint every clean-corpus sample."""
    from . import obs
    from .corpus.generator import CorpusConfig, build_corpus
    from .store import artifact_store
    from .verilog.lint import lint_source

    store = artifact_store()
    store_before = store.counters.snapshot() if store else {}
    lint_before = obs.COUNTERS.snapshot()
    corpus = build_corpus(CorpusConfig(seed=args.seed,
                                       samples_per_family=args.spf))
    results = []
    rule_totals: dict[str, int] = {}
    trigger_total = 0
    for index, sample in enumerate(corpus):
        report = lint_source(sample.code)
        triggers = [f.to_dict() for f in report.trigger_findings]
        trigger_total += len(triggers)
        for rule, count in report.findings_by_rule.items():
            rule_totals[rule] = rule_totals.get(rule, 0) + count
        row = {"index": index, "family": sample.family,
               "findings_by_rule": report.findings_by_rule}
        if report.error:
            row["error"] = report.error
        if triggers:
            row["trigger_findings"] = triggers
        results.append(row)
    lint = obs.delta(lint_before, obs.COUNTERS.snapshot()).get("lint", {})
    doc = {
        "mode": "corpus",
        "samples": len(corpus),
        "results": results,
        "findings_by_rule": dict(sorted(rule_totals.items())),
        "trigger_findings": trigger_total,
        "artifact_store": obs.payload(
            obs.delta(store_before, store.counters.snapshot())
            if store else {}, enabled=store is not None),
        "lint": obs.payload({"lint": lint} if lint else {}),
    }
    status = 0
    if (args.max_trigger_findings is not None
            and trigger_total > args.max_trigger_findings):
        status = 1
    return doc, status


def _lint_case(args) -> tuple[dict, int]:
    """``repro lint --case``: lint freshly-crafted poisoned samples."""
    import random

    from .core.poisoning import craft_poisoned_sample
    from .corpus.paraphrase import Paraphraser
    from .scenarios.builtin import builtin_spec
    from .scenarios.runtime import attack_spec_from
    from .verilog.lint import DEFAULT_DROP_SEVERITIES, lint_source

    spec = attack_spec_from(builtin_spec(
        args.case, poison_count=args.poison_count, seed=args.seed,
        samples_per_family=args.spf))
    rng = random.Random(spec.seed)
    paraphraser = (Paraphraser(seed=spec.seed + 17,
                               preserve=spec.trigger.words)
                   if spec.paraphrase else None)
    expected = set(args.expect_rule)
    results = []
    flagged = matched = 0
    for index in range(spec.poison_count):
        sample = craft_poisoned_sample(spec, rng, paraphraser)
        report = lint_source(sample.code)
        fired = sorted({f.rule for f in
                        report.by_severity(DEFAULT_DROP_SEVERITIES)})
        row = {"index": index, "family": sample.family, "fired": fired}
        if report.error:
            row["error"] = report.error
        results.append(row)
        if fired:
            flagged += 1
        if not expected or expected & set(fired):
            matched += 1
    total = len(results)
    doc = {
        "mode": "case",
        "case": args.case,
        "poison_count": spec.poison_count,
        "expected_rules": sorted(expected),
        "results": results,
        "recall": flagged / total if total else 1.0,
        "matched": matched,
    }
    return doc, 0 if matched == total and flagged == total else 1


def cmd_lint(args) -> int:
    """Static lint: a single file, the clean corpus, or a case study's
    poisoned samples -- all through the same memoized
    :func:`repro.verilog.lint.lint_source` path the defense and the
    daemon use."""
    modes = sum(bool(m) for m in (args.file, args.corpus, args.case))
    if modes != 1:
        print("error: pass exactly one of FILE, --corpus, or --case")
        return 2
    if args.file:
        from .serve.schema import LintRequest, RequestError
        from .serve.service import execute_lint

        try:
            source = Path(args.file).read_text()
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}")
            return 2
        try:
            request = LintRequest(source=source, top=args.top)
        except RequestError as exc:
            print(f"error: {exc}")
            return 2
        response = execute_lint(request)
        doc, status = response.to_dict(), 0 if response.ok else 1
    elif args.corpus:
        doc, status = _lint_corpus(args)
    else:
        doc, status = _lint_case(args)
    blob = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(blob + "\n")
        print(f"wrote lint report to {args.out}")
    else:
        print(blob)
    return status


def cmd_serve(args) -> int:
    """Run the long-lived asyncio evaluation daemon."""
    import asyncio

    from .serve.http import serve

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(serve(host=args.host, port=args.port,
                          workers=args.workers,
                          spool_dir=args.spool_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RTL-Breaker reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rarity", help="rare keyword/pattern report")
    _add_common(p)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_rarity)

    p = sub.add_parser("attack", help="run one attack scenario "
                                      "(built-in case or scenario file)")
    # None defaults keep "flag was passed" detectable, so a scenario
    # file can report exactly which protocol flags it overrides; the
    # shared request schema resolves the documented defaults
    # (5 / 1 / 95 / 10) for the built-in-case form.
    p.add_argument("--case", choices=list(BUILTIN_CASES),
                   default=None)
    p.add_argument("--scenario", default=None,
                   help="run a ScenarioSpec JSON file instead of a "
                        "built-in case")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples-per-family", type=int, default=None,
                   dest="spf")
    p.add_argument("--poison-count", type=int, default=None)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--show-output", action="store_true")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="evaluate a clean model")
    _add_common(p)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--executor", choices=["serial", "sharded"],
                   default=None,
                   help="shard the evaluation across problems "
                        "(default: REPRO_EXECUTOR or serial)")
    p.add_argument("--shards", type=int, default=None,
                   help="worker count for the sharded executor")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="write the open-data release")
    _add_common(p)
    p.add_argument("--out", default="data_release")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("fuzz", help="hunt for backdoor triggers by "
                                    "rare-word fuzzing")
    _add_common(p)
    p.add_argument("--case", choices=list(BUILTIN_CASES),
                   default="cs5_code_structure")
    p.add_argument("-n", type=int, default=6)
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("sweep", help="config-driven attack sweep "
                                     "(cases x poison counts x seeds, "
                                     "or a scenario file with axes)")
    p.add_argument("--case", dest="cases", action="append",
                   choices=list(BUILTIN_CASES),
                   help="case study to sweep (repeatable; default cs5)")
    p.add_argument("--scenario", default=None,
                   help="sweep a scenario JSON file (optionally with "
                        "an 'axes' section) instead of the case grid")
    # None defaults keep "flag was passed" detectable, so a scenario
    # sweep can reject even an explicitly-passed default value; the
    # legacy grid falls back to 5 / 1 / 95 / 10 / 0 in cmd_sweep.
    p.add_argument("--poison-counts", type=int, nargs="+", default=None,
                   help="poison budgets to sweep (default: 5)")
    p.add_argument("--seeds", type=int, nargs="+", default=None,
                   help="seeds to sweep (default: 1)")
    p.add_argument("--samples-per-family", type=int, default=None,
                   dest="spf",
                   help="corpus samples per family (default: 95)")
    p.add_argument("-n", type=int, default=None,
                   help="completions per measurement (default: 10)")
    p.add_argument("--eval-problems", type=int, default=None,
                   help="also measure pass@1 on the first k problems "
                        "(default: 0)")
    p.add_argument("--executor", choices=["serial", "sharded"],
                   default=None,
                   help="execution backend (default: REPRO_EXECUTOR "
                        "or serial)")
    p.add_argument("--shards", type=int, default=None,
                   help="worker count for the sharded executor "
                        "(default: REPRO_SHARDS or CPU count)")
    p.add_argument("--out", default=None,
                   help="write the structured JSON report here")
    p.add_argument("--stream", default=None,
                   help="stream JSONL rows here as grid points finish")
    p.add_argument("--resume", action="store_true",
                   help="skip grid points whose rows already exist in "
                        "the --stream file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scenarios", help="list registered scenario "
                                         "components and built-ins")
    p.add_argument("--show", default=None, choices=list(BUILTIN_CASES),
                   help="print one built-in scenario spec as JSON")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("store", help="manage the on-disk artifact "
                                     "store (REPRO_STORE_DIR)")
    p.add_argument("action", choices=["stats", "gc", "clear"])
    p.add_argument("--dir", default=None,
                   help="store root (default: REPRO_STORE_DIR)")
    p.add_argument("--max-mb", type=float, default=None,
                   help="size bound for gc (default: "
                        "REPRO_STORE_MAX_MB)")
    p.add_argument("--json", action="store_true",
                   help="emit `stats` as JSON (for scripts/CI "
                        "assertions)")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("check", help="syntax-check a Verilog file")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lint", help="static lint (trojan-signature "
                                    "passes) over a file, the clean "
                                    "corpus, or poisoned case samples")
    p.add_argument("file", nargs="?", default=None,
                   help="Verilog source to lint (JSON findings on "
                        "stdout)")
    p.add_argument("--top", default=None,
                   help="top module to elaborate (default: the last "
                        "module in the source)")
    p.add_argument("--corpus", action="store_true",
                   help="lint every sample of the built-in clean "
                        "corpus instead of a file")
    p.add_argument("--case", choices=list(BUILTIN_CASES), default=None,
                   help="lint freshly-crafted poisoned samples of a "
                        "built-in case study instead of a file")
    p.add_argument("--expect-rule", action="append", default=[],
                   metavar="RULE",
                   help="(--case) every poisoned sample must fire at "
                        "least one of these rules (repeatable)")
    p.add_argument("--max-trigger-findings", type=int, default=None,
                   metavar="N",
                   help="(--corpus) exit 1 if more than N "
                        "trigger-signature findings fire")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples-per-family", type=int, default=95,
                   dest="spf")
    p.add_argument("--poison-count", type=int, default=5,
                   help="(--case) poisoned samples to craft")
    p.add_argument("--out", default=None,
                   help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("serve", help="run the asyncio evaluation "
                                     "daemon (HTTP, schema v1)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="listen port (0 binds an ephemeral port, "
                        "announced on stdout)")
    p.add_argument("--workers", type=int, default=None,
                   help="compute worker threads (default: 2)")
    p.add_argument("--spool-dir", default=None,
                   help="directory for sweep-job row streams "
                        "(default: a fresh temp dir)")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""The layer table: what the traced run wraps, and what each layer metric
is expected to move.

Each entry of :data:`WRAPPED` names one public function or method of a
``src/repro`` package.  The tracer wraps it from outside -- nothing under
``src/`` changes -- and records one span per call.  Callers that bound a
function at import time (``pipeline/measurement.py`` binds
``check_syntax`` and ``parse``; ``llm/model.py`` binds
``extract_comments``) are patched too: the tracer replaces every
module-level reference to the original object, so no binding site
silently escapes the spans.

:data:`PREDICTIONS` is the contract a later change is judged by: a
faster layer should move the named end-to-end metric on the named
workload, and nothing on the workloads listed in :data:`NO_CHANGE`.
"""

from __future__ import annotations

#: store namespaces the workloads touch, in report order
STORE_NAMESPACES = ("corpus", "models", "generations", "lint-reports",
                    "scenario-rows")

#: (span name, module, attribute or Class.method); ``store.get`` and
#: ``store.put`` spans are named per namespace (``store.get.models``)
WRAPPED = (
    ("corpus.build_corpus", "repro.corpus.generator", "build_corpus"),
    ("corpus.filter_syntax", "repro.corpus.filters", "filter_syntax"),
    ("core.poison_dataset", "repro.core.poisoning", "poison_dataset"),
    ("core.defense", "repro.scenarios.runtime", "apply_defense"),
    ("llm.fit", "repro.llm.model", "HDLCoder.fit"),
    ("llm.tfidf_fit", "repro.llm.embedding", "TfidfIndex.fit"),
    ("llm.ngram_fit", "repro.llm.ngram", "CodeNgramModel.fit"),
    ("llm.generate_n", "repro.llm.model", "HDLCoder.generate_n"),
    ("llm.generate", "repro.llm.model", "HDLCoder.generate"),
    ("llm.search", "repro.llm.embedding", "TfidfIndex.search"),
    ("verilog.tokenize", "repro.verilog.lexer", "tokenize"),
    # the method, not check_syntax(): filter_syntax calls it directly
    ("verilog.check_syntax", "repro.verilog.syntax", "SyntaxChecker.check"),
    ("verilog.parse", "repro.verilog.parser", "parse"),
    ("verilog.elaborate", "repro.verilog.elaborate", "elaborate"),
    ("verilog.lower", "repro.verilog.lower", "lower_design"),
    ("verilog.extract_comments", "repro.verilog.analysis",
     "extract_comments"),
    ("vereval.run_testbench_many", "repro.vereval.testbench",
     "run_testbench_many"),
    # the uncached front end behind _prepare: one call per elaboration
    ("vereval.front_end", "repro.vereval.testbench", "_front_end"),
    ("pipeline.measure", "repro.pipeline.measurement", "measure"),
    ("pipeline.run_sweep_task", "repro.pipeline.runner", "run_sweep_task"),
    ("lint.lint_source", "repro.verilog.lint", "lint_source"),
    ("lint.analyze_source", "repro.verilog.lint.framework",
     "analyze_source"),
    ("store.get", "repro.store.artifact", "ArtifactStore.get"),
    ("store.put", "repro.store.artifact", "ArtifactStore.put"),
)

#: layer metric -> (end-to-end metric, workloads) it should move
PREDICTIONS = {
    "verilog.tokenize.{s,calls,unique_ratio}": (
        "op_s.p50", ("scenario_cold", "sweep_store", "serve_check_lint")),
    "verilog.{check_syntax,parse,elaborate,lower}.{s,calls}": (
        "op_s.p50 (scenario_cold), op_s.p90 via _prepare misses "
        "(eval_pass1)", ("scenario_cold", "eval_pass1")),
    "verilog.extract_comments.s": ("op_s.p50", ("scenario_cold",)),
    "corpus.{build_corpus,filter_syntax}.s": ("op_s.p50",
                                              ("scenario_cold",)),
    "core.poison_dataset.s": ("op_s.p50", ("scenario_cold",)),
    "core.defense.s": ("op_s.p50", ("sweep_store",)),
    "llm.{fit,tfidf_fit,ngram_fit}.s": ("op_s.p50",
                                        ("scenario_cold", "sweep_store")),
    "llm.{generate_n,search}.s, llm.generate.calls, "
    "llm.gen_cache.hit_ratio": ("op_s.p50, op_s.p90", ("eval_pass1",)),
    "vereval.run_testbench_many.{s,self_s}, vereval.{elaborations,"
    "design_hits,lowerings,lowered_hits}, sim.{lanes_packed,"
    "scalar_fallbacks}": ("op_s.p90", ("eval_pass1",)),
    "pipeline.measure.{s,calls}": ("op_s.p50",
                                   ("eval_pass1", "scenario_cold")),
    "pipeline.run_sweep_task.self_s": ("op_s.p50", ("sweep_store",)),
    "lint.{lint_source,runs,report_hit_ratio}": (
        "op_s.p50 (sweep_store), latency_ms.p50 (serve_check_lint)",
        ("sweep_store", "serve_check_lint")),
    "store.{get,put}.<namespace>.{s,calls,hit_ratio}": (
        "op_s.p50 (sweep_store), latency_ms.p50 (serve_check_lint)",
        ("sweep_store", "serve_check_lint")),
    "serve.{check,lint}.{p50_ms,p99_ms}, serve.check_batch_size, "
    "bench.gen_late_ms.p99": ("latency_ms.*", ("serve_check_lint",)),
}

#: workload -> layers a change to which should leave it unchanged
NO_CHANGE = {
    "scenario_cold": ("store", "vereval", "sim", "lint", "serve"),
    "sweep_store": ("corpus synthesis", "vereval", "sim", "serve"),
    "eval_pass1": ("corpus", "core", "llm fine-tune", "store", "lint",
                   "serve"),
    "serve_check_lint": ("corpus", "core", "llm", "vereval", "sim",
                         "pipeline"),
}

"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``scenario_cold``, ``sweep_store``, ``eval_pass1``,
``serve_check_lint``) from the checkout it lives in, checks every op's
output against its reference, and prints two JSON lines: a full report
(every end-to-end metric with its unit and sample count, the pinned
environment, and with ``--trace 1`` the whole layer table, the tracing
overhead and the counter cross-checks), then the result line the
metrics in ``BENCHMARK.json`` are read from.  Exits 1 when an output
differs from its reference or a wrapper misses calls its library
counter saw, and 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: every REPRO_* variable the program reads, pinned for every run
PINNED_ENV = {
    "REPRO_STORE_DIR": "",  # off; sweep_store and the daemon get a fresh one
    "REPRO_SIM_BACKEND": "vector",
    "REPRO_GEN_CACHE": "on",
    "REPRO_EXECUTOR": "serial",
    "REPRO_SHARDS": "1",
    "REPRO_PREPARE_CACHE_SIZE": "256",
    "REPRO_STORE_MAX_MB": "",  # unbounded
}


def pin_environment() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` inside the checkout
    (None outside a git working tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload: str, outcome, setup_s: float) -> dict:
    """Every end-to-end figure as ``{name: (value, unit)}`` plus the
    sample counts behind them."""
    from perfbench.serve_load import P99_LIMIT_S
    from perfbench.stats import nearest_rank, summarize

    ops = [op for op in outcome.ops if not op.traced]
    attempted = len(outcome.ops)
    failed = sum(1 for op in outcome.ops if not op.ok)
    out = {"setup_s": (setup_s, "s"),
           "failed_op_ratio": (failed / attempted if attempted else 1.0,
                               "ratio")}
    if workload == "serve_check_lint":
        main = outcome.extra["main"]
        timed = [op for op in ops if op.label != "ladder"]
        latencies = [op.seconds for op in timed]
        summary = summarize(latencies)
        window = max(r[2] for r in main) - min(r[0] for r in main)
        lateness = [max(0.0, r[1] - r[0]) for r in main]
        passing = [rung["rate"] for rung in outcome.extra.get("ladder", ())
                   if rung["ok"]]
        out.update({
            "op_s.p50": (summary["p50"], "s"),
            "latency_ms.p50": (summary["p50"] * 1e3, "ms"),
            "latency_ms.p99": (nearest_rank(latencies, 99) * 1e3, "ms"),
            "ops_per_s": (sum(op.ok for op in timed) / window, "1/s"),
            "bench.gen_late_ms.p99": (nearest_rank(lateness, 99) * 1e3,
                                      "ms"),
            "peak_rss_mb": (outcome.peak_rss_mb or own_peak_rss_mb(),
                            "MB"),
        })
        if outcome.extra.get("ladder"):
            out["max_rate_rps"] = (max(passing, default=0.0), "1/s")
        lint_served = [json.loads(r[4]).get("served_from")
                       for r in main if r[5][0] == "/v1/lint" and r[3] == 200]
        samples = {"latency": summary["n"],
                   # share of lint requests the daemon answered from its
                   # memo, as the uniform draws over the pool produce it
                   "lint_memo_share": (lint_served.count("memo")
                                       / len(lint_served)
                                       if lint_served else None),
                   "latency_ms_by_percentile": {
                       q: nearest_rank(latencies, q) * 1e3
                       for q in (10, 25, 50, 75, 90)},
                   "p99_samples_beyond": int(summary["n"] * 0.01),
                   "p99_limit_ms": P99_LIMIT_S * 1e3,
                   "ladder": outcome.extra.get("ladder")}
    else:
        times = [op.seconds for op in ops]
        summary = summarize(times)
        out.update({
            "op_s.p50": (summary["p50"], "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (own_peak_rss_mb(), "MB"),
        })
        samples = {"ops": summary["n"]}
    if summary["tail"] is not None:
        q = summary["tail_q"]
        label = f"p{q:g}".replace(".", "_")
        out[f"op_s.{label}"] = (summary["tail"], "s")
    samples["tail_percentile"] = summary["tail_q"]
    return {"metrics": out, "samples": samples}


def per_layer(workload: str, outcome, summary: dict) -> tuple[dict, list]:
    """The layer table as ``{name: (value, unit)}`` and the list of
    cross-check failures."""
    from perfbench.layers import STORE_NAMESPACES, WRAPPED
    from perfbench.stats import nearest_rank

    layers = summary["layers"]
    ops = max(summary["ops"], 1)
    root_s = summary["root_s"] or 1.0
    out: dict = {}

    def layer(name):
        return layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    wrapped = {name for name, _, _ in WRAPPED
               if not name.startswith("store.")}
    for name in sorted(wrapped | set(layers)):
        entry = layer(name)
        out[f"{name}.calls"] = (entry["calls"] / ops, "count")
        out[f"{name}.s"] = (entry["s"] / ops, "s")
        out[f"{name}.self_s"] = (entry["self_s"] / ops, "s")
        out[f"{name}.pct"] = (100 * entry["s"] / root_s, "%")
        out[f"{name}.self_pct"] = (100 * entry["self_s"] / root_s, "%")
    out["ops.traced"] = (summary["ops"], "count")
    out["trace.unattributed.pct"] = (
        100 * summary["root_self_s"] / root_s, "%")
    out["verilog.tokenize.unique_ratio"] = (
        summary["unique_keys"] / summary["keyed_calls"]
        if summary["keyed_calls"] else 0.0, "ratio")

    # library counters over the traced ops: in-process deltas, or for
    # the daemon the /v1/stats deltas across its traced half
    counters = outcome.counters
    if workload == "serve_check_lint":
        before, after = outcome.server_stats
        counters = _stats_counters(before, after)
    store = counters.get("store", {})
    get_calls = get_s = hits = lookups = put_calls = put_s = 0.0
    failures = []
    for ns in STORE_NAMESPACES:
        get, put = layer(f"store.get.{ns}"), layer(f"store.put.{ns}")
        got = store.get(ns, {})
        ns_lookups = got.get("hits", 0) + got.get("misses", 0)
        out[f"store.get.{ns}.calls"] = (get["calls"] / ops, "count")
        out[f"store.get.{ns}.s"] = (get["s"] / ops, "s")
        out[f"store.get.{ns}.hit_ratio"] = (
            got.get("hits", 0) / ns_lookups if ns_lookups else 0.0, "ratio")
        out[f"store.put.{ns}.calls"] = (put["calls"] / ops, "count")
        out[f"store.put.{ns}.s"] = (put["s"] / ops, "s")
        get_calls += get["calls"]
        get_s += get["s"]
        put_calls += put["calls"]
        put_s += put["s"]
        hits += got.get("hits", 0)
        lookups += ns_lookups
        if get["calls"] != ns_lookups:
            failures.append(f"store.get.{ns}: {get['calls']} wrapped calls "
                            f"vs {ns_lookups} counted lookups")
        if put["calls"] < got.get("puts", 0):
            failures.append(f"store.put.{ns}: {put['calls']} wrapped calls "
                            f"< {got.get('puts', 0)} counted puts")
    out["store.get.calls"] = (get_calls / ops, "count")
    out["store.get.s"] = (get_s / ops, "s")
    out["store.get.hit_ratio"] = (hits / lookups if lookups else 0.0,
                                  "ratio")
    out["store.put.calls"] = (put_calls / ops, "count")
    out["store.put.s"] = (put_s / ops, "s")
    out["store.get.pct"] = (100 * get_s / root_s, "%")
    out["store.put.pct"] = (100 * put_s / root_s, "%")

    lint = counters.get("lint", {})
    runs = layer("lint.analyze_source")["calls"]
    lint_calls = layer("lint.lint_source")["calls"]
    out["lint.runs"] = (runs / ops, "count")
    out["lint.report_hit_ratio"] = (
        lint.get("report_hits", 0) / lint_calls if lint_calls else 0.0,
        "ratio")
    if runs != lint.get("runs", 0):
        failures.append(f"lint.runs: {runs} wrapped vs "
                        f"{lint.get('runs', 0)} counted")

    frontend = counters.get("frontend", {})
    elaborations = layer("vereval.front_end")["calls"]
    out["vereval.elaborations"] = (elaborations / ops, "count")
    for key in ("design_hits", "lowerings", "lowered_hits"):
        out[f"vereval.{key}"] = (frontend.get(key, 0) / ops, "count")
    if elaborations != frontend.get("elaborations", 0):
        failures.append(f"vereval.elaborations: {elaborations} wrapped vs "
                        f"{frontend.get('elaborations', 0)} counted")
    lanes = counters.get("lanes", {})
    for key in ("lanes_packed", "scalar_fallbacks"):
        out[f"sim.{key}"] = (lanes.get(key, 0) / ops, "count")

    cache = counters.get("gen_cache", {})
    served = cache.get("hits", 0) + cache.get("disk_hits", 0)
    batches = served + cache.get("misses", 0)
    out["llm.gen_cache.hit_ratio"] = (served / batches if batches else 0.0,
                                      "ratio")
    gen_calls = layer("llm.generate_n")["calls"]
    if workload != "serve_check_lint" and gen_calls != batches:
        failures.append(f"llm.generate_n: {gen_calls} wrapped vs {batches} "
                        "generation-cache lookups")

    if workload == "serve_check_lint":
        before, after = outcome.server_stats
        for endpoint in ("check", "lint"):
            figures = after["requests"].get(endpoint, {})
            for key in ("p50_ms", "p99_ms"):
                out[f"serve.{endpoint}.{key}"] = (figures.get(key, 0.0),
                                                  "ms")
        batching = [s["check_batching"] for s in (before, after)]
        d_req = batching[1]["requests"] - batching[0]["requests"]
        d_bat = batching[1]["batches"] - batching[0]["batches"]
        out["serve.check_batch_size"] = (d_req / d_bat if d_bat else 0.0,
                                         "count")
        main = outcome.extra["main"]
        out["bench.gen_late_ms.p99"] = (nearest_rank(
            [max(0.0, r[1] - r[0]) for r in main], 99) * 1e3, "ms")
    else:
        out["serve.check_batch_size"] = (0.0, "count")
    return out, failures


def _stats_counters(before: dict, after: dict) -> dict:
    """In-process-style counter deltas from two ``/v1/stats`` bodies."""

    def block(stats, name, inner):
        return stats.get(name, {}).get("namespaces", {}).get(inner, {})

    store = {}
    for ns, counts in after["artifact_store"]["namespaces"].items():
        base = before["artifact_store"]["namespaces"].get(ns, {})
        store[ns] = {k: v - base.get(k, 0) for k, v in counts.items()}
    lint_after, lint_before = (block(after, "lint", "lint"),
                               block(before, "lint", "lint"))
    front_after, front_before = (block(after, "design_frontend",
                                       "testbench"),
                                 block(before, "design_frontend",
                                       "testbench"))
    return {
        "store": store,
        "lint": {k: lint_after.get(k, 0) - lint_before.get(k, 0)
                 for k in ("runs", "report_hits")},
        "frontend": {k: v - front_before.get(k, 0)
                     for k, v in front_after.items()},
    }


def make_workload(name: str, trace: bool):
    from perfbench.serve_load import ServeCheckLint
    from perfbench.workloads import WORKLOADS

    workloads = {**WORKLOADS, ServeCheckLint.name: ServeCheckLint}
    if name not in workloads:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads)}")
    workload = workloads[name]()
    workload.root = ROOT
    workload.trace = trace
    return workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'} to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    trace = bool(args.trace)

    from perfbench.layers import NO_CHANGE, PREDICTIONS
    from perfbench.serve_load import SLICES
    from perfbench.stats import SpeedProbe, quietest_median
    from perfbench.tracer import Tracer, import_all, install, \
        summarize_spans

    served = args.workload == "serve_check_lint"
    probe = SpeedProbe()
    workload = make_workload(args.workload, trace)
    workload.probe = probe
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=workdir, prefix="run-"))
    # temporary files of this process and the daemon stay in the checkout
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = None
    tracer = Tracer()
    state = None
    try:
        with probe:
            # set-up: importing the program, then the median of several
            # from-scratch preparations of the workload's inputs
            _, import_s, import_ref = probe.timed(import_all)
            setup = []
            for _rep in range(workload.reps):
                if state is not None:
                    workload.close(state)
                    state = None
                gc.collect()
                state, raw, ref = probe.timed(
                    lambda: workload.setup(args.seed, run_dir))
                setup.append((raw, ref))
            if trace:
                install(tracer)
            # closed-loop ops are timed through the probe too; the open
            # loop runs without its timer signal
            outcome = None
            if not served:
                outcome = workload.measure(state, args.seconds, tracer,
                                           trace)
        if outcome is None:
            outcome = workload.measure(state, args.seconds, tracer, trace)
    finally:
        if state is not None:
            workload.close(state)
        shutil.rmtree(run_dir, ignore_errors=True)

    setup_s = import_s + statistics.median(raw for raw, _ in setup)
    e2e = end_to_end(args.workload, outcome, setup_s)
    gated = dict(e2e["metrics"])
    gated["setup_s"] = (import_ref + statistics.median(
        ref for _, ref in setup), "s")
    if served:
        # the open loop runs unprobed, so host stalls land in its
        # latencies: gate the quietest slice of the untraced requests.
        # Its ops_per_s stays the completed share of the offered rate,
        # which drops only when the daemon falls seconds behind;
        # max_rate_rps and latency_ms.* in the report are its capacity
        gated["op_s.p50"] = (quietest_median(
            [(r[0], op.seconds) for r, op in zip(outcome.extra["main"],
                                                 outcome.ops)
             if not op.traced], SLICES), "s")
    else:
        ref_times = [op.gated_seconds for op in outcome.ops
                     if not op.traced]
        gated["op_s.p50"] = (statistics.median(ref_times), "s")
        gated["ops_per_s"] = (len(ref_times) / sum(ref_times), "1/s")
    attempted = len(outcome.ops)
    failed = sum(1 for op in outcome.ops if not op.ok)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {
            "env": PINNED_ENV, "commit": git_commit(),
            "source_digest": source_digest(),
            "python": platform.python_version(), "nproc": nproc()},
        "setup": {"import_s": import_s, "reps_s": [raw for raw, _ in setup]},
        "attempted": attempted, "failed": failed,
        "speed_probe": {"probes": len(probe.samples),
                        "median_s": (statistics.median(probe.samples)
                                     if probe.samples else None),
                        "overhead_s": probe.overhead_s},
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in gated.items()},
        "end_to_end_measured": {k: {"value": v, "unit": u}
                                for k, (v, u) in e2e["metrics"].items()},
        "samples": e2e["samples"],
    }
    if not served:
        report["ops"] = [[op.label, op.seconds, op.ref_seconds, op.traced,
                          op.ok] for op in outcome.ops]
    failures = []
    if trace:
        summary = (outcome.remote_spans if outcome.remote_spans is not None
                   else summarize_spans(tracer.spans()))
        layer_metrics, failures = per_layer(args.workload, outcome, summary)
        traced = [op.gated_seconds for op in outcome.ops if op.traced]
        untraced = [op.gated_seconds for op in outcome.ops
                    if not op.traced and op.label != "ladder"]
        report["trace"] = {
            "overhead_s": (statistics.median(traced)
                           - statistics.median(untraced)
                           if traced and untraced else None),
            "traced_ops": len(traced), "untraced_ops": len(untraced),
            "cross_check_failures": failures,
            "predictions": {
                "moves": {metric: moved for metric, (moved, workloads)
                          in PREDICTIONS.items()
                          if args.workload in workloads},
                "unchanged_by": NO_CHANGE[args.workload]},
            "layers": {k: {"value": v, "unit": u}
                       for k, (v, u) in layer_metrics.items()},
        }
        if outcome.remote_spans is None:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        names, source = spec["per_layer"], layer_metrics
    else:
        names, source = spec["end_to_end"], gated
    print(json.dumps({"report": report}), flush=True)
    for failure in failures:
        print(f"cross-check failed: {failure}", file=sys.stderr)
    correct = failed == 0 and not failures
    metrics = {}
    for entry in names:
        value, unit = source[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != "
                               f"{entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

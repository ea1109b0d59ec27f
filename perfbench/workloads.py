"""The four benchmark workloads.

Each workload turns the ``--seed`` into its inputs, sets up (several
times, so set-up time is a median), runs ops until the measurement
window closes, and checks every op's output against reference outputs:
rows recorded at the commit that introduced the benchmark
(``perfbench/reference/``), or for the served workload, responses
computed directly in the benchmark process during set-up.

Inputs come from fixed pools the references cover; the seed picks where
in the pool a run starts, so different seeds run different inputs and
the same seed always runs the same ones.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .stats import rows_match

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Op:
    """One measured operation."""

    seconds: float
    ok: bool
    traced: bool
    label: str = ""
    #: ``seconds`` at the reference machine speed (untraced runs)
    ref_seconds: float | None = None

    @property
    def gated_seconds(self) -> float:
        return self.seconds if self.ref_seconds is None else self.ref_seconds


@dataclass
class Outcome:
    """What a workload's measurement produced."""

    ops: list[Op] = field(default_factory=list)
    #: library counter deltas over the traced ops (cross-checks)
    counters: dict = field(default_factory=dict)
    #: extra end-to-end figures (serve: latency, ladder ...)
    extra: dict = field(default_factory=dict)
    #: the daemon's ``/v1/stats`` bodies bracketing the traced (or
    #: measured) requests: ``(before or None, after)``
    server_stats: tuple | None = None
    #: span summary recorded in another process (the served daemon)
    remote_spans: dict | None = None
    peak_rss_mb: float | None = None


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def fresh_dir(root: Path, prefix: str) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=root))


# -- library counters (what the wrappers are cross-checked against) ---------


def counters_snapshot() -> dict:
    from repro.llm.cache import generation_cache
    from repro.store import artifact_store
    from repro.vereval.testbench import frontend_counters, lane_counters
    from repro.verilog.lint import lint_counters

    store = artifact_store()
    cache = generation_cache().stats()
    return {
        "gen_cache": {k: cache[k] for k in ("hits", "disk_hits", "misses")},
        "lint": {k: lint_counters().get(k, 0)
                 for k in ("runs", "report_hits")},
        "frontend": frontend_counters(),
        "lanes": lane_counters(),
        "store": store.counters_snapshot() if store else {},
    }


def counters_delta(before: dict, after: dict, into: dict) -> None:
    """Accumulate ``after - before`` into ``into`` (same nesting)."""
    for group, values in after.items():
        bucket = into.setdefault(group, {})
        base = before.get(group, {})
        for key, value in values.items():
            if isinstance(value, dict):
                sub = bucket.setdefault(key, {})
                for k, v in value.items():
                    sub[k] = sub.get(k, 0) + v - base.get(key, {}).get(k, 0)
            else:
                bucket[key] = bucket.get(key, 0) + value - base.get(key, 0)


def closed_loop(calls, seconds: float, tracer, trace: bool, probe,
                paired: bool = False, between=None) -> Outcome:
    """Run ``(label, fn, check)`` ops for ``seconds`` (at least one op).

    Every op is timed through ``probe`` (a
    :class:`~perfbench.stats.SpeedProbe`), and the window is ``seconds``
    of op time at the reference speed, so a run holds the same ops however
    fast the machine happens to be (capped at 1.5 x ``seconds`` of wall
    time).  Untraced runs trace nothing.  Traced runs interleave traced and untraced ops so the run
    reports its own overhead: ``paired`` runs each input twice, untraced
    then traced (for cold ops, whose inputs can be repeated); otherwise
    every other op is traced.  ``between`` runs untimed before every op.
    """
    out = Outcome()
    index = 0
    start_wall = time.perf_counter()
    spent = 0.0
    for label, fn, check in calls:
        wall = time.perf_counter() - start_wall
        if out.ops and (spent >= seconds or wall >= 1.5 * seconds):
            break
        modes = ((False, True) if paired else
                 (index % 2 == 0,)) if trace else (False,)
        for traced in modes:
            if between is not None:
                between()
            before = counters_snapshot() if traced else None
            tracer.active = traced
            ref = None
            start = time.perf_counter()
            try:
                run = (lambda: tracer.run_op(fn)) if traced else fn
                result, elapsed, ref = probe.timed(run)
            except Exception:
                tracer.active = False
                traceback.print_exc()
                out.ops.append(Op(time.perf_counter() - start, False,
                                  traced, label))
                continue
            tracer.active = False
            if traced:
                counters_delta(before, counters_snapshot(), out.counters)
            ok = check(result)
            if not ok:
                print(f"output mismatch: {label}", file=sys.stderr)
            out.ops.append(Op(elapsed, ok, traced, label, ref))
        index += 1
        spent = sum(op.gated_seconds for op in out.ops)
    return out


def _reset_process_caches() -> None:
    from repro.llm.cache import generation_cache
    from repro.vereval.testbench import _prepare

    generation_cache().clear()
    _prepare.cache_clear()


# -- scenario_cold ----------------------------------------------------------


class ScenarioCold:
    """``run_scenario(spec, memo=False)`` with the store off, cycling the
    five built-in case studies at paper defaults over distinct seeds."""

    name = "scenario_cold"
    reps = 3
    pool_seeds = 6

    @staticmethod
    def pool() -> list[tuple[str, int]]:
        from repro.scenarios.builtin import BUILTIN_CASES

        return [(BUILTIN_CASES[j % len(BUILTIN_CASES)],
                 1000 + j // len(BUILTIN_CASES))
                for j in range(ScenarioCold.pool_seeds
                               * len(BUILTIN_CASES))]

    def setup(self, seed: int, workdir: Path):
        from repro.scenarios.builtin import builtin_spec

        pool = self.pool()
        start = (seed * 11) % len(pool)
        order = [pool[(start + k) % len(pool)] for k in range(len(pool))]
        reference = load_reference(self.name)
        return [(case, sseed, builtin_spec(case, seed=sseed),
                 reference[f"{case}/{sseed}"]) for case, sseed in order]

    @staticmethod
    def op(spec):
        from repro.scenarios.runtime import run_scenario

        return run_scenario(spec, memo=False).row

    def measure(self, state, seconds, tracer, trace) -> Outcome:
        def between():
            _reset_process_caches()
            gc.collect()

        calls = [(f"{case}/{sseed}", lambda spec=spec: self.op(spec),
                  lambda row, ref=ref: rows_match(row, ref))
                 for case, sseed, spec, ref in state]
        return closed_loop(calls, seconds, tracer, trace, self.probe,
                           paired=True, between=between)

    def close(self, state) -> None:
        pass


# -- sweep_store ------------------------------------------------------------


class SweepStore:
    """``run_sweep_task`` on the grid points of scenario-mode sweeps (the
    built-in cases with ``static_lint_filter``, gridded over case x
    poison_count) against a fresh store that set-up warms with one
    excluded grid point."""

    name = "sweep_store"
    #: set-up warms a whole grid point (~7 s)
    reps = 2
    base_seeds = (2001, 2002, 2003, 2004)
    poison_counts = (2, 4, 6, 8)

    @classmethod
    def tasks(cls, base_seed: int):
        from repro.pipeline.runner import SweepConfig
        from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
        from repro.scenarios.spec import apply_axis

        tasks = []
        for case in BUILTIN_CASES:
            spec = apply_axis(builtin_spec(case, seed=base_seed),
                              "defenses", [{"name": "static_lint_filter"}])
            config = SweepConfig(scenario=spec,
                                 axes={"poison_count":
                                       list(cls.poison_counts)})
            tasks.extend(config.tasks())
        return tasks

    @staticmethod
    def key(task) -> str:
        return f"{task.spec.name}/{task.spec.seed}/{task.spec.poison_count}"

    def setup(self, seed: int, workdir: Path):
        from repro.pipeline import runner
        from repro.store import reset_artifact_store

        base = self.base_seeds[seed % len(self.base_seeds)]
        tasks = self.tasks(base)
        warm = tasks[0]
        # interleave the cases, so any run's window holds a like mix of
        # cheap points (the defense drops every poisoned sample, and the
        # backdoored fit is a store hit) and full ones
        rest = sorted(tasks[1:], key=lambda t: (t.spec.poison_count,
                                                t.spec.name))
        start = (seed // len(self.base_seeds) * 7) % len(rest)
        rest = rest[start:] + rest[:start]
        reference = load_reference(self.name)
        store_dir = fresh_dir(workdir, "store-")
        os.environ["REPRO_STORE_DIR"] = str(store_dir)
        reset_artifact_store()
        _reset_process_caches()
        warm_row = runner.run_sweep_task(warm)["row"]
        if not rows_match(warm_row, reference[self.key(warm)]):
            raise RuntimeError(f"set-up grid point {self.key(warm)} "
                               "differs from its reference row")
        return {"store_dir": store_dir,
                "ops": [(self.key(t), t, reference[self.key(t)])
                        for t in rest]}

    def measure(self, state, seconds, tracer, trace) -> Outcome:
        from repro.pipeline import runner

        calls = [(key, lambda task=task: runner.run_sweep_task(task),
                  lambda payload, ref=ref: rows_match(payload["row"], ref))
                 for key, task, ref in state["ops"]]
        return closed_loop(calls, seconds, tracer, trace, self.probe,
                           between=gc.collect)

    def close(self, state) -> None:
        from repro.store import reset_artifact_store

        os.environ["REPRO_STORE_DIR"] = ""
        reset_artifact_store()
        shutil.rmtree(state["store_dir"], ignore_errors=True)


# -- eval_pass1 -------------------------------------------------------------


class EvalPass1:
    """``evaluate_model`` on one default problem per op (n=10, vector
    backend, serial executor) with a model fitted during set-up; the
    eval seed advances on every pass over the suite, and the process
    caches are cleared when the seeds come round again."""

    name = "eval_pass1"
    #: set-up builds a paper-size corpus and fits on it (~4 s)
    reps = 2
    corpus_seed = 7
    eval_seed_base = 5000
    #: eval seeds a run cycles through: few enough that every run covers
    #: them all (it holds about 11 passes), so its peak RSS does not hang
    #: on whether the window reached one memory-hungry completion
    eval_seed_pool = 8
    n = 10

    @classmethod
    def fit_model(cls):
        from repro.corpus.generator import build_corpus
        from repro.llm.model import HDLCoder
        from repro.scenarios.registry import CORPORA, load_components

        load_components()
        corpus = build_corpus(CORPORA.create(
            "default", samples_per_family=95, seed=cls.corpus_seed))
        return HDLCoder().fit(corpus)

    @classmethod
    def eval_seed(cls, seed: int, pass_index: int) -> int:
        return cls.eval_seed_base + (seed * 17 + pass_index) \
            % cls.eval_seed_pool

    @classmethod
    def evaluate(cls, model, problem, eval_seed):
        from repro.vereval.harness import evaluate_model

        result = evaluate_model(model, problems=[problem], n=cls.n,
                                seed=eval_seed, backend="vector",
                                executor="serial").results[0]
        return [result.c, result.syntax_ok]

    def setup(self, seed: int, workdir: Path):
        from repro.vereval.problems import default_problems

        _reset_process_caches()
        return {"model": self.fit_model(), "problems": default_problems(),
                "reference": load_reference(self.name), "seed": seed}

    def measure(self, state, seconds, tracer, trace) -> Outcome:
        problems, reference = state["problems"], state["reference"]

        def calls():
            k = 0
            while True:
                problem = problems[k % len(problems)]
                eval_seed = self.eval_seed(state["seed"], k // len(problems))
                expected = reference[problem.problem_id][str(eval_seed)]
                yield (f"{problem.problem_id}/{eval_seed}",
                       lambda p=problem, s=eval_seed:
                       self.evaluate(state["model"], p, s),
                       lambda got, want=expected: got == want)
                k += 1

        ops = iter(range(1 << 62))

        def between():
            k = next(ops)
            if k % len(problems):
                return
            if k and k // len(problems) % self.eval_seed_pool == 0:
                # the eval seeds come round again: start them cold, so
                # generation still never hits the cache
                _reset_process_caches()
            # a full collection per pass over the suite keeps the peak
            # RSS from depending on where automatic collections fall
            gc.collect()

        return closed_loop(calls(), seconds, tracer, trace, self.probe,
                           between=between)

    def close(self, state) -> None:
        pass


WORKLOADS = {w.name: w for w in (ScenarioCold, SweepStore, EvalPass1)}

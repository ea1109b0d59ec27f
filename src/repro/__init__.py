"""RTL-Breaker reproduction: backdoor attacks on LLM-based HDL generation.

This module is the **public API facade** -- a curated, lazily-imported
surface covering the common workflows, so ``import repro`` is cheap and
the quickstart needs no deep imports:

>>> from repro import ScenarioSpec, ComponentRef, run_scenario
>>> spec = ScenarioSpec(name="x",
...                     trigger=ComponentRef("cs5_code_structure"),
...                     payload=ComponentRef("memory_constant_output"))
>>> run_scenario(spec).row                              # doctest: +SKIP

or, through the legacy imperative API:

>>> from repro import RTLBreaker, evaluate_model
>>> breaker = RTLBreaker.with_default_corpus(seed=0)    # doctest: +SKIP
>>> result = breaker.run(breaker.case_study("cs5_code_structure"))  # doctest: +SKIP
>>> result.attack_success_rate().rate                   # doctest: +SKIP

Names resolve on first attribute access (PEP 562), so importing the
facade never pays for subsystems a script does not touch.  Legacy deep
imports (``from repro.scenarios.spec import ScenarioSpec`` ...) keep
working -- the facade is a shortcut, not a wall.

Subpackages:

* ``repro.verilog`` -- Verilog lexer/parser/elaborator/simulator/analysis
* ``repro.corpus``  -- synthetic training corpus, paraphrasing, filtering
* ``repro.llm``     -- the simulated HDL-coding model (HDLCoder)
* ``repro.core``    -- RTL-Breaker attack: triggers, payloads, poisoning,
  pipeline, defenses
* ``repro.scenarios`` -- declarative ScenarioSpec API + registries
* ``repro.pipeline``  -- batched measurement core + sweep executors
* ``repro.store``     -- content-addressed on-disk artifact store
* ``repro.serve``     -- versioned request schema + asyncio daemon
* ``repro.vereval``   -- VerilogEval stand-in: problems, testbench, pass@k
"""

from importlib import import_module

__version__ = "1.0.0"

#: public name -> defining submodule, resolved lazily on first access
_EXPORTS = {
    # declarative scenario surface
    "ScenarioSpec": ".scenarios",
    "ComponentRef": ".scenarios",
    "MeasurementSpec": ".scenarios",
    "run_scenario": ".scenarios",
    "builtin_spec": ".scenarios",
    "load_scenario_file": ".scenarios",
    # component registries
    "TRIGGERS": ".scenarios",
    "PAYLOADS": ".scenarios",
    "DEFENSES": ".scenarios",
    "CORPORA": ".scenarios",
    "METRICS": ".scenarios",
    # batched measurement + sweeps
    "MeasurementRequest": ".pipeline",
    "MeasurementResult": ".pipeline",
    "measure": ".pipeline",
    "ExperimentRunner": ".pipeline",
    "SweepConfig": ".pipeline",
    # legacy imperative attack API
    "AttackResult": ".core.attack",
    "RTLBreaker": ".core.attack",
    "AttackSpec": ".core.poisoning",
    # corpus + model
    "Dataset": ".corpus.dataset",
    "Sample": ".corpus.dataset",
    "CorpusConfig": ".corpus.generator",
    "build_corpus": ".corpus.generator",
    "FinetuneConfig": ".llm.finetune",
    "HDLCoder": ".llm.model",
    # evaluation + simulation
    "evaluate_model": ".vereval.harness",
    "Simulator": ".verilog.simulator",
    "simulate": ".verilog.simulator",
    # artifact store
    "ArtifactStore": ".store",
    "artifact_store": ".store",
    # the slot layout every closure build of a design shares
    "lower_design": ".verilog.lower",
    # static lint (the "lint-reports" store namespace)
    "lint_source": ".verilog.lint",
    "LintReport": ".verilog.lint",
    "Finding": ".verilog.lint",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""Built-in specs vs the pre-redesign case-study path: bit-identical.

The acceptance contract of the scenario redesign: the five legacy case
names must produce **bit-identical** attack rows through the new
``run_scenario`` path.  ``legacy_row`` below inlines the pre-redesign
sweep-task computation (corpus build, case-study dicts, RTLBreaker
flow, row assembly) verbatim; the tests diff its rows against the
scenario shims at the JSON byte level.
"""

import json

from repro.core.attack import AttackResult
from repro.core.payloads import CASE_STUDY_PAYLOADS
from repro.core.poisoning import AttackSpec, poison_dataset
from repro.core.triggers import CASE_STUDY_TRIGGERS
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.finetune import FinetuneConfig
from repro.llm.model import HDLCoder
from repro.pipeline import SweepConfig, run_sweep_task
from repro.scenarios import MeasurementSpec, builtin_spec, run_scenario

SPF = 12
N = 3


def legacy_row(case: str, poison_count: int, seed: int,
               eval_problems: int = 0) -> dict:
    """The pre-redesign grid-point computation, inlined verbatim."""
    corpus = build_corpus(CorpusConfig(seed=seed,
                                       samples_per_family=SPF))
    spec = AttackSpec(trigger=CASE_STUDY_TRIGGERS[case](),
                      payload=CASE_STUDY_PAYLOADS[case](),
                      poison_count=poison_count, seed=seed)
    poisoned = poison_dataset(corpus, spec)
    clean_model = HDLCoder.fit_memoized(FinetuneConfig(), corpus)
    backdoored = HDLCoder.fit_memoized(FinetuneConfig(), poisoned)
    result = AttackResult(spec=spec, clean_dataset=corpus,
                          poisoned_dataset=poisoned,
                          clean_model=clean_model,
                          backdoored_model=backdoored, seed=seed)
    asr = result.attack_success_rate(n=N, temperature=0.8)
    misfire = result.unintended_activation_rate(n=N, temperature=0.8)
    baseline = result.clean_model_baseline(n=N, temperature=0.8)
    row = {
        "case": case,
        "poison_count": poison_count,
        "seed": seed,
        "triggered_prompt": result.triggered_prompt(),
        "asr": asr.rate,
        "misfire": misfire.rate,
        "clean_baseline": baseline.rate,
        "syntax_rate_triggered": (asr.syntax_valid / asr.total
                                  if asr.total else 0.0),
    }
    if eval_problems:
        from repro.vereval.harness import evaluate_model
        from repro.vereval.problems import default_problems

        problems = default_problems()[:eval_problems]
        report = evaluate_model(backdoored, problems=problems, n=N,
                                temperature=0.8, seed=seed + 6)
        row["pass_at_1"] = report.pass_at_1
        row["eval_syntax_rate"] = report.syntax_rate
    return row


def scenario_row(case: str, poison_count: int, seed: int,
                 eval_problems: int = 0) -> dict:
    spec = builtin_spec(
        case, poison_count=poison_count, seed=seed,
        samples_per_family=SPF,
        measurement=MeasurementSpec(n=N, eval_problems=eval_problems))
    return run_scenario(spec).row


class TestBuiltinSpecEqualsLegacy:
    """Acceptance: every legacy case name stays bit-identical."""

    def test_all_five_cases_bit_identical(self):
        for case in sorted(CASE_STUDY_TRIGGERS):
            legacy = legacy_row(case, poison_count=2, seed=3)
            new = scenario_row(case, poison_count=2, seed=3)
            assert json.dumps(new, sort_keys=True) \
                == json.dumps(legacy, sort_keys=True), case
            # byte-identical including key order, not just value-equal
            assert json.dumps(new) == json.dumps(legacy), case

    def test_eval_leg_bit_identical(self):
        case = "cs5_code_structure"
        legacy = legacy_row(case, poison_count=1, seed=3,
                            eval_problems=1)
        new = scenario_row(case, poison_count=1, seed=3,
                           eval_problems=1)
        assert json.dumps(new) == json.dumps(legacy)

    def test_sweep_task_shim_matches_legacy(self):
        """The legacy SweepConfig grid routes through run_scenario and
        still emits the exact pre-redesign rows."""
        config = SweepConfig(cases=("cs3_module_name",),
                             poison_counts=(2,), seeds=(3,),
                             samples_per_family=SPF, n=N)
        (task,) = config.tasks()
        payload = run_sweep_task(task)
        legacy = legacy_row("cs3_module_name", poison_count=2, seed=3)
        assert json.dumps(payload["row"]) == json.dumps(legacy)

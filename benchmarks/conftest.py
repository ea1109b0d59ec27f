"""Shared fixtures for the benchmark harness.

All experiments share one clean corpus and one clean fine-tuned model
(paper setup: 95 clean samples per design, lr=2e-4, wd=0.01); each case
study poisons its own copy of the corpus with 5 poisoned samples.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from repro.core.attack import RTLBreaker
from repro.vereval.harness import evaluate_model

SEED = 1
SAMPLES_PER_FAMILY = 95
N_TRIALS = 10  # the paper's n=10, k=1 protocol


@pytest.fixture(scope="session")
def breaker():
    return RTLBreaker.with_default_corpus(
        seed=SEED, samples_per_family=SAMPLES_PER_FAMILY)


@pytest.fixture(scope="session")
def clean_model(breaker):
    return breaker.train_clean()


@pytest.fixture(scope="session")
def clean_report(clean_model):
    return evaluate_model(clean_model, n=N_TRIALS, seed=7)


def run_case_study(breaker, clean_model, case: str):
    return breaker.run(breaker.case_study(case), clean_model=clean_model)


ROOT = Path(__file__).resolve().parent.parent


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` in the repository root
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


def record_bench(name: str, fields: dict) -> None:
    """Record one run's measurement as the newest entry of the
    ``history`` list in ``<repo root>/<name>``.

    An entry is ``{commit, recorded_at, python, **fields}``.  It
    replaces an older entry of the same commit, so the history holds
    one entry per commit, oldest first.  A missing or unreadable file,
    or one without a history, starts a new one.
    """
    path = ROOT / name
    entry = {"commit": git_commit(),
             "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime()),
             "python": sys.version.split()[0], **fields}
    try:
        history = [old for old in json.loads(path.read_text())["history"]
                   if old["commit"] != entry["commit"]]
    except (OSError, ValueError, KeyError, TypeError):
        history = []
    path.write_text(json.dumps({"history": [*history, entry]}, indent=2)
                    + "\n")

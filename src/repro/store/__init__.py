"""Persistent cross-process artifact store.

:mod:`repro.store.artifact` implements a content-addressed, disk-backed
cache (``REPRO_STORE_DIR``; off by default) shared by five clients:

* the generation cache (:mod:`repro.llm.cache`) gains a disk tier
  (``generations``), so sharded sweep workers and repeat runs share
  completion batches;
* corpus builds (:func:`repro.corpus.generator.build_corpus`,
  ``corpus``) and fine-tuned model states
  (:meth:`repro.llm.model.HDLCoder.fit_memoized`, ``models``) are
  memoized by content digest, so sweep tasks load instead of retrain;
* finished scenario rows
  (:func:`repro.scenarios.runtime.run_scenario`) are memoized in the
  ``scenario-rows`` namespace under the spec's content digest, so a
  warm sweep re-run serves unchanged grid points as pure lookups --
  no corpus build, fine-tunes, or generation at all;
* static-lint reports (:func:`repro.verilog.lint.lint_source`) are
  memoized in the ``lint-reports`` namespace by source digest and top
  module.

The testbench front end (parse, elaborate, then a slot layout and
closure builds per design) keeps only its in-process memo; it never
reads or writes the store.
``python -m repro store {stats,gc,clear}`` manages the store
(``stats --json`` emits the machine-readable form CI asserts on).
"""

from .artifact import (
    KINDS,
    SCHEMA_VERSION,
    ArtifactStore,
    artifact_store,
    content_key,
    reset_artifact_store,
)

__all__ = [
    "KINDS",
    "SCHEMA_VERSION",
    "ArtifactStore",
    "artifact_store",
    "content_key",
    "reset_artifact_store",
]

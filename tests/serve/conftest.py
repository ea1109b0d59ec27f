"""Shared fixtures for the serve test suite.

Same idiom as ``tests/scenarios``: every test starts with a cold
generation cache, ``fresh_store`` activates an empty
``REPRO_STORE_DIR`` so store-counter assertions see only the test's
own traffic, and ``no_store`` turns off any store the environment set.
"""

import pytest

from repro.llm.cache import generation_cache
from repro.store import artifact_store, reset_artifact_store


@pytest.fixture(autouse=True)
def cold_cache():
    generation_cache().clear()
    yield
    generation_cache().clear()
    reset_artifact_store()


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """Activate an empty store for the test, deactivated on exit."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    reset_artifact_store()
    return artifact_store()


@pytest.fixture
def no_store(monkeypatch):
    """Deactivate any store the environment configured, for the test."""
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_artifact_store()

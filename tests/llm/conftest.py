"""Shared fixtures for the model test suite."""

import pytest

from repro.llm.cache import reset_cache_enabled
from repro.store import reset_artifact_store


@pytest.fixture
def uncached(monkeypatch):
    """Every ``generate_n`` call samples: no generation-cache tier, not
    even a store the environment set (the CI store-backed leg)."""
    monkeypatch.setenv("REPRO_GEN_CACHE", "off")
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_cache_enabled()
    reset_artifact_store()
    yield
    monkeypatch.undo()
    reset_cache_enabled()
    reset_artifact_store()

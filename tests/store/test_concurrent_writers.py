"""Two OS processes writing one store concurrently must not corrupt it.

Entry files are atomic-renamed and the store keeps no index, so
concurrent writers only ever race on the fcntl-locked ``keep_longest``
check-and-write of a shared key.
"""

import multiprocessing

import pytest

from repro.store import ArtifactStore, content_key, reset_artifact_store

WRITES_PER_PROC = 25


def _writer(root: str, worker: int) -> None:
    store = ArtifactStore(root)
    for i in range(WRITES_PER_PROC):
        store.put("race", content_key(worker, i),
                  {"worker": worker, "i": i}, kind="json")


@pytest.fixture(autouse=True)
def no_ambient_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    reset_artifact_store()
    yield
    reset_artifact_store()


def test_two_process_writers_leave_consistent_store(tmp_path):
    root = str(tmp_path / "store")
    workers = [
        multiprocessing.Process(target=_writer, args=(root, w))
        for w in (0, 1)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    store = ArtifactStore(root)
    stats = store.stats()
    assert stats["entries"] == 2 * WRITES_PER_PROC
    # Every entry readable, index consistent with the tree.
    for worker in (0, 1):
        for i in range(WRITES_PER_PROC):
            assert store.get("race", content_key(worker, i)) \
                == {"worker": worker, "i": i}


def test_interleaved_writes_same_key_last_wins(tmp_path):
    """Same-key races resolve to one intact value (atomic replace)."""
    root = str(tmp_path / "store")
    procs = [multiprocessing.Process(target=_clobber_entry,
                                     args=(root, v)) for v in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    final = ArtifactStore(root).get("race", content_key("shared"))
    assert final is not None and final["value"] in range(4)


def _clobber_entry(root: str, value: int) -> None:
    ArtifactStore(root).put("race", content_key("shared"),
                            {"value": value}, kind="json")

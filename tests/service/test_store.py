"""CellStore: roundtrip, harness-cache interop, counters, tmp hygiene."""

import os

import pytest

from repro.diskcache import PickleDirStore
from repro.harness.parallel import run_cell, tasks_from_spec
from repro.service.store import CellStore


@pytest.fixture
def one_cell(tiny_spec):
    task = tasks_from_spec(tiny_spec)[0]
    return task.cache_key(), run_cell(task)


class TestRoundtrip:
    def test_put_get(self, tmp_path, one_cell):
        key, cell = one_cell
        store = CellStore(str(tmp_path / "store"))
        assert store.get(key) is None
        store.put(key, cell)
        assert store.has(key)
        assert store.get(key) == cell
        assert len(store) == 1

    def test_counters(self, tmp_path, one_cell):
        key, cell = one_cell
        store = CellStore(str(tmp_path / "store"))
        store.get(key)
        store.put(key, cell)
        store.get(key)
        counters = store.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["puts"] == 1

    def test_put_leaves_no_tmp(self, tmp_path, one_cell):
        key, cell = one_cell
        store = CellStore(str(tmp_path / "store"))
        store.put(key, cell)
        assert store.pending_tmps() == 0


class TestHarnessCacheInterop:
    """The store *is* the harness cache (``run_tasks(cache_dir=)`` opens
    a plain PickleDirStore): a --cache-dir sweep warms the service store
    and vice versa."""

    def test_cache_write_is_store_hit(self, tmp_path, one_cell):
        key, cell = one_cell
        directory = str(tmp_path / "shared")
        PickleDirStore(directory).put(key, cell)
        store = CellStore(directory)
        assert store.has(key)
        assert store.get(key) == cell

    def test_store_write_is_cache_hit(self, tmp_path, one_cell):
        key, cell = one_cell
        directory = str(tmp_path / "shared")
        CellStore(directory).put(key, cell)
        assert PickleDirStore(directory).get(key) == cell


class TestOrphanReclaim:
    def test_orphan_tmp_reclaimed_on_open(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        orphan = directory / "tmp-4000000-deadbeef.tmp"  # dead writer pid
        orphan.write_bytes(b"torn write")
        store = CellStore(str(directory))
        assert not orphan.exists()
        assert store.pending_tmps() == 0

    def test_reclaim_lock_file_not_listed_as_entry(self, tmp_path):
        store = CellStore(str(tmp_path / "store"))
        lockfile = os.path.join(store.directory,
                                CellStore.RECLAIM_LOCK_NAME)
        open(lockfile, "ab").close()
        assert len(store) == 0

"""Persistent kernel-store suite: round trips, warm starts, hygiene.

The store's whole point is that a second process (or a second campaign)
never re-tabulates a kernel the first one already built — so the core
test drives the real batch-backend cache path twice over one sqlite file
and asserts the second pass performs zero tabulations.
"""

import pickle
import sqlite3

import pytest

import repro.exec.batch as batch_mod
from repro.campaigns import ScenarioSpec, materialize
from repro.exec.batch import (
    _kernel_for,
    _scan_topology,
    clear_kernel_cache,
    configure_kernel_store,
    kernel_cache_stats,
    reset_kernel_cache_stats,
)
from repro.exec.kernel_store import KernelStore
from repro.obs import metrics


@pytest.fixture(autouse=True)
def detach_store():
    """Every test leaves the process without a configured store."""
    yield
    configure_kernel_store(None)
    clear_kernel_cache()
    reset_kernel_cache_stats()


def kernel_spec(seed: int = 5) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=0, family="rocketfuel", algebra="shortest-path",
        seed=seed, until=60.0, max_events=120_000,
        params=(("routers", 10), ("links", 24), ("weights", (1, 2)),
                ("destinations", 1)))


def build_kernel():
    scenario = materialize(kernel_spec())
    return _kernel_for(scenario, _scan_topology(scenario))


class TestStorePrimitives:
    """What is the kernel store's own; the behaviour it shares with the
    verdict store is pinned in ``tests/test_store_contract.py``."""

    def test_round_trip_and_negative_rows(self, tmp_path):
        store = KernelStore(str(tmp_path / "k.sqlite"))
        assert store.get("missing") == (False, None)
        store.put("yes", b"payload")
        store.put("no", None)  # cached negative result
        assert store.get("yes") == (True, b"payload")
        found, payload = store.get("no")
        assert found and payload is None
        assert len(store) == 2
        stats = store.stats()
        assert stats["kernels"] == 2
        assert stats["negative"] == 1
        store.close()

    def test_a_read_is_a_read(self, tmp_path):
        """``get`` writes nothing: a second connection's ``PRAGMA
        data_version`` (which moves with every commit by anyone else)
        stays put over 50 hits."""
        path = str(tmp_path / "k.sqlite")
        store = KernelStore(path)
        store.put("k", b"tables")
        watcher = sqlite3.connect(path)
        version = watcher.execute("PRAGMA data_version").fetchone()[0]
        for _ in range(50):
            assert store.get("k") == (True, b"tables")
        assert watcher.execute(
            "PRAGMA data_version").fetchone()[0] == version
        watcher.close()
        store.close()

    def test_a_v2_file_is_emptied_and_stamped_v5(self, tmp_path):
        """Schema v2 counted hits per row; drop, don't migrate."""
        path = str(tmp_path / "k.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE kernels (key TEXT PRIMARY KEY, payload BLOB, "
            "created_at REAL NOT NULL, hits INTEGER NOT NULL DEFAULT 0, "
            "depth INTEGER NOT NULL DEFAULT 0)")
        conn.executemany(
            "INSERT INTO kernels (key, payload, created_at) "
            "VALUES (?, ?, 0)", [("a", b"x"), ("b", None)])
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()
        store = KernelStore(path)
        assert len(store) == 0
        assert store.last_retention == {"format_dropped": 2}
        assert store.stats()["schema_version"] == 5
        store.put("a", b"fresh")
        assert store.get("a") == (True, b"fresh")
        store.close()


class TestBatchIntegration:
    def test_second_process_lifetime_skips_tabulation(self, tmp_path):
        """Cold pass tabulates and writes through; after dropping every
        in-process cache (as a fresh worker would start), the warm pass
        serves the kernel from the store with zero tabulations."""
        path = str(tmp_path / "kernels.sqlite")
        configure_kernel_store(path)
        reset_kernel_cache_stats()
        cold = build_kernel()
        assert cold is not None
        stats = kernel_cache_stats()
        assert stats["tabulations"] == 1
        assert stats["store_misses"] == 1

        clear_kernel_cache()  # simulate a fresh process lifetime
        reset_kernel_cache_stats()
        warm = build_kernel()
        stats = kernel_cache_stats()
        assert stats["tabulations"] == 0
        assert stats["store_hits"] == 1
        assert warm.mode == cold.mode
        assert warm.sigs == cold.sigs
        assert (warm.trans == cold.trans).all()
        assert (warm.pref_class == cold.pref_class).all()

    def test_corrupt_row_degrades_to_rebuild(self, tmp_path):
        path = str(tmp_path / "kernels.sqlite")
        configure_kernel_store(path)
        build_kernel()
        # Trash the stored payload behind the cache's back.
        store = batch_mod._kernel_store(batch_mod._STORE_PATH)
        store._conn.execute("UPDATE kernels SET payload = ?",
                            (pickle.dumps({"not": "a kernel"}),))
        store._conn.commit()
        clear_kernel_cache()
        reset_kernel_cache_stats()
        kernel = build_kernel()
        assert kernel is not None  # rebuilt, not crashed
        stats = kernel_cache_stats()
        assert stats["tabulations"] == 1
        assert stats["store_misses"] == 1

    def test_store_read_error_is_a_counted_miss(self, tmp_path,
                                                 monkeypatch):
        """A store that cannot be read (locked past the timeout,
        malformed after open) must cost one tabulation, not the chunk."""
        configure_kernel_store(str(tmp_path / "kernels.sqlite"))

        def locked(_self, _key):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(KernelStore, "get", locked)
        reset_kernel_cache_stats()
        errors = metrics.counter("repro_store_ops_total", store="kernel",
                                 op="error")
        before = errors.value
        assert build_kernel() is not None
        stats = kernel_cache_stats()
        assert stats["store_misses"] == 1
        assert stats["tabulations"] == 1
        assert errors.value == before + 1

    def test_encoding_bug_is_not_swallowed_as_cache_trouble(
            self, tmp_path, monkeypatch):
        """Only sqlite errors are 'cache trouble'; a bug in the
        serializer has to surface."""
        configure_kernel_store(str(tmp_path / "kernels.sqlite"))

        def buggy(_kernel):
            raise TypeError("serializer bug")

        monkeypatch.setattr(batch_mod, "_encode_kernel", buggy)
        with pytest.raises(TypeError, match="serializer bug"):
            build_kernel()

    def test_decoding_bug_is_not_swallowed_as_a_stale_row(
            self, tmp_path, monkeypatch):
        """A stale or corrupt row (unpicklable, truncated, missing
        fields, mis-shaped tables) is a counted miss; anything else the
        decoder raises is a bug and surfaces."""
        configure_kernel_store(str(tmp_path / "kernels.sqlite"))
        build_kernel()
        store = batch_mod._kernel_store(batch_mod._STORE_PATH)
        good, = store._conn.execute("SELECT payload FROM kernels").fetchone()
        body = pickle.loads(good)
        for corrupt in (b"not a pickle", good[:20],
                        pickle.dumps({**body, "shape": (1, 1)})):
            store._conn.execute("UPDATE kernels SET payload = ?", (corrupt,))
            store._conn.commit()
            clear_kernel_cache()
            reset_kernel_cache_stats()
            assert build_kernel() is not None
            assert kernel_cache_stats()["store_misses"] == 1

        def buggy(_payload):
            raise TypeError("decoder bug")

        clear_kernel_cache()
        monkeypatch.setattr(batch_mod, "_decode_kernel", buggy)
        with pytest.raises(TypeError, match="decoder bug"):
            build_kernel()

    def test_unusable_store_path_is_rejected(self, tmp_path):
        """Not silently in-memory: the caller asked for a store."""
        with pytest.raises(sqlite3.Error, match="cannot open kernel cache"):
            configure_kernel_store(str(tmp_path))  # a directory, not a db

    def test_env_fallback_configures_store(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(batch_mod.KERNEL_CACHE_ENV, path)
        configure_kernel_store(None)
        assert batch_mod._kernel_store(batch_mod._STORE_PATH).path == path
        build_kernel()
        store = KernelStore(path)
        assert len(store) == 1
        store.close()

    def test_env_names_the_store_without_a_configure_call(
            self, tmp_path, monkeypatch):
        """How the batch bench runs in CI: ``$REPRO_BATCH_KERNEL_CACHE``
        set, admission driven directly — the lookup resolves it."""
        path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(batch_mod.KERNEL_CACHE_ENV, path)
        build_kernel()
        store = KernelStore(path)
        assert len(store) == 1
        store.close()

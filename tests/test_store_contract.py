"""The contract both sqlite caches inherit from ``repro.sqlite_cache``.

``VerdictStore`` and ``KernelStore`` share one base for connection
set-up, the bounded-retry write and how a store is used — one way to
open (``open_store``), one way to fail (``best_effort``), one eviction
rule (``MAX_ROWS``); every behaviour that base owns — the one rule for
a file in an unknown format included — is pinned here once, over both
stores.  What is a store's own (``touch_many``, the oracle/batch
integration) is tested next to it in
``tests/campaigns/test_verdict_store.py`` and
``tests/exec/test_kernel_store.py``.
"""

import os
import sqlite3

import pytest

from repro.campaigns import VerdictStore
from repro.exec.kernel_store import KernelStore
from repro.obs import metrics
from repro.sqlite_cache import open_store


class Verdicts:
    """Row methods of the verdict store, behind the suite's two verbs."""

    cls = VerdictStore

    @staticmethod
    def put(store, key, tag="smt"):
        store.put(key, True, tag)

    @staticmethod
    def read(store, key):
        row = store.get(key)
        return None if row is None else row[1]


class Kernels:
    """Row methods of the kernel store."""

    cls = KernelStore

    @staticmethod
    def put(store, key, tag="tables"):
        store.put(key, tag.encode())

    @staticmethod
    def read(store, key):
        found, payload = store.get(key)
        return payload.decode() if found else None


@pytest.fixture(params=[Verdicts, Kernels], ids=["verdict", "kernel"])
def kind(request):
    return request.param


def keys(store) -> set:
    return {key for key, in store._conn.execute(
        f"SELECT key FROM {store.TABLE}")}


def test_duplicate_put_is_ignored(kind, tmp_path):
    path = str(tmp_path / "s.sqlite")
    first, second = kind.cls(path), kind.cls(path)
    kind.put(first, "key", "first")
    kind.put(second, "key", "second")  # the racing worker's duplicate
    assert len(first) == 1
    assert kind.read(first, "key") == "first"
    first.close()
    second.close()


def test_reopen_sees_previous_writes(kind, tmp_path):
    path = str(tmp_path / "s.sqlite")
    store = kind.cls(path)
    kind.put(store, "key", "kept")
    store.close()
    store = kind.cls(path)
    assert kind.read(store, "key") == "kept"
    store.close()


def test_size_bound_keeps_the_newest_rows(kind, tmp_path, monkeypatch):
    """The one eviction rule: past ``MAX_ROWS`` the oldest rows go, on
    open — by ``created_at`` alone, whatever was read or hit since."""
    path = str(tmp_path / "s.sqlite")
    store = kind.cls(path)
    for i in range(7):
        kind.put(store, f"k{i}")
        store._conn.execute(  # insertion order is not age: k6 is oldest
            f"UPDATE {store.TABLE} SET created_at = ? WHERE key = ?",
            (1000.0 - i, f"k{i}"))
    store._conn.commit()
    for _ in range(5):  # a much-read row is not a protected row
        assert kind.read(store, "k6") is not None
    store.close()
    store = kind.cls(path)  # under the class's bound: untouched
    assert len(store) == 7 and store.last_retention == {}
    store.close()
    monkeypatch.setattr(kind.cls, "MAX_ROWS", 3)
    store = kind.cls(path)
    assert keys(store) == {"k0", "k1", "k2"}
    assert store.last_retention == {"size_evicted": 4}
    store.close()


def _restamp(conn, table, version):
    conn.execute(f"PRAGMA user_version = {version}")


def _drop_created_at_column(conn, table, _version):
    # Rebuild without the column (portable across sqlite versions); the
    # stamp stays current, so only the column set gives the file away.
    columns = [row[1] for row in conn.execute(f"PRAGMA table_info({table})")
               if row[1] != "created_at"]
    conn.execute(f"CREATE TABLE narrow AS SELECT {', '.join(columns)} "
                 f"FROM {table}")
    conn.execute(f"DROP TABLE {table}")
    conn.execute(f"ALTER TABLE narrow RENAME TO {table}")


@pytest.mark.parametrize("damage,version_delta", [
    (_restamp, -1), (_restamp, +1), (_drop_created_at_column, 0),
], ids=["older-stamp", "newer-stamp", "missing-column"])
def test_unknown_format_is_emptied_not_migrated(kind, tmp_path, damage,
                                                version_delta):
    """Caches are disposable: whatever another version of the code left
    in the file, the store opens empty, says how many rows that cost, and
    serves put/get/reopen from there on."""
    path = str(tmp_path / "s.sqlite")
    store = kind.cls(path)
    assert store.last_retention == {}  # a fresh file is only stamped
    current = store.SCHEMA_VERSION
    for i in range(3):
        kind.put(store, f"k{i}")
    store.close()
    conn = sqlite3.connect(path)
    damage(conn, kind.cls.TABLE, current + version_delta)
    conn.commit()
    conn.close()

    store = kind.cls(path)
    assert len(store) == 0
    assert store.last_retention == {"format_dropped": 3}
    assert store.stats()["schema_version"] == current
    kind.put(store, "fresh", "after")
    assert kind.read(store, "fresh") == "after"
    store.close()
    store = kind.cls(path)
    assert store.last_retention == {}  # dropped once, not on every open
    assert kind.read(store, "fresh") == "after"
    store.close()


def test_busy_timeout_is_configured(kind, tmp_path):
    store = kind.cls(str(tmp_path / "s.sqlite"))
    timeout = store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
    store.close()
    assert timeout >= 30_000


@pytest.mark.parametrize("message", ["database is locked",
                                     "database table is BUSY"])
def test_retry_locked_retries_contention(kind, tmp_path, monkeypatch,
                                         message):
    monkeypatch.setattr("repro.sqlite_cache.time.sleep", lambda _s: None)
    store = kind.cls(str(tmp_path / "s.sqlite"))
    calls = []

    def contended_twice():
        calls.append(1)
        if len(calls) < 3:
            raise sqlite3.OperationalError(message)

    store._retry_locked(contended_twice)
    assert len(calls) == 3

    def contended_forever():
        calls.append(1)
        raise sqlite3.OperationalError(message)

    del calls[:]
    with pytest.raises(sqlite3.OperationalError):
        store._retry_locked(contended_forever, attempts=4)
    assert len(calls) == 4
    store.close()


def test_retry_locked_reraises_everything_else(kind, tmp_path):
    store = kind.cls(str(tmp_path / "s.sqlite"))
    calls = []

    def readonly():
        calls.append(1)
        raise sqlite3.OperationalError(
            "attempt to write a readonly database")

    with pytest.raises(sqlite3.OperationalError, match="readonly"):
        store._retry_locked(readonly)
    assert len(calls) == 1  # will not heal in five sleeps: no retry
    store.close()


# -- one way to open -----------------------------------------------------------


@pytest.fixture
def no_open_store(kind):
    """Every test starts and ends with no ``kind`` store attached."""
    open_store(kind.cls, None)
    yield
    open_store(kind.cls, None)


def _is_open(store) -> bool:
    try:
        len(store)
    except sqlite3.ProgrammingError:  # "Cannot operate on a closed database"
        return False
    return True


def test_open_store_is_one_handle_per_path(kind, tmp_path, no_open_store):
    first = str(tmp_path / "a.sqlite")
    store = open_store(kind.cls, first)
    assert isinstance(store, kind.cls) and store.path == first
    assert open_store(kind.cls, first) is store  # idempotent per path
    other = open_store(kind.cls, str(tmp_path / "b.sqlite"))
    assert other is not store
    assert not _is_open(store)  # a path change closes the old handle
    assert open_store(kind.cls, None) is None
    assert not _is_open(other)


def test_open_store_keeps_the_stores_apart(tmp_path):
    path = str(tmp_path / "v.sqlite")
    try:
        verdicts = open_store(VerdictStore, path)
        assert open_store(KernelStore, None) is None
        assert open_store(VerdictStore, path) is verdicts
    finally:
        open_store(VerdictStore, None)


def test_forked_process_reopens_and_leaves_the_inherited_handle(
        kind, tmp_path, no_open_store, monkeypatch):
    """What a pool worker sees: the parent's handle, under another pid.
    It must get its own connection and must not close the parent's."""
    path = str(tmp_path / "s.sqlite")
    parents = open_store(kind.cls, path)
    kind.put(parents, "key", "parent")
    real_pid = os.getpid()
    monkeypatch.setattr("repro.sqlite_cache.os.getpid", lambda: real_pid + 1)
    workers = open_store(kind.cls, path)
    assert workers is not parents
    assert _is_open(parents)  # dropped, not closed: the parent owns it
    assert kind.read(workers, "key") == "parent"
    assert open_store(kind.cls, path) is workers
    monkeypatch.undo()
    workers.close()
    parents.close()


def test_unopenable_path_is_a_typed_error_and_attaches_nothing(
        kind, tmp_path, no_open_store):
    with pytest.raises(sqlite3.Error,
                       match=f"cannot open {kind.cls.NAME} cache "):
        open_store(kind.cls, str(tmp_path))  # a directory, not a db
    assert open_store(kind.cls, None) is None


# -- one way to fail -------------------------------------------------------------


def test_best_effort_counts_and_swallows_sqlite_errors_only(kind, tmp_path):
    store = kind.cls(str(tmp_path / "s.sqlite"))
    errors = metrics.counter("repro_store_ops_total", store=kind.cls.NAME,
                             op="error")
    before = errors.value
    with store.best_effort():
        raise sqlite3.OperationalError("database is locked")
    with store.best_effort():
        raise sqlite3.DatabaseError("database disk image is malformed")
    assert errors.value == before + 2
    with pytest.raises(TypeError):  # a bug is not cache trouble
        with store.best_effort():
            raise TypeError("serializer bug")
    assert errors.value == before + 2
    store.close()

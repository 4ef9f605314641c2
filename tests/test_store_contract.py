"""The contract both sqlite caches inherit from ``repro.sqlite_cache``.

``VerdictStore`` and ``KernelStore`` share one base for connection
set-up, open-time retention, the bounded-retry write and ``compact``;
every behaviour that base owns — the one rule for a file in an unknown
format included — is pinned here once, over both stores.  What is a
store's own (``put_deeper``, ``touch_many``, the oracle/batch
integration) is tested next to it in
``tests/campaigns/test_verdict_store.py`` and
``tests/exec/test_kernel_store.py``.
"""

import sqlite3
import time

import pytest

from repro.campaigns import VerdictStore
from repro.exec.kernel_store import KernelStore
from repro.sqlite_cache import NO_RETENTION, RetentionPolicy

DAY = 86_400.0


class Verdicts:
    """Row methods of the verdict store, behind the suite's three verbs."""

    cls = VerdictStore

    @staticmethod
    def put(store, key, tag="smt"):
        store.put(key, True, tag)

    @staticmethod
    def read(store, key):
        row = store.get(key)
        return None if row is None else row[1]

    @staticmethod
    def hit(store, key, count):
        store.touch_many({key: count})


class Kernels:
    """Row methods of the kernel store (a found ``get`` counts one hit)."""

    cls = KernelStore

    @staticmethod
    def put(store, key, tag="tables"):
        store.put(key, tag.encode())

    @staticmethod
    def read(store, key):
        found, payload = store.get(key)
        return payload.decode() if found else None

    @staticmethod
    def hit(store, key, count):
        for _ in range(count):
            store.get(key)


@pytest.fixture(params=[Verdicts, Kernels], ids=["verdict", "kernel"])
def kind(request):
    return request.param


def hits_by_key(store) -> dict:
    """``key → hits`` straight off the table (reads count no hits)."""
    return dict(store._conn.execute(
        f"SELECT key, hits FROM {store.TABLE}"))


def only(**bound) -> RetentionPolicy:
    """A policy with exactly the given bound on; the others off."""
    fields = {"max_rows": 0, "max_age_days": 0.0,
              "decay_half_life_days": 0.0}
    fields.update(bound)
    return RetentionPolicy(**fields)


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


def test_hit_counts_decay_per_half_life(kind, tmp_path):
    path = str(tmp_path / "s.sqlite")
    t0 = time.time()
    store = kind.cls(path, now=t0)  # stamps last_decay_at
    kind.put(store, "hot")
    kind.hit(store, "hot", 9)
    store.close()
    # Two half-lives later: 9 -> 2 (integer halving twice).
    store = kind.cls(path, retention=only(decay_half_life_days=7.0),
                     now=t0 + 15 * DAY)
    assert hits_by_key(store) == {"hot": 2}
    assert store.last_retention == {"decay_halvings": 2}
    store.close()


def test_age_bound_evicts_cold_rows_only(kind, tmp_path):
    path = str(tmp_path / "s.sqlite")
    store = kind.cls(path)
    kind.put(store, "cold")
    kind.put(store, "warm")
    kind.hit(store, "warm", 1)
    store.close()
    store = kind.cls(path, retention=only(max_age_days=30.0),
                     now=time.time() + 40 * DAY)
    assert set(hits_by_key(store)) == {"warm"}  # still hit-protected
    assert store.last_retention == {"age_evicted": 1}
    store.close()


def test_size_bound_evicts_coldest_first(kind, tmp_path):
    path = str(tmp_path / "s.sqlite")
    store = kind.cls(path)
    for i in range(6):
        kind.put(store, f"k{i}")
    kind.hit(store, "k4", 3)
    kind.hit(store, "k5", 5)
    store.close()
    store = kind.cls(path, retention=only(max_rows=2))
    assert hits_by_key(store) == {"k4": 3, "k5": 5}
    assert store.last_retention == {"size_evicted": 4}
    store.close()


def test_no_retention_mutates_nothing(kind, tmp_path):
    path = str(tmp_path / "s.sqlite")
    t0 = time.time()
    store = kind.cls(path, now=t0)
    kind.put(store, "ancient")
    kind.put(store, "hot")
    kind.hit(store, "hot", 9)
    store.close()
    store = kind.cls(path, retention=NO_RETENTION, now=t0 + 1000 * DAY)
    assert hits_by_key(store) == {"ancient": 0, "hot": 9}
    assert store.last_retention == {}
    store.close()


def _restamp(conn, table, version):
    conn.execute(f"PRAGMA user_version = {version}")


def _drop_hits_column(conn, table, _version):
    # Rebuild without the column (portable across sqlite versions); the
    # stamp stays current, so only the column set gives the file away.
    columns = [row[1] for row in conn.execute(f"PRAGMA table_info({table})")
               if row[1] != "hits"]
    conn.execute(f"CREATE TABLE narrow AS SELECT {', '.join(columns)} "
                 f"FROM {table}")
    conn.execute(f"DROP TABLE {table}")
    conn.execute(f"ALTER TABLE narrow RENAME TO {table}")


@pytest.mark.parametrize("damage,version_delta", [
    (_restamp, -1), (_restamp, +1), (_drop_hits_column, 0),
], ids=["older-stamp", "newer-stamp", "missing-column"])
def test_unknown_format_is_emptied_not_migrated(kind, tmp_path, damage,
                                                version_delta):
    """Caches are disposable: whatever another version of the code left
    in the file, the store opens empty, says how many rows that cost, and
    serves put/get/reopen from there on — under ``NO_RETENTION`` too."""
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

    store = kind.cls(path, retention=NO_RETENTION)
    assert len(store) == 0
    assert store.last_retention == {"format_dropped": 3}
    assert store.stats()["schema_version"] == current
    kind.put(store, "fresh", "after")
    kind.hit(store, "fresh", 2)
    assert kind.read(store, "fresh") == "after"
    store.close()
    store = kind.cls(path)
    assert store.last_retention == {}  # dropped once, not on every open
    assert kind.read(store, "fresh") == "after"
    store.close()


def test_compact_drops_only_never_hit_rows(kind, tmp_path):
    store = kind.cls(str(tmp_path / "s.sqlite"))
    kind.put(store, "hot")
    kind.put(store, "cold")
    kind.hit(store, "hot", 1)
    assert store.compact() == 1
    assert set(hits_by_key(store)) == {"hot"}
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

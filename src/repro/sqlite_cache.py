"""One sqlite cache base for the verdict and kernel stores.

Both persistent caches (:mod:`repro.campaigns.verdict_store`,
:mod:`repro.exec.kernel_store`) are one content-addressed ``key → row``
table with a ``created_at`` column, in a single sqlite file that several
campaign processes write through at once.  What follows from that lives
here once, parameterized by the subclass's table name: the connection
and its pragmas, serialized open-time hygiene, the bounded-retry write —
and how a store is *used*: one way to open (:func:`open_store`), one way
to fail (:meth:`SqliteCache.best_effort`), one eviction rule
(``MAX_ROWS``).  A store adds only its table schema and version, its row
methods and ``stats()``.

The stores are caches, so a file in a format this code does not write —
an older or newer ``user_version`` stamp, or a column set other than
the schema's — is emptied on open, not migrated, and a file grown past
``MAX_ROWS`` loses its oldest rows: every row re-derives on its next
encounter.

Racing writers are expected: WAL keeps readers off the writers' locks
and the stores' writes are idempotent (``INSERT OR IGNORE``, additive
hit counts), so two workers that computed the same row are harmless.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import time

from .obs import metrics as _obs_metrics


class SqliteCache:
    """An append-mostly ``key → row`` sqlite table, bounded on open.

    Subclasses set ``NAME`` (the ``store`` label of their
    ``repro_store_ops_total`` series), ``TABLE``, ``SCHEMA`` (its
    ``CREATE TABLE IF NOT EXISTS``; the table must carry ``key`` and
    ``created_at``), ``SCHEMA_VERSION`` (stamped as ``PRAGMA
    user_version``; bump it with any change to the columns, the key
    rendering or the payload) and ``MAX_ROWS`` (the one eviction rule:
    beyond it the oldest rows go, on open).
    """

    NAME: str
    TABLE: str
    SCHEMA: str
    SCHEMA_VERSION: int
    MAX_ROWS: int

    def __init__(self, path: str):
        self.path = path
        #: What the automatic open-time hygiene did (for stats/tests).
        self.last_retention: dict[str, int] = {}
        self._conn = sqlite3.connect(path, timeout=30.0)
        try:  # WAL lets sibling workers read while one writes.
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:
            pass  # e.g. unsupported filesystem; rollback journal still works
        # Belt and braces with the connect timeout: make sqlite itself
        # retry on a sibling writer's lock instead of raising
        # SQLITE_BUSY into a multi-writer campaign.
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute(self.SCHEMA)
        self._conn.commit()
        # Serialize racing openers (parallel workers all open the store):
        # take the write lock up front, then check the format stamp and
        # the size under it — the losers of the race see the winner's
        # stamp instead of acting on a stale snapshot (a second drop, or
        # SQLITE_BUSY upgrading a deferred read transaction).
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._check_format()
            self._evict_oldest()
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

    # -- open-time hygiene ----------------------------------------------------

    def _check_format(self) -> None:
        """Empty a file this code did not write; stamp a fresh one."""
        def columns(conn):
            return {row[1] for row in
                    conn.execute(f"PRAGMA table_info({self.TABLE})")}

        with contextlib.closing(sqlite3.connect(":memory:")) as blank:
            blank.execute(self.SCHEMA)
            expected = columns(blank)
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version == self.SCHEMA_VERSION \
                and columns(self._conn) == expected:
            return
        lost = len(self)  # 0: a fresh file, only the stamp is missing
        self._conn.execute(f"DROP TABLE {self.TABLE}")
        self._conn.execute(self.SCHEMA)
        self._conn.execute(f"PRAGMA user_version = {self.SCHEMA_VERSION}")
        if lost:
            self.last_retention["format_dropped"] = lost

    def _evict_oldest(self) -> None:
        excess = len(self) - self.MAX_ROWS
        if excess > 0:
            self._conn.execute(
                f"DELETE FROM {self.TABLE} WHERE key IN ("
                f"SELECT key FROM {self.TABLE} "
                f"ORDER BY created_at ASC, key LIMIT ?)", (excess,))
            self.last_retention["size_evicted"] = excess

    # -- writes ---------------------------------------------------------------

    def _retry_locked(self, write, attempts: int = 5) -> None:
        """Run one write+commit, retrying transient lock errors.

        ``busy_timeout`` already makes sqlite wait out a sibling's
        transaction, but a writer can still surface ``database is locked``
        when the wait expires under a pathologically slow sibling writer
        (or a network filesystem hiccup).  Cache writes are idempotent,
        so a short bounded retry is strictly better than killing the
        worker.
        """
        for attempt in range(attempts):
            try:
                write()
                self._conn.commit()
                return
            except sqlite3.OperationalError as error:
                try:
                    self._conn.rollback()
                except sqlite3.OperationalError:
                    pass
                # Only contention is transient; a readonly database or a
                # full disk will not heal in five sleeps — surface it.
                message = str(error).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == attempts - 1:
                    raise
                time.sleep(0.05 * (attempt + 1))

    # -- use ------------------------------------------------------------------

    @contextlib.contextmanager
    def best_effort(self):
        """The one failure policy for a store in use: a ``sqlite3.Error``
        out of the guarded read or write is counted and swallowed — the
        caller goes on with a miss, or without the write; the row
        re-derives.  (Whether a path can be opened at all is settled
        before the first scenario: ``CampaignRunner.run`` rejects it.)
        """
        try:
            yield
        except sqlite3.Error:
            _obs_metrics.counter("repro_store_ops_total", store=self.NAME,
                                 op="error").inc()

    def __len__(self) -> int:
        return self._conn.execute(
            f"SELECT COUNT(*) FROM {self.TABLE}").fetchone()[0]

    def close(self) -> None:
        self._conn.close()


#: Store class → ``(path, pid, store)``: the process's one handle on it.
_OPEN: dict[type, tuple] = {}


def open_store(cls: type[SqliteCache], path: str | None):
    """This process's ``cls`` store at ``path`` (``None``: no store).

    Idempotent per ``(path, pid)`` — workers call it once per chunk at
    negligible cost — and the only place a store is opened or switched:
    a path change closes the old handle first.  The pid guard matters
    under fork-based process pools: a forked worker inherits the
    parent's sqlite connection, which sqlite forbids sharing across
    processes, so the worker drops the inherited handle *unclosed* (the
    parent owns it) and opens its own.  A path that cannot be opened
    raises ``sqlite3.Error`` and leaves no store attached.
    """
    pid = os.getpid()
    held_path, held_pid, store = _OPEN.get(cls, (None, pid, None))
    if (held_path, held_pid) != (path, pid):
        if store is not None and held_pid == pid:
            store.close()
        _OPEN[cls] = (None, pid, None)
        try:
            store = None if path is None else cls(path)
        except sqlite3.Error as error:
            raise sqlite3.OperationalError(
                f"cannot open {cls.NAME} cache {path}: {error}") from error
        _OPEN[cls] = (path, pid, store)
    return store

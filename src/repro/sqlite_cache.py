"""One sqlite cache base for the verdict and kernel stores.

Both persistent caches (:mod:`repro.campaigns.verdict_store`,
:mod:`repro.exec.kernel_store`) are one content-addressed ``key → row``
table with ``created_at`` and ``hits`` columns, in a single sqlite file
that several campaign processes write through at once.  What
follows from that lives here once, parameterized by the subclass's
table name: the connection and its pragmas, serialized open-time
hygiene, hit-decay / age / size retention, the ``store_meta`` side
table, the bounded-retry write and ``compact``.  A store adds only its
table schema and version, its row methods and ``stats()``.

The stores are caches, so a file in a format this code does not write —
an older or newer ``user_version`` stamp, or a column set other than
the schema's — is emptied on open, not migrated: every row re-derives
on its next encounter.

Racing writers are expected: WAL keeps readers off the writers' locks
and the stores' writes are idempotent (``INSERT OR IGNORE``, additive
hit counts), so two workers that computed the same row are harmless.
"""

from __future__ import annotations

import contextlib
import sqlite3
import time
from dataclasses import dataclass

_META_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    name  TEXT PRIMARY KEY,
    value REAL NOT NULL
)
"""

_DAY_S = 86_400.0


@dataclass(frozen=True)
class RetentionPolicy:
    """Automatic hygiene bounds applied every time a store is opened;
    a bound of zero is off.

    ``max_rows``
        Hard size bound; beyond it the coldest rows (fewest hits, then
        oldest) are evicted regardless of age.
    ``max_age_days``
        Rows whose (decayed) hit count is zero and whose age exceeds the
        bound are evicted — they re-derive on the next encounter.
    ``decay_half_life_days``
        Hit counts are integer-halved once per elapsed half-life, so a
        row that stops being hit loses its protection gradually instead
        of keeping a stale high-water mark forever.
    """

    max_rows: int
    max_age_days: float
    decay_half_life_days: float


#: Opt-out policy for callers that must not decay or evict on open (the
#: format rule still applies: rows in an unknown format are unreadable).
NO_RETENTION = RetentionPolicy(max_rows=0, max_age_days=0.0,
                               decay_half_life_days=0.0)


class SqliteCache:
    """An append-mostly ``key → row`` sqlite table with hit-count hygiene.

    Subclasses set ``TABLE``, ``SCHEMA`` (its ``CREATE TABLE IF NOT
    EXISTS``; the table must carry ``key``, ``created_at`` and ``hits``),
    ``SCHEMA_VERSION`` (stamped as ``PRAGMA user_version``; bump it with
    any change to the columns, the key rendering or the payload) and
    ``DEFAULT_RETENTION``.
    """

    TABLE: str
    SCHEMA: str
    SCHEMA_VERSION: int
    DEFAULT_RETENTION: RetentionPolicy

    def __init__(self, path: str,
                 retention: RetentionPolicy | None = None,
                 now: float | None = None):
        self.path = path
        self.retention = retention or self.DEFAULT_RETENTION
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
        self._conn.execute(_META_SCHEMA)
        self._conn.commit()
        # Serialize racing openers (parallel workers all open the store):
        # take the write lock up front, then check the format stamp /
        # decay timestamps under it — the losers of the race see the
        # winner's stamp instead of acting on a stale snapshot (a second
        # drop, a double decay, or SQLITE_BUSY upgrading a deferred read
        # transaction).
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._check_format()
            self._apply_retention(now if now is not None else time.time())
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

    # -- the format rule ------------------------------------------------------

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

    # -- automatic retention --------------------------------------------------

    def _apply_retention(self, now: float) -> None:
        policy = self.retention
        stats = self.last_retention
        table = self.TABLE
        half_life_s = policy.decay_half_life_days * _DAY_S
        if half_life_s > 0:
            last = self._meta("last_decay_at")
            if last is None:
                self._set_meta("last_decay_at", now)
            else:
                halvings = int((now - last) / half_life_s)
                if halvings > 0:
                    # hits >> halvings, floored at 0.
                    self._conn.execute(
                        f"UPDATE {table} SET hits = hits / ? WHERE hits > 0",
                        (2 ** min(halvings, 62),))
                    self._set_meta("last_decay_at",
                                   last + halvings * half_life_s)
                    stats["decay_halvings"] = halvings
        if policy.max_age_days > 0:
            evicted = self._conn.execute(
                f"DELETE FROM {table} WHERE hits = 0 AND created_at < ?",
                (now - policy.max_age_days * _DAY_S,)).rowcount
            if evicted:
                stats["age_evicted"] = evicted
        if policy.max_rows > 0:
            excess = len(self) - policy.max_rows
            if excess > 0:
                self._conn.execute(
                    f"DELETE FROM {table} WHERE key IN ("
                    f"SELECT key FROM {table} "
                    f"ORDER BY hits ASC, created_at ASC LIMIT ?)",
                    (excess,))
                stats["size_evicted"] = excess

    def _meta(self, name: str) -> float | None:
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE name = ?", (name,)).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, name: str, value: float) -> None:
        self._conn.execute(
            "INSERT INTO store_meta (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = excluded.value",
            (name, value))

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

    # -- hygiene ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._conn.execute(
            f"SELECT COUNT(*) FROM {self.TABLE}").fetchone()[0]

    def compact(self) -> int:
        """Evict never-hit rows and reclaim the space; returns the count.

        Retention bounds the store automatically on open; ``compact`` is
        the aggressive manual variant — *every* zero-hit row goes,
        regardless of age, and the file is VACUUMed.
        """
        evicted = self._conn.execute(
            f"DELETE FROM {self.TABLE} WHERE hits = 0").rowcount
        self._conn.commit()
        self._conn.execute("VACUUM")
        return evicted

    def close(self) -> None:
        self._conn.close()

"""Cross-process persistence for safety verdicts (schema v4).

The per-process memo in :mod:`repro.campaigns.oracle` pays for each
distinct constraint system once per worker *lifetime*; this module makes
verdicts survive across processes and campaign invocations, so repeated
campaigns and CI runs skip already-proved algebras entirely.

Verdicts are content-addressed by the ``repr`` of
:func:`~repro.campaigns.canonical.canonical_key`, a name-faithful
rendering of the subject, so only the same system under the same names
hits a row.  ``INSERT OR IGNORE`` makes duplicate solves from racing
workers harmless (both computed the same verdict from the same key).

Connection handling, multi-writer hardening, the ``MAX_ROWS`` bound and
the failure policy are :class:`repro.sqlite_cache.SqliteCache`'s — the
base this store shares with :mod:`repro.exec.kernel_store`, and so is
the one format rule: a file stamped with another ``user_version`` (or
carrying other columns: a v3 file still has a ``hits`` column) is
emptied on open, never re-keyed — a lost verdict costs one solve.  What
is here is the verdict table and its row methods.  A read writes
nothing: how often a verdict was reused is not recorded, because no
decision reads it.
"""

from __future__ import annotations

import time

from ..obs import metrics as _obs_metrics
from ..sqlite_cache import SqliteCache

#: Store I/O counters: the only record of reads — a read writes nothing.
_STORE_OPS = {
    op: _obs_metrics.counter("repro_store_ops_total", store="verdict",
                             op=op)
    for op in ("get_hit", "get_miss", "put")
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    key        TEXT PRIMARY KEY,
    safe       INTEGER NOT NULL,
    method     TEXT NOT NULL,
    created_at REAL NOT NULL
)
"""


class VerdictStore(SqliteCache):
    """An append-mostly ``canonical key → (safe, method)`` sqlite store."""

    NAME = "verdict"
    TABLE = "verdicts"
    SCHEMA = _SCHEMA
    SCHEMA_VERSION = 4
    #: One 540-scenario admitted campaign writes 201 rows (numbers in
    #: ``exec/README.md``): the bound is a backstop, not a working set.
    MAX_ROWS = 100_000

    def load_all(self) -> dict[str, tuple[bool, str]]:
        """Every stored verdict — loaded into a worker memo at startup."""
        rows = self._conn.execute(
            "SELECT key, safe, method FROM verdicts").fetchall()
        return {key: (bool(safe), method) for key, safe, method in rows}

    def get(self, key: str) -> tuple[bool, str] | None:
        row = self._conn.execute(
            "SELECT safe, method FROM verdicts WHERE key = ?",
            (key,)).fetchone()
        if row is None:
            _STORE_OPS["get_miss"].inc()
            return None
        _STORE_OPS["get_hit"].inc()
        return bool(row[0]), row[1]

    def put(self, key: str, safe: bool, method: str) -> None:
        """Record one verdict; racing duplicates are ignored, not errors."""
        _STORE_OPS["put"].inc()
        self._retry_locked(
            lambda: self._conn.execute(
                "INSERT OR IGNORE INTO verdicts "
                "(key, safe, method, created_at) VALUES (?, ?, ?, ?)",
                (key, int(safe), method, time.time())))

    def touch_many(self, counts: dict[str, int]) -> None:
        """Nothing: reuse counts are not stored.  The benchmark's boundary
        shims (``benchmarks/e2e/shims.py``) still wrap this name."""

    def stats(self) -> dict:
        """Row statistics for ``repro verdicts``."""
        total, safe = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(safe), 0) "
            "FROM verdicts").fetchone()
        methods = dict(self._conn.execute(
            "SELECT method, COUNT(*) FROM verdicts GROUP BY method"))
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        return {
            "verdicts": total,
            "safe": safe,
            "unsafe": total - safe,
            "methods": methods,
            "schema_version": version,
            "retention": dict(self.last_retention),
        }

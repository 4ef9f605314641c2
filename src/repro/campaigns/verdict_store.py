"""Cross-process persistence for safety verdicts (schema v3).

The per-process memo in :mod:`repro.campaigns.oracle` pays for each
distinct constraint system once per worker *lifetime*; this module makes
verdicts survive across processes and campaign invocations, so repeated
campaigns and CI runs skip already-proved algebras entirely.

Verdicts are content-addressed by the ``repr`` of
:func:`~repro.campaigns.canonical.canonical_key` — since schema v3 an
*isomorphism-invariant* rendering (canonically relabeled SPP instances
and algebra signatures), so seeds that draw relabeled-but-isomorphic
instances hit the same row.  ``INSERT OR IGNORE`` makes duplicate solves
from racing workers harmless (both computed the same verdict from the
same key).

Connection handling, multi-writer hardening, the ``MAX_ROWS`` bound and
the failure policy are :class:`repro.sqlite_cache.SqliteCache`'s — the
base this store shares with :mod:`repro.exec.kernel_store`, and so is
the one format rule: a file stamped with another ``user_version`` (or
carrying other columns) is emptied on open, never re-keyed — a lost
verdict costs one solve.  What is here is the verdict table and its row
methods.
"""

from __future__ import annotations

import time

from ..obs import metrics as _obs_metrics
from ..sqlite_cache import SqliteCache

#: Store I/O counters: the live telemetry view.  (The durable per-row
#: ``hits`` column is telemetry too — ``repro verdicts --stats`` — and
#: decides nothing: eviction is by age of row, ``MAX_ROWS``.)
_STORE_OPS = {
    op: _obs_metrics.counter("repro_store_ops_total", store="verdict",
                             op=op)
    for op in ("get_hit", "get_miss", "put", "touch")
}

#: Memo hits a handle tallies before writing them through.
_PENDING_HITS_FLUSH_AT = 256

_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    key        TEXT PRIMARY KEY,
    safe       INTEGER NOT NULL,
    method     TEXT NOT NULL,
    created_at REAL NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0
)
"""


class VerdictStore(SqliteCache):
    """An append-mostly ``canonical key → (safe, method)`` sqlite store."""

    NAME = "verdict"
    TABLE = "verdicts"
    SCHEMA = _SCHEMA
    SCHEMA_VERSION = 3
    #: One 540-scenario admitted campaign writes 201 rows (numbers in
    #: ``exec/README.md``): the bound is a backstop, not a working set.
    MAX_ROWS = 100_000

    def __init__(self, path: str):
        super().__init__(path)
        #: Memo hits not yet written (flushed per chunk, at the threshold
        #: and on close — a warmed cache must not pay a write transaction
        #: per scenario).  The tally is the handle's: a forked worker
        #: drops the parent's with the inherited connection.
        self._pending_hits: dict[str, int] = {}

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

    def count_hit(self, key: str) -> None:
        """Tally one memo hit against the stored verdict."""
        pending = self._pending_hits
        pending[key] = pending.get(key, 0) + 1
        if sum(pending.values()) >= _PENDING_HITS_FLUSH_AT:
            self.flush_hits()

    def flush_hits(self) -> None:
        """Write the tallied hits through (best effort: telemetry)."""
        with self.best_effort():
            self.touch_many(self._pending_hits)
        self._pending_hits.clear()

    def touch_many(self, counts: dict[str, int]) -> None:
        """Add accumulated hit counts in one transaction."""
        if not counts:
            return
        _STORE_OPS["touch"].inc(sum(counts.values()))
        self._retry_locked(
            lambda: self._conn.executemany(
                "UPDATE verdicts SET hits = hits + ? WHERE key = ?",
                [(count, key) for key, count in counts.items()]))

    def stats(self) -> dict:
        """Row/hit statistics for ``repro verdicts --stats``."""
        total, safe, hits, never = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(safe), 0), "
            "COALESCE(SUM(hits), 0), "
            "COALESCE(SUM(CASE WHEN hits = 0 THEN 1 ELSE 0 END), 0) "
            "FROM verdicts").fetchone()
        methods = dict(self._conn.execute(
            "SELECT method, COUNT(*) FROM verdicts GROUP BY method"))
        hottest = self._conn.execute(
            "SELECT key, hits FROM verdicts WHERE hits > 0 "
            "ORDER BY hits DESC, key LIMIT 5").fetchall()
        # Name-faithful fallback renderings (budget burn / size limit in
        # `canonical_key`), top-level or inside a product: a relabeled
        # copy of the subject renders differently, so these rows are
        # only ever hit under the very same names.
        spp_raw, table_raw = self._conn.execute(
            "SELECT COALESCE(SUM(instr(key, ?) > 0), 0), "
            "COALESCE(SUM(instr(key, ?) > 0), 0) FROM verdicts",
            ("'spp-raw'", "'table-raw'")).fetchone()
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        return {
            "verdicts": total,
            "safe": safe,
            "unsafe": total - safe,
            "hits": hits,
            "never_hit": never,
            "raw_keys": {"spp-raw": spp_raw, "table-raw": table_raw},
            "methods": methods,
            "hottest": hottest,
            "schema_version": version,
            "retention": dict(self.last_retention),
        }

    def close(self) -> None:
        self.flush_hits()
        super().close()

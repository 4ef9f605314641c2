"""Cross-process persistence for tabulated batch kernels (schema v2).

The process caches in :mod:`repro.exec.batch` pay for each distinct
(algebra, transfer vocabulary) closure once per worker *lifetime*; this
module makes tabulated kernels survive across processes and campaign
invocations, so fleet workers and repeat campaigns skip re-tabulation
entirely.

Kernels are content-addressed by the ``repr`` of the batch backend's
process-cache key — the isomorphism-invariant
:func:`~repro.campaigns.canonical.canonical_key` of the algebra plus the
scenario's transfer vocabulary — so relabeled copies of one algebra
share a row, exactly mirroring the verdict store.  Negative results
("this algebra is not batchable over this vocabulary") are stored too,
as NULL payloads: a declined closure is as expensive to re-derive as an
accepted one.

Connection handling, multi-writer hardening and open-time retention are
:class:`repro.sqlite_cache.SqliteCache`'s — the base this store shares
with :mod:`repro.campaigns.verdict_store`; what is here is the kernel
table, its ``user_version``-gated migration and its row methods.
"""

from __future__ import annotations

import sqlite3
import time

from ..obs import metrics as _obs_metrics
from ..sqlite_cache import RetentionPolicy, SqliteCache

SCHEMA_VERSION = 2

#: Store I/O counters (the durable per-row ``hits`` column still drives
#: eviction; these registry series are the live telemetry view).
_STORE_OPS = {
    op: _obs_metrics.counter("repro_store_ops_total", store="kernel",
                             op=op)
    for op in ("get_hit", "get_miss", "put")
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kernels (
    key        TEXT PRIMARY KEY,
    payload    BLOB,
    created_at REAL NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0,
    depth      INTEGER NOT NULL DEFAULT 0
)
"""


class KernelStore(SqliteCache):
    """An append-mostly ``canonical kernel key → payload`` sqlite store.

    Payloads are opaque to the store — :mod:`repro.exec.batch` owns the
    serialization (pickled rank tables).  A NULL payload is a cached
    *negative* result: the algebra/vocabulary pair is known unbatchable.
    """

    TABLE = "kernels"
    SCHEMA = _SCHEMA
    #: Kernels are far fewer and far larger than verdicts (a campaign
    #: rotation draws tens of distinct algebras, each kernel carrying
    #: its ``int32`` rank tables), so the defaults bound *rows* much
    #: lower than the verdict store's, with the same decay/eviction shape.
    DEFAULT_RETENTION = RetentionPolicy(max_rows=4_096, max_age_days=90.0,
                                        decay_half_life_days=14.0)

    def _migrate(self) -> None:
        """Format changes re-key or drop rows here.  Always runs in
        full — a v1 store opened with ``NO_RETENTION`` still needs the
        depth column before any write can succeed.  Unknown *newer*
        versions drop the table rather than misread payloads (kernels
        are pure cache — losing them costs one re-tabulation each).

        v1→v2: add the ``depth`` column (bounded-hole deepening
        write-through) and drop cached *negative* rows.  v1 negatives
        encode "unbatchable under the v1 tie-respect gate", which the
        v2 hazard-guarded admission deliberately widens — keeping them
        would permanently pin newly admissible algebras to the scalar
        engines.  Positive rows are preserved verbatim: v1 payloads
        decode with conservative v2 defaults (a v1-stored monotone
        kernel is exactly a hazard-free one), so a warm fleet store
        re-tabulates nothing it already knows.
        """
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            dropped = self._conn.execute(
                "DELETE FROM kernels").rowcount
            if dropped:
                self.last_retention["format_dropped"] = dropped
        elif version == SCHEMA_VERSION:
            return
        elif version == 1:
            columns = {row[1] for row in self._conn.execute(
                "PRAGMA table_info(kernels)")}
            if "depth" not in columns:
                self._conn.execute(
                    "ALTER TABLE kernels ADD COLUMN "
                    "depth INTEGER NOT NULL DEFAULT 0")
            negatives = self._conn.execute(
                "DELETE FROM kernels WHERE payload IS NULL").rowcount
            if negatives:
                self.last_retention["negative_dropped"] = negatives
        # version 0 is a fresh database: SCHEMA already carries the
        # current shape, only the stamp is missing.
        self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def get(self, key: str) -> tuple[bool, bytes | None]:
        """``(found, payload)`` — payload None on a found row means a
        cached negative result ("unbatchable"), distinct from a miss.
        Hits are counted inline (one bounded-retry write; kernel lookups
        are orders of magnitude rarer than verdict lookups)."""
        row = self._conn.execute(
            "SELECT payload FROM kernels WHERE key = ?", (key,)).fetchone()
        if row is None:
            _STORE_OPS["get_miss"].inc()
            return False, None
        _STORE_OPS["get_hit"].inc()
        try:
            self._retry_locked(
                lambda: self._conn.execute(
                    "UPDATE kernels SET hits = hits + 1 WHERE key = ?",
                    (key,)))
        except sqlite3.OperationalError:
            pass  # bookkeeping only; the payload is already in hand
        return True, row[0]

    def put(self, key: str, payload: bytes | None,
            depth: int = 0) -> None:
        """Record one tabulated kernel (or negative result); racing
        duplicates are ignored, not errors — both workers tabulated the
        same tables from the same canonical key."""
        _STORE_OPS["put"].inc()
        self._retry_locked(
            lambda: self._conn.execute(
                "INSERT OR IGNORE INTO kernels "
                "(key, payload, created_at, depth) VALUES (?, ?, ?, ?)",
                (key, payload, time.time(), depth)))

    def put_deeper(self, key: str, payload: bytes | None,
                   depth: int) -> None:
        """Upsert a *deepened* kernel: replaces the stored payload only
        when ``depth`` strictly exceeds the row's — racing workers that
        deepened to different horizons converge on the deepest tables,
        and a late shallow writer can never clobber a deeper one."""
        _STORE_OPS["put"].inc()
        self._retry_locked(
            lambda: self._conn.execute(
                "INSERT INTO kernels (key, payload, created_at, depth) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "payload = excluded.payload, depth = excluded.depth "
                "WHERE excluded.depth > kernels.depth",
                (key, payload, time.time(), depth)))

    def stats(self) -> dict:
        total, negative, hits, size = self._conn.execute(
            "SELECT COUNT(*), "
            "COALESCE(SUM(CASE WHEN payload IS NULL THEN 1 ELSE 0 END), 0), "
            "COALESCE(SUM(hits), 0), "
            "COALESCE(SUM(LENGTH(COALESCE(payload, ''))), 0) "
            "FROM kernels").fetchone()
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        return {
            "kernels": total,
            "negative": negative,
            "hits": hits,
            "payload_bytes": size,
            "schema_version": version,
            "retention": dict(self.last_retention),
        }

"""Cross-process persistence for tabulated batch kernels (schema v5).

The process caches in :mod:`repro.exec.batch` pay for each distinct
(algebra, transfer vocabulary, depth) closure once per worker *lifetime*; this
module makes tabulated kernels survive across processes and campaign
invocations, so pool workers and repeat campaigns skip re-tabulation
entirely.

Kernels are content-addressed by the ``repr`` of the batch backend's
process-cache key — the isomorphism-invariant
:func:`~repro.campaigns.canonical.canonical_key` of the algebra plus the
scenario's transfer vocabulary and closure depth — so relabeled copies
of one algebra share a row, exactly mirroring the verdict store.
Negative results ("this algebra is not batchable over this vocabulary")
are stored too, as NULL payloads: a declined closure is as expensive to
re-derive as an accepted one.

Connection handling, multi-writer hardening, the ``MAX_ROWS`` bound and
the failure policy are :class:`repro.sqlite_cache.SqliteCache`'s — the
base this store shares with :mod:`repro.campaigns.verdict_store`, and so
is the one format rule: a file stamped with another ``user_version`` (a
v3 file keys kernels without their depth) or carrying other columns (a
v4 file still has ``depth``, a v2 file ``hits``) is emptied on open,
never migrated — a lost kernel costs one re-tabulation.  A row, once
written, is never rewritten: a kernel is a value.  What is here is the
kernel table and its row methods.
"""

from __future__ import annotations

import time

from ..obs import metrics as _obs_metrics
from ..sqlite_cache import SqliteCache

#: Store I/O counters: the only record of reads — a read writes nothing.
_STORE_OPS = {
    op: _obs_metrics.counter("repro_store_ops_total", store="kernel",
                             op=op)
    for op in ("get_hit", "get_miss", "put")
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kernels (
    key        TEXT PRIMARY KEY,
    payload    BLOB,
    created_at REAL NOT NULL
)
"""


class KernelStore(SqliteCache):
    """An append-mostly ``canonical kernel key → payload`` sqlite store.

    Payloads are opaque to the store — :mod:`repro.exec.batch` owns the
    serialization (pickled rank tables).  A NULL payload is a cached
    *negative* result: the algebra/vocabulary pair is known unbatchable.
    """

    NAME = "kernel"
    TABLE = "kernels"
    SCHEMA = _SCHEMA
    SCHEMA_VERSION = 5
    #: Kernels are far fewer and far larger than verdicts (each carries
    #: its ``int32`` rank tables): one 540-scenario admitted campaign
    #: writes 483 rows / 1.6 MB (numbers in ``exec/README.md``), so the
    #: bound is eight such campaigns' worth of distinct kernels.
    MAX_ROWS = 4_096

    def get(self, key: str) -> tuple[bool, bytes | None]:
        """``(found, payload)`` — payload None on a found row means a
        cached negative result ("unbatchable"), distinct from a miss.
        A read is a read: nothing is written."""
        row = self._conn.execute(
            "SELECT payload FROM kernels WHERE key = ?", (key,)).fetchone()
        if row is None:
            _STORE_OPS["get_miss"].inc()
            return False, None
        _STORE_OPS["get_hit"].inc()
        return True, row[0]

    def put(self, key: str, payload: bytes | None) -> None:
        """Record one tabulated kernel (or negative result); racing
        duplicates are ignored, not errors — both workers tabulated the
        same tables from the same canonical key."""
        _STORE_OPS["put"].inc()
        self._retry_locked(
            lambda: self._conn.execute(
                "INSERT OR IGNORE INTO kernels "
                "(key, payload, created_at) VALUES (?, ?, ?)",
                (key, payload, time.time())))

    def stats(self) -> dict:
        total, negative, size = self._conn.execute(
            "SELECT COUNT(*), "
            "COALESCE(SUM(CASE WHEN payload IS NULL THEN 1 ELSE 0 END), 0), "
            "COALESCE(SUM(LENGTH(COALESCE(payload, ''))), 0) "
            "FROM kernels").fetchone()
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        return {
            "kernels": total,
            "negative": negative,
            "payload_bytes": size,
            "schema_version": version,
            "retention": dict(self.last_retention),
        }

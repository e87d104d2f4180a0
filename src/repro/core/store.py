"""Result store: one append-only sqlite ``runs`` table of completed runs.

The committed ``results/*.txt``/``*.json`` files are the record of the
paper's tables.  This module keeps the runs behind them: the executor
appends one row per :class:`~repro.core.metrics.RunResult` a grid
resolves (fresh or cache-hit), keyed by its run-cache content hash, with
a few typed columns (app, protocol, scale, speedups, cycles) and the
full reporting record as JSON.

Contract
--------
Appends are idempotent per key: re-ingesting a stored key is one indexed
read that takes no lock and writes nothing, and a row deleted behind the
store's back is backfilled by the next ingest.  New rows are serialized
across processes by the same advisory lock the run cache uses
(:mod:`repro.core.fslock`) on top of sqlite's own locking.  The store is
never allowed to break a sweep: :func:`ingest_quietly` downgrades any
failure to a logged warning.  Non-finite speedups are stored as tagged
text (sqlite would silently turn ``NaN`` into ``NULL``).  A database
written by a *newer* schema is refused rather than guessed at; v1 and
v2 databases are appended to as they are, since their ``runs`` tables
hold every column the insert names.

Environment: ``REPRO_STORE_PATH`` overrides the database path (default
``results/store.sqlite``); ``REPRO_RESULT_STORE=0`` disables the layer.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pathlib
import sqlite3
import time
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.core.fslock import file_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import RunResult

logger = logging.getLogger("repro.store")

DEFAULT_STORE_PATH = os.path.join("results", "store.sqlite")

#: bump on any schema change a reader of an older version cannot use.
#: 2: runs gained ``fidelity`` (plus metric, artifact and view tables).
#: 3: the ``runs`` table alone, without the ``fidelity`` and ``sweep``
#:    columns.  Older databases need no migration: the insert names only
#:    columns their ``runs`` tables have, and ``fidelity`` defaults to
#:    ``'des'``.
SCHEMA_VERSION = 3

#: keys per membership read before an ingest (under sqlite's oldest
#: default limit of 999 bound parameters)
_KEYS_PER_SELECT = 500

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    key            TEXT PRIMARY KEY,
    model_version  INTEGER NOT NULL,
    app            TEXT NOT NULL,
    problem        TEXT,
    protocol       TEXT,
    config         TEXT,
    seed           INTEGER,
    scale          REAL,
    n_procs        INTEGER,
    total_cycles   INTEGER,
    serial_cycles  INTEGER,
    speedup        REAL,
    ideal_speedup  REAL,
    created_unix   REAL,
    record         TEXT NOT NULL
);
"""

_INSERT = """INSERT OR IGNORE INTO runs
    (key, model_version, app, problem, protocol, config, seed, scale,
     n_procs, total_cycles, serial_cycles, speedup, ideal_speedup,
     created_unix, record)
    VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)"""


def _enc(value: Any) -> Any:
    """sqlite quietly maps NaN to NULL: store non-finite floats as
    tagged text ('nan' / 'inf' / '-inf')."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


class SchemaMismatchError(RuntimeError):
    """The database on disk was written by a *newer* schema than this
    checkout understands; refusing to guess (upgrade the checkout or
    point ``REPRO_STORE_PATH`` elsewhere)."""


class ResultStore:
    """One sqlite database of completed runs."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self._lock_path = self.path.with_name(self.path.name + ".lock")
        self._conn: Optional[sqlite3.Connection] = None

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0)
            with file_lock(self._lock_path):
                self._ensure_schema(conn)
            self._conn = conn
        return self._conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        row = None
        if conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone():
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        if row is not None and int(row[0]) > SCHEMA_VERSION:
            conn.close()
            raise SchemaMismatchError(
                f"result store {self.path} has schema v{row[0]}, this "
                f"checkout understands v{SCHEMA_VERSION}; refusing to open"
            )
        conn.executescript(_TABLES)  # idempotent on an existing database
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def ingest_results(
        self, entries: Iterable[Tuple[str, "RunResult", Optional[float]]]
    ) -> int:
        """Append a batch of ``(key, result, scale)`` in one locked
        transaction; returns the number of genuinely new rows.

        Entries whose row is already stored are dropped first, by an
        unlocked primary-key read: a batch of stored keys takes no lock,
        renders no record and commits nothing.
        """
        from repro.core.reporting import run_record
        from repro.core.runcache import MODEL_VERSION

        conn = self._connect()
        entries = self._unstored(conn, list(entries))
        if not entries:
            return 0
        fresh = 0
        now = time.time()
        with file_lock(self._lock_path):
            for key, result, scale in entries:
                cur = conn.execute(_INSERT, (
                    key,
                    MODEL_VERSION,
                    result.app_name,
                    result.problem,
                    result.config.protocol,
                    result.config.label(),
                    result.config.seed,
                    scale,
                    result.n_procs,
                    result.total_cycles,
                    result.serial_cycles,
                    _enc(result.speedup),
                    _enc(result.ideal_speedup),
                    now,
                    # allow_nan keeps non-finite meta values round-trippable
                    json.dumps(run_record(result), sort_keys=True, default=repr,
                               allow_nan=True),
                ))
                fresh += cur.rowcount  # 0 if another process stored it since
            conn.commit()
        return fresh

    @staticmethod
    def _unstored(
        conn: sqlite3.Connection,
        entries: List[Tuple[str, "RunResult", Optional[float]]],
    ) -> List[Tuple[str, "RunResult", Optional[float]]]:
        """The entries with no row yet."""
        keys = [key for key, _, _ in entries]
        stored: set = set()
        for i in range(0, len(keys), _KEYS_PER_SELECT):
            chunk = keys[i:i + _KEYS_PER_SELECT]
            stored.update(row[0] for row in conn.execute(
                f"SELECT key FROM runs WHERE key IN ({','.join('?' * len(chunk))})",
                chunk,
            ))
        return [entry for entry in entries if entry[0] not in stored]


# --------------------------------------------------------------------- #
# process-wide default store, configured from the environment
# --------------------------------------------------------------------- #
_store: Optional[ResultStore] = None
_configured = False


def result_store() -> Optional[ResultStore]:
    """The process-wide store, or ``None`` when ``REPRO_RESULT_STORE=0``."""
    global _store, _configured
    if not _configured:
        if os.environ.get("REPRO_RESULT_STORE", "1") not in ("0", "false", "no"):
            _store = ResultStore(
                os.environ.get("REPRO_STORE_PATH", DEFAULT_STORE_PATH)
            )
        else:
            _store = None
        _configured = True
    return _store


def reset_result_store() -> None:
    """Forget the configured store so the next use re-reads the environment
    (tests point ``REPRO_STORE_PATH`` at a temp file and call this)."""
    global _store, _configured
    if _store is not None:
        _store.close()
    _store = None
    _configured = False


def ingest_quietly(
    entries: Iterable[Tuple[str, "RunResult", Optional[float]]]
) -> int:
    """Best-effort batch ingest for the executor hook.

    The store must never break a sweep: any failure (locked volume, full
    disk, schema refusal) is logged and swallowed, and the simulation
    results flow on exactly as before.  Returns rows actually appended.
    """
    store = result_store()
    if store is None:
        return 0
    try:
        return store.ingest_results(entries)
    except Exception as exc:  # noqa: BLE001 - the whole point
        logger.warning("result-store ingest skipped: %s", exc)
        return 0

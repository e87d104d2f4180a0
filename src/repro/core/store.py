"""Columnar result store + materialized views (the CQRS read side).

Per-sweep JSON/text blobs do not scale to a fleet-sized result corpus:
regenerating a paper figure or comparing two ``MODEL_VERSION``s from
``results/*.json`` means re-simulation or file spelunking.  This module
is the append-only system of record for *completed* results — every
simulation point and every driver artifact — stored columnar in one
sqlite database so those questions become queries.

Write side (commands)
---------------------
``ingest_result`` appends one :class:`~repro.core.metrics.RunResult`
keyed by its run-cache content hash plus serving fidelity, exploded into
a typed ``runs`` row and long-format ``run_metrics`` rows (time
categories, per-resource utilization, protocol counters, meta).  The
executor calls it for every point a grid resolves (fresh or cache-hit),
so sweeps build the corpus as a side effect (their ``sweep`` column is
NULL; only ``repro report ingest --runcache`` tags one).  ``ingest_artifact`` appends a rendered
experiment table (``repro experiment`` / ``run_all_experiments.py``
outputs land here; ``repro report ingest`` migrates the committed
``results/*.txt``/``*.json`` pairs and the ``.runcache``).

Read side (materialized views)
------------------------------
Plain tables, refreshed *incrementally on ingest* (never by rescanning
the corpus): ``view_speedups`` (the figure-grid projection),
``view_phases`` (per-barrier-epoch fractions), ``view_hotspots`` (ranked
protocol hotspots) and ``view_slowdowns`` (per-group best/worst spread,
Table-3 style — the one genuine aggregate, recomputed per affected
group).  ``python -m repro report`` is the query client.

Durability contract
-------------------
Appends are idempotent per primary key: re-ingesting a stored key is
one indexed read that takes no lock and writes nothing.  New rows are
serialized across processes by the same advisory lock the run cache
uses (:mod:`repro.core.fslock`) on top of sqlite's own locking.  The
store is never allowed to break a sweep: the executor's hook downgrades
any store failure to a logged warning.  Non-finite metric values survive
the round-trip (sqlite would silently turn ``NaN`` into ``NULL``; they
are stored as tagged text instead).  The schema carries a version and opens
of an older database run in-place migrations; a *newer* database is
refused rather than guessed at.

Environment: ``REPRO_STORE_PATH`` overrides the database path (default
``results/store.sqlite``); ``REPRO_RESULT_STORE=0`` disables the layer.
Optional parquet export is gated on ``pyarrow`` being importable.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pathlib
import sqlite3
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.fslock import file_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import RunResult

logger = logging.getLogger("repro.store")

DEFAULT_STORE_PATH = os.path.join("results", "store.sqlite")

#: bump on any schema change; add a matching entry in _MIGRATIONS so an
#: existing database upgrades in place on open.
#: 2: runs/view_speedups gain the ``fidelity`` column (part of the
#:    primary key — an analytic serve must never shadow the DES row for
#:    the same content hash).
SCHEMA_VERSION = 2

#: keys per membership read before an ingest (under sqlite's oldest
#: default limit of 999 bound parameters)
_KEYS_PER_SELECT = 500

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    key            TEXT NOT NULL,
    fidelity       TEXT NOT NULL DEFAULT 'des',
    model_version  INTEGER NOT NULL,
    sweep          TEXT,
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
    record         TEXT NOT NULL,
    PRIMARY KEY (key, fidelity)
);
CREATE INDEX IF NOT EXISTS idx_runs_app ON runs (app, protocol, scale);
CREATE INDEX IF NOT EXISTS idx_runs_model ON runs (model_version);
CREATE TABLE IF NOT EXISTS run_metrics (
    key      TEXT NOT NULL,
    fidelity TEXT NOT NULL DEFAULT 'des',
    kind     TEXT NOT NULL,
    name     TEXT NOT NULL,
    value,
    PRIMARY KEY (key, fidelity, kind, name)
);
CREATE TABLE IF NOT EXISTS artifacts (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id TEXT NOT NULL,
    scale         REAL,
    model_version INTEGER,
    source        TEXT,
    created_unix  REAL,
    title         TEXT,
    text          TEXT NOT NULL,
    data          TEXT
);
CREATE INDEX IF NOT EXISTS idx_artifacts_id ON artifacts (experiment_id, scale);
CREATE TABLE IF NOT EXISTS view_speedups (
    key            TEXT NOT NULL,
    fidelity       TEXT NOT NULL DEFAULT 'des',
    app            TEXT NOT NULL,
    protocol       TEXT,
    scale          REAL,
    model_version  INTEGER,
    config         TEXT,
    speedup        REAL,
    ideal_speedup  REAL,
    PRIMARY KEY (key, fidelity)
);
CREATE TABLE IF NOT EXISTS view_phases (
    key      TEXT NOT NULL,
    fidelity TEXT NOT NULL DEFAULT 'des',
    phase    INTEGER NOT NULL,
    label    TEXT,
    start    INTEGER,
    end      INTEGER,
    category TEXT NOT NULL,
    fraction REAL,
    PRIMARY KEY (key, fidelity, phase, category)
);
CREATE TABLE IF NOT EXISTS view_hotspots (
    key      TEXT NOT NULL,
    fidelity TEXT NOT NULL DEFAULT 'des',
    rank     INTEGER NOT NULL,
    name     TEXT NOT NULL,
    cycles   INTEGER,
    events   INTEGER,
    PRIMARY KEY (key, fidelity, rank)
);
CREATE TABLE IF NOT EXISTS view_slowdowns (
    app           TEXT NOT NULL,
    protocol      TEXT,
    scale         REAL,
    model_version INTEGER,
    points        INTEGER,
    best          REAL,
    worst         REAL,
    slowdown      REAL,
    PRIMARY KEY (app, protocol, scale, model_version)
);
"""


# --------------------------------------------------------------------- #
# value encoding: sqlite quietly maps NaN -> NULL, so non-finite floats
# are stored as tagged text and decoded on the way out.
# --------------------------------------------------------------------- #
def _enc(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'nan' / 'inf' / '-inf'
    return value


def _dec(value: Any) -> Any:
    if isinstance(value, str) and value in ("nan", "inf", "-inf"):
        return float(value)
    return value


def _json_dumps(payload: Any) -> str:
    # allow_nan keeps non-finite meta values round-trippable (json.loads
    # parses the NaN/Infinity tokens back); sort for stable diffs.
    return json.dumps(payload, sort_keys=True, default=repr, allow_nan=True)


class SchemaMismatchError(RuntimeError):
    """The database on disk was written by a *newer* schema than this
    checkout understands; refusing to guess (upgrade the checkout or
    point ``REPRO_STORE_PATH`` elsewhere)."""


def _migrate_v1(conn: sqlite3.Connection) -> None:
    """v1 -> v2: runs/run_metrics/view_speedups gain the ``fidelity``
    column (default ``'des'``, which is what every v1 row was)."""
    for table in ("runs", "run_metrics", "view_speedups"):
        cols = {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
        if "fidelity" not in cols:
            conn.execute(
                f"ALTER TABLE {table} ADD COLUMN fidelity TEXT NOT NULL DEFAULT 'des'"
            )


_MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {1: _migrate_v1}


class ResultStore:
    """One sqlite database of results and experiment artifacts."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self._lock_path = self.path.with_name(self.path.name + ".lock")
        self._conn: Optional[sqlite3.Connection] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0)
            conn.row_factory = sqlite3.Row
            with file_lock(self._lock_path):
                self._ensure_schema(conn)
            self._conn = conn
        return self._conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        have = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        if not have:
            conn.executescript(_TABLES)
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
            return
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        version = int(row[0]) if row else 0
        if version > SCHEMA_VERSION:
            conn.close()
            self._conn = None
            raise SchemaMismatchError(
                f"result store {self.path} has schema v{version}, this "
                f"checkout understands v{SCHEMA_VERSION}; refusing to open"
            )
        while version < SCHEMA_VERSION:
            migrate = _MIGRATIONS.get(version)
            if migrate is None:
                raise SchemaMismatchError(
                    f"result store {self.path}: no migration from schema "
                    f"v{version} to v{version + 1}"
                )
            migrate(conn)
            version += 1
            logger.info("migrated result store %s to schema v%d", self.path, version)
        conn.executescript(_TABLES)  # idempotent: adds any new tables
        conn.execute(
            "UPDATE meta SET value=? WHERE key='schema_version'",
            (str(SCHEMA_VERSION),),
        )
        conn.commit()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------ #
    # write side: run ingest + incremental view refresh
    # ------------------------------------------------------------------ #
    def ingest_result(
        self,
        key: str,
        result: "RunResult",
        scale: Optional[float] = None,
        sweep: Optional[str] = None,
        fidelity: str = "des",
    ) -> bool:
        """Append one run (idempotent per ``(key, fidelity)``).

        Returns ``True`` when the row was new — only then are the
        materialized views refreshed for it.
        """
        return self.ingest_results([(key, result, scale)], sweep=sweep,
                                   fidelity=fidelity) > 0

    def ingest_results(
        self,
        entries: Iterable[Tuple[str, "RunResult", Optional[float]]],
        sweep: Optional[str] = None,
        fidelity: str = "des",
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
        entries = self._unstored(conn, list(entries), fidelity)
        if not entries:
            return 0
        fresh = 0
        now = time.time()
        with file_lock(self._lock_path):
            for key, result, scale in entries:
                cur = conn.execute(
                    """INSERT OR IGNORE INTO runs
                       (key, fidelity, model_version, sweep, app, problem,
                        protocol, config, seed, scale, n_procs, total_cycles,
                        serial_cycles, speedup, ideal_speedup, created_unix,
                        record)
                       VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)""",
                    (
                        key,
                        fidelity,
                        MODEL_VERSION,
                        sweep,
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
                        _json_dumps(run_record(result)),
                    ),
                )
                if not cur.rowcount:
                    continue  # another process stored it since the read
                fresh += 1
                self._insert_metrics(conn, key, fidelity, result)
                self._refresh_views_for(conn, key, fidelity, result, scale)
            conn.commit()
        return fresh

    @staticmethod
    def _unstored(
        conn: sqlite3.Connection,
        entries: List[Tuple[str, "RunResult", Optional[float]]],
        fidelity: str,
    ) -> List[Tuple[str, "RunResult", Optional[float]]]:
        """The entries with no ``(key, fidelity)`` row yet."""
        keys = [key for key, _, _ in entries]
        stored: set = set()
        for i in range(0, len(keys), _KEYS_PER_SELECT):
            chunk = keys[i:i + _KEYS_PER_SELECT]
            stored.update(row[0] for row in conn.execute(
                f"SELECT key FROM runs WHERE fidelity = ? AND key IN "
                f"({','.join('?' * len(chunk))})",
                [fidelity, *chunk],
            ))
        return [entry for entry in entries if entry[0] not in stored]

    def _insert_metrics(
        self, conn: sqlite3.Connection, key: str, fidelity: str, result: "RunResult"
    ) -> None:
        import dataclasses as _dc

        rows: List[Tuple[str, str, str, Any]] = []
        for name, cycles in result.time_breakdown().items():
            rows.append((key, "cycles", name, cycles))
        for name, frac in result.utilization().items():
            rows.append((key, "util", name, _enc(frac)))
        counters = _dc.asdict(result.counters)
        counters.update(counters.pop("extra", {}))
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                rows.append((key, "counter", name, _enc(value)))
        for name, value in result.meta.items():
            rows.append((key, "meta", name, _enc(value)))
        conn.executemany(
            "INSERT OR IGNORE INTO run_metrics (key, fidelity, kind, name, value) "
            "VALUES (?, ?, ?, ?, ?)",
            [(k, fidelity, kind, name, value) for k, kind, name, value in rows],
        )

    def _refresh_views_for(
        self,
        conn: sqlite3.Connection,
        key: str,
        fidelity: str,
        result: "RunResult",
        scale: Optional[float],
    ) -> None:
        """Incrementally refresh every materialized view touched by one
        fresh run — projections insert their own rows; the slowdown
        aggregate recomputes only the affected group."""
        from repro.core.runcache import MODEL_VERSION

        conn.execute(
            """INSERT OR REPLACE INTO view_speedups
               (key, fidelity, app, protocol, scale, model_version, config,
                speedup, ideal_speedup)
               VALUES (?,?,?,?,?,?,?,?,?)""",
            (
                key,
                fidelity,
                result.app_name,
                result.config.protocol,
                scale,
                MODEL_VERSION,
                result.config.label(),
                _enc(result.speedup),
                _enc(result.ideal_speedup),
            ),
        )
        phase_rows = []
        for i, phase in enumerate(result.phase_breakdown()):
            fractions = phase["fractions"]
            assert isinstance(fractions, dict)
            for category, fraction in fractions.items():
                phase_rows.append(
                    (key, fidelity, i, phase["label"], phase["start"],
                     phase["end"], category, _enc(fraction))
                )
        if phase_rows:
            conn.executemany(
                "INSERT OR REPLACE INTO view_phases "
                "(key, fidelity, phase, label, start, end, category, fraction) "
                "VALUES (?,?,?,?,?,?,?,?)",
                phase_rows,
            )
        hot_rows = [
            (key, fidelity, rank, name, cycles, count)
            for rank, (name, cycles, count) in enumerate(result.hotspots(), 1)
        ]
        if hot_rows:
            conn.executemany(
                "INSERT OR REPLACE INTO view_hotspots "
                "(key, fidelity, rank, name, cycles, events) VALUES (?,?,?,?,?,?)",
                hot_rows,
            )
        # The one genuine aggregate: recompute just this run's group.
        conn.execute(
            """INSERT OR REPLACE INTO view_slowdowns
               (app, protocol, scale, model_version, points, best, worst, slowdown)
               SELECT app, protocol, scale, model_version, COUNT(*),
                      MAX(speedup), MIN(speedup),
                      (MAX(speedup) - MIN(speedup)) / MAX(speedup)
               FROM runs
               WHERE app = ? AND protocol IS ? AND scale IS ?
                 AND model_version = ?
                 AND typeof(speedup) IN ('integer', 'real')""",
            (result.app_name, result.config.protocol, scale, MODEL_VERSION),
        )

    # ------------------------------------------------------------------ #
    # write side: artifacts
    # ------------------------------------------------------------------ #
    def ingest_artifact(
        self,
        experiment_id: str,
        text: str,
        data: Optional[dict] = None,
        scale: Optional[float] = None,
        title: Optional[str] = None,
        source: str = "driver",
    ) -> int:
        """Append one rendered experiment table; returns its row id.

        Append-only history: re-running a driver adds a new row and
        :meth:`artifact` serves the newest for the id (and scale, when
        given) — older renders stay queryable for longitudinal diffs.
        """
        from repro.core.runcache import MODEL_VERSION

        conn = self._connect()
        with file_lock(self._lock_path):
            cur = conn.execute(
                """INSERT INTO artifacts
                   (experiment_id, scale, model_version, source, created_unix,
                    title, text, data)
                   VALUES (?,?,?,?,?,?,?,?)""",
                (
                    experiment_id,
                    scale,
                    MODEL_VERSION,
                    source,
                    time.time(),
                    title,
                    text,
                    None if data is None else _json_dumps(data),
                ),
            )
            conn.commit()
        return int(cur.lastrowid or 0)

    # ------------------------------------------------------------------ #
    # read side: queries over the materialized views
    # ------------------------------------------------------------------ #
    def artifact(
        self, experiment_id: str, scale: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Newest stored render of one experiment (optionally at a scale)."""
        conn = self._connect()
        sql = "SELECT * FROM artifacts WHERE experiment_id = ?"
        args: List[Any] = [experiment_id]
        if scale is not None:
            sql += " AND scale = ?"
            args.append(scale)
        sql += " ORDER BY id DESC LIMIT 1"
        row = conn.execute(sql, args).fetchone()
        return dict(row) if row else None

    def artifact_ids(self) -> List[Tuple[str, Optional[float], int]]:
        """Distinct (experiment_id, scale, renders) triples in the store."""
        conn = self._connect()
        return [
            (r["experiment_id"], r["scale"], r["n"])
            for r in conn.execute(
                "SELECT experiment_id, scale, COUNT(*) AS n FROM artifacts "
                "GROUP BY experiment_id, scale ORDER BY experiment_id, scale"
            )
        ]

    def speedups(
        self,
        app: Optional[str] = None,
        protocol: Optional[str] = None,
        scale: Optional[float] = None,
        model_version: Optional[int] = None,
        fidelity: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Figure-grid projection rows, filtered by any subset of axes."""
        clauses, args = [], []  # type: List[str], List[Any]
        for column, value in (
            ("app", app), ("protocol", protocol), ("scale", scale),
            ("model_version", model_version), ("fidelity", fidelity),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                args.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        conn = self._connect()
        rows = conn.execute(
            "SELECT * FROM view_speedups" + where +
            " ORDER BY app, protocol, scale, config", args
        )
        return [
            {k: _dec(v) for k, v in dict(r).items()} for r in rows
        ]

    def slowdowns(self, model_version: Optional[int] = None) -> List[Dict[str, Any]]:
        conn = self._connect()
        where, args = "", []  # type: str, List[Any]
        if model_version is not None:
            where, args = " WHERE model_version = ?", [model_version]
        rows = conn.execute(
            "SELECT * FROM view_slowdowns" + where +
            " ORDER BY app, protocol, scale", args
        )
        return [dict(r) for r in rows]

    def metrics(self, key: str, kind: Optional[str] = None) -> Dict[str, Any]:
        conn = self._connect()
        sql = "SELECT kind, name, value FROM run_metrics WHERE key = ?"
        args: List[Any] = [key]
        if kind is not None:
            sql += " AND kind = ?"
            args.append(kind)
        return {
            (r["name"] if kind else f"{r['kind']}.{r['name']}"): _dec(r["value"])
            for r in conn.execute(sql, args)
        }

    def stats(self) -> Dict[str, Any]:
        conn = self._connect()

        def count(table: str) -> int:
            return int(conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])

        return {
            "path": str(self.path),
            "schema_version": SCHEMA_VERSION,
            "bytes": self.path.stat().st_size if self.path.is_file() else 0,
            "runs": count("runs"),
            "metrics": count("run_metrics"),
            "artifacts": count("artifacts"),
            "model_versions": [
                int(r[0]) for r in conn.execute(
                    "SELECT DISTINCT model_version FROM runs ORDER BY 1"
                )
            ],
        }

    # ------------------------------------------------------------------ #
    # export: the store is the source of truth; files are projections
    # ------------------------------------------------------------------ #
    _EXPORT_TABLES = (
        "runs", "run_metrics", "artifacts",
        "view_speedups", "view_phases", "view_hotspots", "view_slowdowns",
    )

    def _table_rows(self, table: str) -> Tuple[List[str], List[Tuple]]:
        if table not in self._EXPORT_TABLES:
            raise ValueError(
                f"unknown table {table!r} (valid: {', '.join(self._EXPORT_TABLES)})"
            )
        conn = self._connect()
        cur = conn.execute(f"SELECT * FROM {table}")
        headers = [d[0] for d in cur.description]
        return headers, [tuple(_dec(v) for v in row) for row in cur.fetchall()]

    def export_csv(self, path: os.PathLike, table: str = "runs") -> int:
        import csv

        headers, rows = self._table_rows(table)
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            writer.writerows(rows)
        return len(rows)

    def export_jsonl(self, path: os.PathLike, table: str = "runs") -> int:
        headers, rows = self._table_rows(table)
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(_json_dumps(dict(zip(headers, row))) + "\n")
        return len(rows)

    def export_parquet(self, path: os.PathLike, table: str = "runs") -> int:
        """Columnar file export; needs the optional ``pyarrow`` dependency."""
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError as exc:  # pragma: no cover - environment-dependent
            raise RuntimeError(
                "parquet export needs pyarrow (pip install pyarrow); "
                "CSV/JSONL export has no extra dependency"
            ) from exc
        headers, rows = self._table_rows(table)
        columns = {
            h: [row[i] for row in rows] for i, h in enumerate(headers)
        }
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        pq.write_table(pa.table(columns), out)
        return len(rows)


# --------------------------------------------------------------------- #
# process-wide default store, configured from the environment
# --------------------------------------------------------------------- #
_store: Optional[ResultStore] = None
_configured = False


def store_path() -> pathlib.Path:
    return pathlib.Path(os.environ.get("REPRO_STORE_PATH", DEFAULT_STORE_PATH))


def result_store() -> Optional[ResultStore]:
    """The process-wide store, or ``None`` when ``REPRO_RESULT_STORE=0``."""
    global _store, _configured
    if not _configured:
        if os.environ.get("REPRO_RESULT_STORE", "1") not in ("0", "false", "no"):
            _store = ResultStore(store_path())
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
    entries: Iterable[Tuple[str, "RunResult", Optional[float]]],
    sweep: Optional[str] = None,
    fidelity: str = "des",
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
        return store.ingest_results(entries, sweep=sweep, fidelity=fidelity)
    except Exception as exc:  # noqa: BLE001 - the whole point
        logger.warning("result-store ingest skipped: %s", exc)
        return 0


def ingest_artifact_quietly(
    experiment_id: str,
    text: str,
    data: Optional[dict] = None,
    scale: Optional[float] = None,
    title: Optional[str] = None,
    source: str = "driver",
) -> Optional[int]:
    """Best-effort artifact append for driver/CLI hooks (same contract as
    :func:`ingest_quietly`: a store problem never fails the experiment)."""
    store = result_store()
    if store is None:
        return None
    try:
        return store.ingest_artifact(
            experiment_id, text, data=data, scale=scale, title=title, source=source
        )
    except Exception as exc:  # noqa: BLE001 - the whole point
        logger.warning("result-store artifact ingest skipped: %s", exc)
        return None

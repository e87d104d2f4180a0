"""Result store: the ``runs`` table, old databases, concurrency.

The store appends one row per completed run (:mod:`repro.core.store`);
these tests read that table through ``sqlite3`` and pin its contract:

* re-ingesting a key is a no-op that takes no lock and writes nothing,
  and a row deleted behind the store's back is backfilled;
* non-finite speedups survive the round-trip (sqlite would silently turn
  a bare ``NaN`` into ``NULL``);
* v1 and v2 databases left by older checkouts accept new rows as they
  are, and a newer-schema database is refused;
* two processes ingesting into one database under contention (the same
  advisory lock the run cache uses) lose nothing and duplicate nothing.
"""

import dataclasses
import json
import math
import os
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.apps import get_app
from repro.core import ClusterConfig, run_simulation
from repro.core.store import (
    SCHEMA_VERSION,
    ResultStore,
    SchemaMismatchError,
    ingest_quietly,
    reset_result_store,
    result_store,
)

SCALE = 0.02


@pytest.fixture(scope="module")
def results():
    """Two real (tiny) runs: same app, both protocols."""
    out = {}
    for proto in ("hlrc", "aurc"):
        cfg = ClusterConfig().replace(protocol=proto)
        trace = get_app("fft", page_size=cfg.comm.page_size, scale=SCALE, seed=cfg.seed)
        out[proto] = run_simulation(trace, cfg)
    return out


@pytest.fixture
def store(tmp_path):
    s = ResultStore(tmp_path / "store.sqlite")
    yield s
    s.close()


def _rows(db, columns="key"):
    conn = sqlite3.connect(db)
    try:
        return conn.execute(f"SELECT {columns} FROM runs ORDER BY key").fetchall()
    finally:
        conn.close()


def test_ingest_round_trip(store, results):
    r = results["hlrc"]
    assert store.ingest_results([("k-hlrc", r, SCALE)]) == 1
    ((app, protocol, scale, speedup, ideal, record),) = _rows(
        store.path, "app, protocol, scale, speedup, ideal_speedup, record"
    )
    assert (app, protocol, scale) == ("fft", "hlrc", SCALE)
    assert speedup == pytest.approx(r.speedup)
    assert ideal == pytest.approx(r.ideal_speedup)
    # the record column holds the full reporting dict
    assert json.loads(record)["app"] == "fft"


def test_reingest_is_noop(store, results):
    r = results["hlrc"]
    assert store.ingest_results([("k", r, SCALE)]) == 1
    assert store.ingest_results([("k", r, SCALE)]) == 0
    assert store.ingest_results([("k", r, SCALE), ("k2", results["aurc"], SCALE)]) == 1
    assert _rows(store.path) == [("k",), ("k2",)]


def test_reingest_of_a_stored_key_renders_and_writes_nothing(
    store, results, monkeypatch
):
    r = results["hlrc"]
    assert store.ingest_results([("k", r, SCALE)]) == 1

    def forbidden(*args):
        raise AssertionError("a stored key must take no lock and render nothing")

    monkeypatch.setattr("repro.core.reporting.run_record", forbidden)
    monkeypatch.setattr("repro.core.store.file_lock", forbidden)
    assert store.ingest_results([("k", r, SCALE)]) == 0
    assert _rows(store.path) == [("k",)]
    monkeypatch.undo()

    # a row deleted behind the store's back is backfilled by the next ingest
    conn = sqlite3.connect(store.path)
    conn.execute("DELETE FROM runs WHERE key='k'")
    conn.commit()
    conn.close()
    assert store.ingest_results([("k", r, SCALE), ("k2", r, SCALE)]) == 2
    assert _rows(store.path) == [("k",), ("k2",)]


def test_non_finite_metric_values_round_trip(store, results):
    base = results["hlrc"]
    entries = [
        # a non-finite serial time gives a non-finite speedup
        (f"k-{value}", dataclasses.replace(
            base, serial_cycles=value, meta={**base.meta, "bad": value}), SCALE)
        for value in (float("nan"), float("inf"), float("-inf"))
    ]
    assert store.ingest_results(entries) == 3
    rows = {key: (speedup, json.loads(record))
            for key, speedup, record in _rows(store.path, "key, speedup, record")}
    # stored as tagged text, not NULL, and parsed back by float()
    assert {key: speedup for key, (speedup, _) in rows.items()} == {
        "k-nan": "nan", "k-inf": "inf", "k--inf": "-inf"}
    assert math.isnan(float(rows["k-nan"][0]))
    assert float(rows["k--inf"][0]) == -math.inf
    # the record's JSON keeps them too
    assert math.isnan(rows["k-nan"][1]["meta"]["bad"])
    assert rows["k-inf"][1]["speedup"] == math.inf


# --------------------------------------------------------------------- #
# schema versions
# --------------------------------------------------------------------- #
V1_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE runs (
    key TEXT PRIMARY KEY, model_version INTEGER NOT NULL, sweep TEXT,
    app TEXT NOT NULL, problem TEXT, protocol TEXT, config TEXT,
    seed INTEGER, scale REAL, n_procs INTEGER, total_cycles INTEGER,
    serial_cycles INTEGER, speedup REAL, ideal_speedup REAL,
    created_unix REAL, record TEXT NOT NULL
);
CREATE TABLE run_metrics (
    key TEXT NOT NULL, kind TEXT NOT NULL, name TEXT NOT NULL, value,
    PRIMARY KEY (key, kind, name)
);
CREATE TABLE view_speedups (
    key TEXT PRIMARY KEY, app TEXT NOT NULL, protocol TEXT, scale REAL,
    model_version INTEGER, config TEXT, speedup REAL, ideal_speedup REAL
);
INSERT INTO meta VALUES ('schema_version', '1');
INSERT INTO runs VALUES ('old-key', 1, NULL, 'fft', 'p', 'hlrc', 'cfg',
                         0, 1.0, 16, 100, 400, 4.0, 8.0, 0.0, '{}');
"""

#: the runs table as schema v2 wrote it: ``fidelity`` in the key
V2_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE runs (
    key TEXT NOT NULL, fidelity TEXT NOT NULL DEFAULT 'des',
    model_version INTEGER NOT NULL, sweep TEXT, app TEXT NOT NULL,
    problem TEXT, protocol TEXT, config TEXT, seed INTEGER, scale REAL,
    n_procs INTEGER, total_cycles INTEGER, serial_cycles INTEGER,
    speedup REAL, ideal_speedup REAL, created_unix REAL,
    record TEXT NOT NULL, PRIMARY KEY (key, fidelity)
);
CREATE TABLE artifacts (
    id INTEGER PRIMARY KEY AUTOINCREMENT, experiment_id TEXT NOT NULL,
    scale REAL, model_version INTEGER, source TEXT, created_unix REAL,
    title TEXT, text TEXT NOT NULL, data TEXT
);
INSERT INTO meta VALUES ('schema_version', '2');
INSERT INTO runs VALUES ('old-key', 'des', 4, NULL, 'fft', 'p', 'hlrc', 'cfg',
                         0, 1.0, 16, 100, 400, 4.0, 8.0, 0.0, '{}');
"""


@pytest.mark.parametrize("version, ddl", [(1, V1_DDL), (2, V2_DDL)], ids=["v1", "v2"])
def test_older_database_accepts_ingests(tmp_path, results, version, ddl):
    db = tmp_path / "old.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript(ddl)
    conn.commit()
    conn.close()

    store = ResultStore(db)
    try:
        assert store.ingest_results([("old-key", results["hlrc"], SCALE)]) == 0
        assert store.ingest_results([("new-key", results["hlrc"], SCALE)]) == 1
    finally:
        store.close()
    assert _rows(db, "key, app, protocol") == [
        ("new-key", "fft", "hlrc"), ("old-key", "fft", "hlrc")]
    conn = sqlite3.connect(db)
    (stored_version,) = conn.execute(
        "SELECT value FROM meta WHERE key='schema_version'").fetchone()
    conn.close()
    assert int(stored_version) == version  # appended to as it is


def test_newer_schema_is_refused(tmp_path, results):
    db = tmp_path / "future.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript(
        "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
        f"INSERT INTO meta VALUES ('schema_version', '{SCHEMA_VERSION + 7}');"
    )
    conn.commit()
    conn.close()
    store = ResultStore(db)
    with pytest.raises(SchemaMismatchError, match="refusing to open"):
        store.ingest_results([("k", results["hlrc"], SCALE)])
    conn = sqlite3.connect(db)
    tables = {row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table'")}
    conn.close()
    assert tables == {"meta"}  # nothing created in a database it refused


# --------------------------------------------------------------------- #
# best-effort hook contract
# --------------------------------------------------------------------- #
def test_ingest_quietly_swallows_store_failures(tmp_path, results, monkeypatch):
    # a directory where the database file should be: every open fails
    bad = tmp_path / "store.sqlite"
    bad.mkdir()
    monkeypatch.setenv("REPRO_STORE_PATH", str(bad))
    reset_result_store()
    try:
        assert ingest_quietly([("k", results["hlrc"], SCALE)]) == 0
    finally:
        reset_result_store()


def test_disable_switch(monkeypatch, results):
    monkeypatch.setenv("REPRO_RESULT_STORE", "0")
    reset_result_store()
    try:
        assert result_store() is None
        assert ingest_quietly([("k", results["hlrc"], SCALE)]) == 0
    finally:
        reset_result_store()


# --------------------------------------------------------------------- #
# cross-process ingest under contention
# --------------------------------------------------------------------- #
CHILD = r"""
import os, sys, time
from repro.apps import get_app
from repro.core import ClusterConfig, run_simulation
from repro.core.store import ResultStore

writer, n, db, writers = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
cfg = ClusterConfig()
trace = get_app("fft", page_size=cfg.comm.page_size, scale=0.02, seed=cfg.seed)
result = run_simulation(trace, cfg)
store = ResultStore(db)
read = ResultStore._unstored
raced = 0


def read_then_wait(conn, entries):
    # hold each writer just past its unlocked read of a shared key until
    # every writer has read that key: all of them then insert it
    global raced
    fresh = {key for key, _, _ in read(conn, entries)}
    for key, _, _ in entries:
        if key.startswith("shared-"):
            open(f"{db}.{key}.{writer}", "w").close()
            deadline = time.monotonic() + 60
            while not all(os.path.exists(f"{db}.{key}.w{j}") for j in range(writers)):
                if time.monotonic() > deadline:
                    sys.exit(f"{writer}: no other writer reached {key}")
                time.sleep(0.001)
            raced += key in fresh
    return [entry for entry in entries if entry[0] in fresh]


ResultStore._unstored = staticmethod(read_then_wait)
barrier = db + ".go"
while not os.path.exists(barrier):
    time.sleep(0.001)
# every writer tries the same shared keys plus some of its own: the
# shared ones must come out exactly once
for i in range(n):
    store.ingest_results([(f"shared-{i:03d}", result, 0.02)])
    store.ingest_results([(f"{writer}-{i:03d}", result, 0.02)])
print(raced)
"""

WRITERS = 2
KEYS_PER_WRITER = 12


def test_two_processes_ingest_without_loss_or_duplication(tmp_path):
    """Both writers pass the unlocked read of every shared key before
    either inserts it, so each shared key is inserted twice: the store
    must keep one row and fail neither writer."""
    db = tmp_path / "race.sqlite"
    env = dict(os.environ, PYTHONPATH="src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, f"w{i}", str(KEYS_PER_WRITER), str(db),
             str(WRITERS)],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            stdout=subprocess.PIPE,
            text=True,
        )
        for i in range(WRITERS)
    ]
    time.sleep(0.2)  # let both children finish their setup simulation
    (tmp_path / "race.sqlite.go").write_text("")
    for p in procs:
        out, _ = p.communicate(timeout=120)
        assert p.returncode == 0
        # the writer found every shared key unstored at its read
        assert int(out) == KEYS_PER_WRITER

    expected = {f"shared-{i:03d}" for i in range(KEYS_PER_WRITER)} | {
        f"w{w}-{i:03d}"
        for w in range(WRITERS)
        for i in range(KEYS_PER_WRITER)
    }
    keys = [key for (key,) in _rows(db)]
    assert set(keys) == expected
    assert len(keys) == len(set(keys)), "a contended ingest was duplicated"

"""Columnar result store: round-trips, views, migrations, concurrency.

The store is the append-only system of record for completed runs
(:mod:`repro.core.store`); these tests pin its durability contract:

* ingest -> materialized view -> export round-trips losslessly,
  including non-finite metric values (sqlite would silently turn a bare
  ``NaN`` into ``NULL``);
* re-ingesting a key is a no-op, and the same content hash served at a
  different fidelity is a *separate* row (an analytic serve must never
  shadow the DES row);
* a v1 database upgrades in place on open, a newer-schema database is
  refused;
* two processes ingesting into one database under contention (the same
  advisory lock the run cache uses) lose nothing and duplicate nothing.
"""

import dataclasses
import json
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


# --------------------------------------------------------------------- #
# ingest -> views -> export round-trip
# --------------------------------------------------------------------- #
def test_ingest_round_trip_through_views(store, results):
    r = results["hlrc"]
    assert store.ingest_result("k-hlrc", r, scale=SCALE, sweep="s1") is True

    rows = store.speedups(app="fft")
    assert len(rows) == 1
    row = rows[0]
    assert row["key"] == "k-hlrc"
    assert row["protocol"] == "hlrc"
    assert row["speedup"] == pytest.approx(r.speedup)
    assert row["ideal_speedup"] == pytest.approx(r.ideal_speedup)

    # long-format metrics mirror the result's own breakdowns
    cycles = store.metrics("k-hlrc", kind="cycles")
    assert cycles == r.time_breakdown()
    util = store.metrics("k-hlrc", kind="util")
    assert util == pytest.approx(r.utilization())

    # the full record column reconstructs the reporting dict
    conn = sqlite3.connect(store.path)
    record, sweep = conn.execute(
        "SELECT record, sweep FROM runs WHERE key='k-hlrc'"
    ).fetchone()
    conn.close()
    assert sweep == "s1"
    assert json.loads(record)["app"] == "fft"


def test_reingest_is_noop_and_fidelity_is_separate(store, results):
    r = results["hlrc"]
    assert store.ingest_result("k", r, scale=SCALE) is True
    assert store.ingest_result("k", r, scale=SCALE) is False
    assert store.stats()["runs"] == 1
    # same content hash served by the fast model: its own row, never a
    # shadow of the DES one
    assert store.ingest_result("k", r, scale=SCALE, fidelity="analytic") is True
    assert store.stats()["runs"] == 2
    des = store.speedups(fidelity="des")
    fast = store.speedups(fidelity="analytic")
    assert len(des) == len(fast) == 1


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
    assert store.stats()["runs"] == 1
    monkeypatch.undo()

    # a row deleted behind the store's back is backfilled by the next ingest
    conn = sqlite3.connect(store.path)
    conn.execute("DELETE FROM runs WHERE key='k'")
    conn.commit()
    conn.close()
    assert store.ingest_results([("k", r, SCALE), ("k2", r, SCALE)]) == 2
    assert store.stats()["runs"] == 2


def test_slowdown_view_aggregates_per_group(store, results):
    r = results["hlrc"]
    slow = results["aurc"]
    store.ingest_result("k1", r, scale=SCALE)
    store.ingest_result("k2", slow, scale=SCALE)
    groups = store.slowdowns()
    assert len(groups) == 2  # one per protocol
    by_proto = {g["protocol"]: g for g in groups}
    assert by_proto["hlrc"]["points"] == 1
    assert by_proto["hlrc"]["best"] == pytest.approx(r.speedup)
    # a second run in the same group recomputes only that group
    store.ingest_result("k3", r, scale=SCALE)
    by_proto = {g["protocol"]: g for g in store.slowdowns()}
    assert by_proto["hlrc"]["points"] == 2
    assert by_proto["aurc"]["points"] == 1


def test_non_finite_metric_values_round_trip(store, results):
    base = results["hlrc"]
    r = dataclasses.replace(
        base,
        meta={**base.meta, "bad_nan": float("nan"), "bad_inf": float("inf"),
              "bad_ninf": float("-inf")},
    )
    store.ingest_result("k-nan", r, scale=SCALE)
    meta = store.metrics("k-nan", kind="meta")
    import math

    assert math.isnan(meta["bad_nan"])
    assert meta["bad_inf"] == float("inf")
    assert meta["bad_ninf"] == float("-inf")
    # exports decode them too (sqlite stores them as tagged text)
    out = store.path.parent / "runs.jsonl"
    store.export_jsonl(out, table="run_metrics")
    dumped = [json.loads(line) for line in out.read_text().splitlines()]
    by_name = {d["name"]: d["value"] for d in dumped if d["kind"] == "meta"}
    assert math.isnan(by_name["bad_nan"])
    assert by_name["bad_inf"] == float("inf")


def test_csv_export_and_unknown_table_refused(store, results):
    store.ingest_result("k", results["hlrc"], scale=SCALE)
    out = store.path.parent / "runs.csv"
    assert store.export_csv(out, table="runs") == 1
    header = out.read_text().splitlines()[0]
    assert header.startswith("key,fidelity,model_version")
    with pytest.raises(ValueError, match="unknown table"):
        store.export_csv(out, table="sqlite_master")  # no SQL injection path


# --------------------------------------------------------------------- #
# artifacts + CI history rows
# --------------------------------------------------------------------- #
def test_artifact_history_serves_newest(store):
    store.ingest_artifact("figure01", "old render", scale=1.0, source="t")
    store.ingest_artifact("figure01", "new render", scale=1.0, source="t")
    store.ingest_artifact("figure01", "tiny render", scale=0.05, source="t")
    art = store.artifact("figure01", scale=1.0)
    assert art["text"] == "new render"
    assert store.artifact("figure01")["text"] == "tiny render"  # newest overall
    assert store.artifact("nope") is None
    assert store.artifact_ids() == [("figure01", 0.05, 1), ("figure01", 1.0, 2)]


# --------------------------------------------------------------------- #
# schema versioning
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


def test_v1_database_migrates_in_place(tmp_path, results):
    db = tmp_path / "old.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript(V1_DDL)
    conn.commit()
    conn.close()

    store = ResultStore(db)
    try:
        # v1 rows are visible with the default fidelity...
        assert store.stats()["schema_version"] == SCHEMA_VERSION
        conn = sqlite3.connect(db)
        fid, version = conn.execute(
            "SELECT (SELECT fidelity FROM runs WHERE key='old-key'),"
            " (SELECT value FROM meta WHERE key='schema_version')"
        ).fetchone()
        conn.close()
        assert fid == "des"
        assert int(version) == SCHEMA_VERSION
        # ...and the migrated database accepts new-schema ingests
        assert store.ingest_result("new-key", results["hlrc"], scale=SCALE)
        assert store.stats()["runs"] == 2
    finally:
        store.close()


def test_newer_schema_is_refused(tmp_path):
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
        store.stats()


def test_unmigratable_version_is_refused(tmp_path):
    db = tmp_path / "odd.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript(
        "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
        "INSERT INTO meta VALUES ('schema_version', '0');"
    )
    conn.commit()
    conn.close()
    with pytest.raises(SchemaMismatchError, match="no migration"):
        ResultStore(db).stats()


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
        from repro.core.store import result_store

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

writer, n, db = sys.argv[1], int(sys.argv[2]), sys.argv[3]
cfg = ClusterConfig()
trace = get_app("fft", page_size=cfg.comm.page_size, scale=0.02, seed=cfg.seed)
result = run_simulation(trace, cfg)
store = ResultStore(db)
barrier = db + ".go"
while not os.path.exists(barrier):
    time.sleep(0.001)
# every writer tries the same shared keys plus some of its own: the
# shared ones must come out exactly once
for i in range(n):
    store.ingest_result(f"shared-{i:03d}", result, scale=0.02, sweep="race")
    store.ingest_result(f"{writer}-{i:03d}", result, scale=0.02, sweep="race")
"""

WRITERS = 2
KEYS_PER_WRITER = 12


def test_two_processes_ingest_without_loss_or_duplication(tmp_path):
    db = tmp_path / "race.sqlite"
    env = dict(os.environ, PYTHONPATH="src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, f"w{i}", str(KEYS_PER_WRITER), str(db)],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        for i in range(WRITERS)
    ]
    time.sleep(0.2)  # let both children finish their setup simulation
    (tmp_path / "race.sqlite.go").write_text("")
    for p in procs:
        assert p.wait(timeout=120) == 0

    store = ResultStore(db)
    try:
        expected = {f"shared-{i:03d}" for i in range(KEYS_PER_WRITER)} | {
            f"w{w}-{i:03d}"
            for w in range(WRITERS)
            for i in range(KEYS_PER_WRITER)
        }
        assert store.stats()["runs"] == len(expected)
        keys = [r["key"] for r in store.speedups()]
        assert set(keys) == expected
        assert len(keys) == len(set(keys)), "a contended ingest was duplicated"
        # the view aggregate saw every row exactly once
        (group,) = store.slowdowns()
        assert group["points"] == len(expected)
    finally:
        store.close()

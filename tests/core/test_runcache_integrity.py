"""Run-cache integrity: checksummed envelopes, quarantine, advisory locking."""

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys
import time

import pytest

from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core.fslock import LockTimeout, file_lock
from repro.core.metrics import RunResult
from repro.core.sweeps import cached_run

SCALE = 0.05
CFG = ClusterConfig()


@pytest.fixture
def cache(tmp_path):
    return runcache.DiskCache(tmp_path / "rc")


def _result() -> RunResult:
    # served from the session-level run cache after the first call
    return cached_run("lu", SCALE, CFG)


def _record(cache: runcache.DiskCache, key: str = "k" * 8) -> str:
    cache.put(key, _result())
    return key


# --------------------------------------------------------------------- #
# quarantine on corruption
# --------------------------------------------------------------------- #
def test_roundtrip_ok(cache):
    key = _record(cache)
    got = cache.get(key, CFG)
    assert got == _result() and got.app_name == "lu"
    assert cache.hits == 1 and cache.quarantined == 0


def test_garbage_bytes_quarantined_not_crash(cache):
    key = _record(cache)
    path = cache._path(key)
    path.write_bytes(b"not a pickle at all")
    assert cache.get(key, CFG) is None  # a miss, never an exception
    assert cache.quarantined == 1
    assert not path.exists()
    assert (cache.quarantine_dir / path.name).exists()


def test_truncated_record_quarantined(cache):
    key = _record(cache)
    path = cache._path(key)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert cache.get(key, CFG) is None
    assert (cache.quarantine_dir / path.name).exists()


def test_checksum_mismatch_quarantined(cache):
    """A well-formed envelope whose payload no longer matches its sha256 —
    the exact signature of silent bit-rot — must never be handed back."""
    key = _record(cache)
    path = cache._path(key)
    with open(path, "rb") as fh:
        envelope = pickle.load(fh)
    payload = bytearray(envelope["payload"])
    payload[len(payload) // 2] ^= 0xFF  # flip one byte mid-payload
    envelope["payload"] = bytes(payload)
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)
    assert cache.get(key, CFG) is None
    assert cache.quarantined == 1
    assert (cache.quarantine_dir / path.name).exists()


def test_stale_version_is_miss_but_not_quarantined(cache):
    key = _record(cache)
    path = cache._path(key)
    with open(path, "rb") as fh:
        envelope = pickle.load(fh)
    envelope["model_version"] = runcache.MODEL_VERSION - 1
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)
    assert cache.get(key, CFG) is None
    assert cache.quarantined == 0
    assert path.exists()  # valid history stays in place


def test_poisoned_record_recovers_on_rewrite(cache):
    key = _record(cache)
    cache._path(key).write_bytes(b"\x00" * 32)
    assert cache.get(key, CFG) is None  # quarantined
    cache.put(key, _result())  # a recompute rewrites the slot
    assert cache.get(key, CFG) == _result()


# --------------------------------------------------------------------- #
# format 3: the record holds the result without its config
# --------------------------------------------------------------------- #
def _envelope(cache: runcache.DiskCache, key: str) -> dict:
    with open(cache._path(key), "rb") as fh:
        return pickle.load(fh)


def _write_format2(cache: runcache.DiskCache, key: str, result: RunResult) -> None:
    """The record a format-2 checkout wrote: the whole result, config included."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    record = {
        "magic": runcache._MAGIC,
        "format": 2,
        "model_version": runcache.MODEL_VERSION,
        "app": result.app_name,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload,
    }
    cache.root.mkdir(parents=True, exist_ok=True)
    with open(cache._path(key), "wb") as fh:
        pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)


def test_record_payload_has_no_config(cache):
    key = _record(cache)
    envelope = _envelope(cache, key)
    assert envelope["format"] == 3
    assert pickle.loads(envelope["payload"]).config is None
    assert _result().config is CFG  # put pickled a copy


def test_get_reattaches_the_callers_config(cache):
    key = _record(cache)
    cfg = ClusterConfig()
    got = cache.get(key, cfg)
    assert got.config is cfg
    assert got == _result()


def test_format2_record_is_a_stale_miss_until_rewritten(cache):
    key = _record(cache)
    _write_format2(cache, key, _result())
    report = cache.verify()
    assert (report["ok"], report["stale"], report["quarantined"]) == (0, 1, 0)
    assert cache.get(key, CFG) is None
    assert cache.quarantined == 0 and cache._path(key).exists()
    cache.put(key, _result())  # the recompute's put replaces it
    assert _envelope(cache, key)["format"] == 3
    assert cache.get(key, CFG) == _result()
    assert cache.verify()["ok"] == 1


# --------------------------------------------------------------------- #
# cache verify (the `repro cache verify` audit)
# --------------------------------------------------------------------- #
def test_verify_counts_every_disposition(cache):
    ok_key = _record(cache, "a" * 8)
    bad_key = _record(cache, "b" * 8)
    stale_key = _record(cache, "c" * 8)
    cache._path(bad_key).write_bytes(b"rot")
    with open(cache._path(stale_key), "rb") as fh:
        envelope = pickle.load(fh)
    envelope["format"] = 1
    with open(cache._path(stale_key), "wb") as fh:
        pickle.dump(envelope, fh)

    report = cache.verify()
    assert report["ok"] == 1 and report["stale"] == 1
    assert report["quarantined"] == 1
    assert report["quarantined_files"] == [cache._path(bad_key).name]
    assert cache.get(ok_key, CFG) == _result()
    # a second audit is clean: the corrupt record is already moved aside
    assert cache.verify()["quarantined"] == 0


def test_stats_reports_quarantine_depth(cache):
    key = _record(cache)
    cache._path(key).write_bytes(b"rot")
    cache.get(key, CFG)
    stats = cache.stats()
    assert stats["session_quarantined"] == 1
    assert stats["in_quarantine"] == 1


def test_clear_empties_quarantine_too(cache):
    key = _record(cache)
    cache._path(key).write_bytes(b"rot")
    cache.get(key, CFG)
    cache.clear()
    assert cache.entries() == []
    assert list(cache.quarantine_dir.glob("*.pkl")) == []


# --------------------------------------------------------------------- #
# advisory locking
# --------------------------------------------------------------------- #
def test_file_lock_mutual_exclusion(tmp_path):
    lock = tmp_path / ".lock"
    with file_lock(lock):
        with pytest.raises(LockTimeout):
            with file_lock(lock, timeout=0.2):
                pass  # pragma: no cover - must not be reached


def test_lock_timeout_names_the_lock_path(tmp_path):
    lock = tmp_path / ".lock"
    with file_lock(lock):
        with pytest.raises(LockTimeout) as exc:
            with file_lock(lock, timeout=0.2):
                pass  # pragma: no cover
    assert exc.value.path == str(lock)
    assert f"could not lock {lock} within 0.2s" in str(exc.value)


def test_stale_lock_file_is_not_a_held_lock(tmp_path):
    """flock dies with its holder: a leftover lock *file* (e.g. after
    SIGKILL) must acquire instantly — no manual cleanup step."""
    lock = tmp_path / ".lock"
    lock.write_text("999999\n")  # what an older holder may have left
    with file_lock(lock, timeout=0.5):
        pass


# --------------------------------------------------------------------- #
# concurrent writers
# --------------------------------------------------------------------- #
WRITER = """
import os, pickle, sys, time
from repro.core import runcache

root, blob, go, ready = sys.argv[1:5]
with open(blob, "rb") as fh:
    result = pickle.load(fh)
cache = runcache.DiskCache(root)
open(ready, "w").close()
while not os.path.exists(go):  # start both writers together
    time.sleep(0.001)
for _ in range(ROUNDS):
    for i in range(20):
        cache.put(f"key{i:02d}", result)
"""

#: puts per key per writer: enough for the two writers to overlap (a
#: lock-free put with a shared temp name fails this test reliably)
ROUNDS = 50


def test_two_processes_put_the_same_keys(tmp_path):
    """Concurrent writers of the same 20 keys leave 20 verified records
    and no temp files behind."""
    root = tmp_path / "rc"
    blob = tmp_path / "result.pkl"
    go = tmp_path / "go"
    expected = _result()
    blob.write_bytes(pickle.dumps(expected))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[2] / "src"))
    code = WRITER.replace("ROUNDS", str(ROUNDS))
    ready = [tmp_path / f"ready{n}" for n in range(2)]
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(root), str(blob), str(go), str(flag)],
            env=env,
        )
        for flag in ready
    ]
    deadline = time.monotonic() + 60
    while not all(flag.exists() for flag in ready) and time.monotonic() < deadline:
        time.sleep(0.01)
    go.touch()
    assert [w.wait(timeout=120) for w in writers] == [0, 0]

    cache = runcache.DiskCache(root)
    for i in range(20):
        assert cache.get(f"key{i:02d}", expected.config) == expected
    assert cache.hits == 20 and cache.quarantined == 0
    assert cache.verify()["ok"] == 20
    assert list(root.glob("*.tmp")) == []

"""Persistent disk cache: content hashing, round-trips, invalidation."""

import dataclasses
import pickle
import subprocess
import sys

import pytest

from repro.arch.params import CommParams
from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core.runcache import DiskCache, content_key
from repro.core.sweeps import cached_lookup, cached_run, clear_caches


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runcache.reset_disk_cache()
    clear_caches()
    yield tmp_path
    runcache.reset_disk_cache()
    clear_caches()


# --------------------------------------------------------------------- #
# content hashing
# --------------------------------------------------------------------- #
def test_content_key_is_deterministic():
    cfg = ClusterConfig()
    assert content_key("fft", 0.5, cfg) == content_key("fft", 0.5, cfg)
    assert content_key("fft", 0.5, cfg) == content_key("fft", 0.5, ClusterConfig())


def test_content_key_stable_across_processes():
    """The hash must not depend on per-process state (PYTHONHASHSEED etc.)."""
    import os
    import pathlib

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    code = (
        "from repro.core.runcache import content_key;"
        "from repro.core.config import ClusterConfig;"
        "print(content_key('fft', 0.5, ClusterConfig()))"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=repo_root,
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": str(repo_root / "src"),
            },
        ).stdout.strip()
        for seed in ("0", "1234")
    }
    assert outs == {content_key("fft", 0.5, ClusterConfig())}


def test_content_key_bytes_are_pinned():
    """Every record on disk is filed under its key: an encoder change that
    moved these bytes would orphan every existing cache."""
    assert content_key("fft", 0.5, ClusterConfig()) == (
        "a07d866164029bb92c877eb019a434b9a4dfb9d15ee63f7647bca4ab4dcececa"
    )
    faulty = (
        ClusterConfig()
        .with_faults(drop_prob=0.02, dup_prob=0.02)
        .with_comm(procs_per_node=2)
    )
    assert content_key("fft", 0.5, faulty) == (
        "255c01275221ce60c30465d00a30231c3c81c38b8fd0e751f457a732cd3cc9ae"
    )


def test_content_key_changes_with_every_comm_field():
    base = ClusterConfig()
    base_key = content_key("fft", 0.5, base)
    bumped = {
        "host_overhead": 501,
        "io_bus_mb_per_mhz": 0.25,
        "ni_occupancy": 501,
        "interrupt_cost": 501,
        "page_size": 8192,
        "procs_per_node": 2,
        "interrupt_scheme": "round_robin",
        "protocol_processing": "ni-offload",
        "poll_latency": 100,
        "assist_overhead": 100,
        "nis_per_node": 2,
        "comm_regime": "rdma",
        "rdma_post_cycles": 100,
    }
    # every CommParams field must be covered by this test
    assert set(bumped) == {f.name for f in dataclasses.fields(CommParams)}
    for field, value in bumped.items():
        key = content_key("fft", 0.5, base.with_comm(**{field: value}))
        assert key != base_key, f"hash ignores CommParams.{field}"


def test_content_key_covers_app_scale_seed_and_model_version(monkeypatch):
    base = ClusterConfig()
    k = content_key("fft", 0.5, base)
    assert content_key("lu", 0.5, base) != k
    assert content_key("fft", 0.25, base) != k
    assert content_key("fft", 0.5, base.replace(seed=7)) != k
    monkeypatch.setattr(runcache, "MODEL_VERSION", runcache.MODEL_VERSION + 1)
    assert content_key("fft", 0.5, base) != k


# --------------------------------------------------------------------- #
# disk round-trips
# --------------------------------------------------------------------- #
def test_disk_cache_roundtrip_is_value_identical(cache_dir):
    cfg = ClusterConfig()
    computed = cached_run("lu", 0.1, cfg)
    clear_caches()  # drop memory; force the disk layer
    from_disk = cached_run("lu", 0.1, cfg)
    assert from_disk is not computed
    assert from_disk == computed
    # a re-pickle of the unpickled record must round-trip to the same value
    assert pickle.loads(pickle.dumps(from_disk)) == computed


def test_cached_lookup_misses_then_hits(cache_dir):
    cfg = ClusterConfig()
    assert cached_lookup("lu", 0.1, cfg) is None
    cached_run("lu", 0.1, cfg)
    clear_caches()
    assert cached_lookup("lu", 0.1, cfg) is not None


@pytest.mark.parametrize(
    "junk",
    [
        b"not a pickle",
        b"garbage\n",  # pickle.load raises ValueError, not UnpicklingError
        b"",
        pickle.dumps({"magic": "wrong"})[:-3],  # truncated
        pickle.dumps(["not", "a", "record"]),  # valid pickle, wrong shape
    ],
)
def test_corrupt_record_is_a_miss(cache_dir, junk):
    cache = DiskCache(cache_dir)
    key = content_key("fft", 0.5, ClusterConfig())
    (cache_dir / f"{key}.pkl").write_bytes(junk)
    assert cache.get(key) is None


def test_stale_model_version_is_a_miss(cache_dir, monkeypatch):
    cfg = ClusterConfig()
    cached_run("lu", 0.1, cfg)
    clear_caches()
    monkeypatch.setattr(runcache, "MODEL_VERSION", runcache.MODEL_VERSION + 1)
    # same key function would differ too, but even a forged key must miss
    # because the record header carries the version it was written under
    cache = runcache.disk_cache()
    for entry in cache.entries():
        assert cache.get(entry.stem) is None


def test_clear_caches_disk_flag(cache_dir):
    cached_run("lu", 0.1, ClusterConfig())
    cache = runcache.disk_cache()
    assert cache.stats()["entries"] == 1
    clear_caches()  # memory only
    assert cache.stats()["entries"] == 1
    clear_caches(disk=True)
    assert cache.stats()["entries"] == 0
    assert cached_lookup("lu", 0.1, ClusterConfig()) is None


def test_disk_cache_can_be_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runcache.reset_disk_cache()
    clear_caches()
    try:
        assert runcache.disk_cache() is None
        cached_run("lu", 0.1, ClusterConfig())
        assert list(tmp_path.iterdir()) == []
    finally:
        runcache.reset_disk_cache()
        clear_caches()


def test_warm_grid_computes_each_key_once(cache_dir, monkeypatch):
    """A warm pass pays one key per point: lookup and store ingest share it."""
    from repro.core.executor import run_points

    grid = [
        ("lu", 0.05, ClusterConfig().with_comm(interrupt_cost=c))
        for c in (0, 500, 2000)
    ]
    cold = run_points(grid + grid[:1], jobs=1)
    clear_caches()  # drop memory: the next pass is served from disk
    calls = []
    real = runcache.content_key

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runcache, "content_key", counting)
    warm = run_points(grid + grid[:1], jobs=1)
    assert warm == cold
    assert len(calls) == len(grid)

"""Persistent disk cache: content hashing, round-trips, invalidation."""

import dataclasses
import hashlib
import json
import math
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_ORDER
from repro.arch.params import (
    COMM_REGIMES,
    HOST_OVERHEAD_SWEEP,
    INTERRUPT_COST_SWEEP,
    IO_BANDWIDTH_SWEEP,
    NI_OCCUPANCY_SWEEP,
    PAGE_SIZE_SWEEP,
    PROCS_PER_NODE_SWEEP,
    ArchParams,
    CommParams,
    canonical_numbers,
)
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


def _old_encode(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return repr(obj)


def _old_content_key(app, scale, config):
    """The whole-payload encoder ``content_key`` used before it spliced
    a memoized config encoding: the reference its bytes must match."""
    payload = {
        "model_version": runcache.MODEL_VERSION,
        "app": app,
        "scale": repr(float(scale)),
        "seed": config.seed,
        "config": config,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_old_encode)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _config(protocol, collective, seed, comm, faults, verify, free_fetches, policy):
    return ClusterConfig(
        protocol=protocol,
        collective=collective,
        seed=seed,
        verify=verify,
        free_page_fetches=free_fetches,
        home_policy=policy,
    ).with_comm(**comm).with_faults(**faults)


_probs = st.floats(0.0, 1.0)
_configs = st.builds(
    _config,
    protocol=st.sampled_from(("hlrc", "aurc")),
    collective=st.sampled_from(("flat", "tree", "dissemination")),
    seed=st.integers(0, 2**40),
    comm=st.fixed_dictionaries(
        {
            "host_overhead": st.sampled_from(HOST_OVERHEAD_SWEEP) | st.integers(0, 10**6),
            "io_bus_mb_per_mhz": st.sampled_from(IO_BANDWIDTH_SWEEP)
            | st.floats(1e-3, 1e3),
            "ni_occupancy": st.sampled_from(NI_OCCUPANCY_SWEEP),
            "interrupt_cost": st.sampled_from(INTERRUPT_COST_SWEEP),
            "page_size": st.sampled_from(PAGE_SIZE_SWEEP),
            "procs_per_node": st.sampled_from(PROCS_PER_NODE_SWEEP),
            "comm_regime": st.sampled_from(COMM_REGIMES),
            "protocol_processing": st.sampled_from(
                ("interrupt", "polling-dedicated", "ni-offload")
            ),
        }
    ),
    faults=st.fixed_dictionaries(
        {
            "drop_prob": _probs,
            "dup_prob": _probs,
            "retry_jitter": _probs,
            "fault_seed": st.integers(0, 2**40),
            "degraded_links": st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0.0, 0.99)),
                max_size=2,
            ).map(tuple),
        }
    ),
    verify=st.booleans(),
    free_fetches=st.booleans(),
    policy=st.sampled_from(("first_touch", "round_robin")),
)


@settings(max_examples=200, deadline=None)
@given(
    app=st.sampled_from(APP_ORDER),
    scale=st.sampled_from((0.02, 0.05, 0.25, 1.0)) | st.floats(1e-3, 4.0),
    config=_configs,
)
def test_spliced_key_matches_the_whole_payload_encoder(app, scale, config):
    assert content_key(app, scale, config) == _old_content_key(app, scale, config)


#: pairs of equal configs, one built with a value of the field's
#: annotated type and one with a number of another type
_BASE = ClusterConfig()
_TWINS = [
    (_BASE.with_comm(io_bus_mb_per_mhz=1.0), _BASE.with_comm(io_bus_mb_per_mhz=1)),
    (_BASE.with_comm(host_overhead=3000), _BASE.with_comm(host_overhead=3000.0)),
    (ClusterConfig(arch=ArchParams(ipc=2.0)), ClusterConfig(arch=ArchParams(ipc=2))),
    (
        ClusterConfig(arch=ArchParams(model_rx_gate=False)),
        ClusterConfig(arch=ArchParams(model_rx_gate=0)),
    ),
    (_BASE.with_faults(drop_prob=1.0), _BASE.with_faults(drop_prob=1)),
    (_BASE.with_faults(retry_timeout=5000), _BASE.with_faults(retry_timeout=5e3)),
]


@pytest.mark.parametrize("canonical,twin", _TWINS)
@pytest.mark.parametrize("first", [0, 1])
def test_equal_configs_get_one_key_in_either_lookup_order(canonical, twin, first):
    assert canonical == twin and hash(canonical) == hash(twin)
    # a fresh process encodes each twin without a memo
    fresh = [_old_content_key("fft", 0.5, c) for c in (canonical, twin)]
    assert fresh[0] == fresh[1]
    clear_caches()
    order = (canonical, twin) if first == 0 else (twin, canonical)
    assert [content_key("fft", 0.5, c) for c in order] == fresh
    clear_caches()


def test_canonical_numbers_leaves_lossy_values_alone():
    comm = CommParams(host_overhead=500.5, interrupt_cost=math.inf)
    assert comm.host_overhead == 500.5 and comm.interrupt_cost == math.inf
    # an integral float in an int field becomes that int, in place
    comm = CommParams(ni_occupancy=200.0)
    assert type(comm.ni_occupancy) is int
    canonical_numbers(comm)  # idempotent
    assert comm == CommParams(ni_occupancy=200)


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
    cfg = ClusterConfig()
    key = content_key("fft", 0.5, cfg)
    (cache_dir / f"{key}.pkl").write_bytes(junk)
    assert cache.get(key, cfg) is None


def test_stale_model_version_is_a_miss(cache_dir, monkeypatch):
    cfg = ClusterConfig()
    cached_run("lu", 0.1, cfg)
    clear_caches()
    monkeypatch.setattr(runcache, "MODEL_VERSION", runcache.MODEL_VERSION + 1)
    # same key function would differ too, but even a forged key must miss
    # because the record header carries the version it was written under
    cache = runcache.disk_cache()
    for entry in cache.entries():
        assert cache.get(entry.stem, cfg) is None


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
    """A pass pays one key per point: lookup, simulation, cache write and
    store ingest share it, cold or warm."""
    from repro.core.executor import run_points

    grid = [
        ("lu", 0.05, ClusterConfig().with_comm(interrupt_cost=c))
        for c in (0, 500, 2000)
    ]
    calls = []
    real = runcache.content_key

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runcache, "content_key", counting)
    cold = run_points(grid + grid[:1], jobs=1)
    assert len(calls) == len(grid)
    clear_caches()  # drop memory: the next pass is served from disk
    calls.clear()
    warm = run_points(grid + grid[:1], jobs=1)
    assert warm == cold
    assert len(calls) == len(grid)

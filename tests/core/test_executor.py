"""Parallel executor: determinism, ordering, dedup, jobs resolution."""

import dataclasses
import json

import pytest

from repro.arch.params import HOST_OVERHEAD_SWEEP
from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core.executor import (
    Point,
    prefetch,
    resolve_jobs,
    run_points,
    set_default_jobs,
)
from repro.core.sweeps import cached_lookup, clear_caches, run_apps, sweep_comm_param

#: a small 3-app x 3-point grid (distinct interrupt costs force real runs)
GRID_APPS = ("fft", "lu", "water-sp")
GRID_COSTS = (0, 500, 2000)
GRID_SCALE = 0.05


def _grid():
    base = ClusterConfig()
    return [
        (app, GRID_SCALE, base.with_comm(interrupt_cost=c))
        for app in GRID_APPS
        for c in GRID_COSTS
    ]


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runcache.reset_disk_cache()
    clear_caches()
    yield
    runcache.reset_disk_cache()
    clear_caches()


def _canon(results):
    """Canonical serialization: every field of every RunResult, as JSON."""
    return json.dumps(
        [
            {
                "app": r.app_name,
                "problem": r.problem,
                "config": dataclasses.asdict(r.config),
                "total_cycles": r.total_cycles,
                "serial_cycles": r.serial_cycles,
                "uncontended_busy_max": r.uncontended_busy_max,
                "proc_stats": [
                    {"time": s.time, "counters": sorted(s.counters.items())}
                    for s in r.proc_stats
                ],
                "counters": dataclasses.asdict(r.counters),
                "meta": sorted(r.meta.items()),
            }
            for r in results
        ],
        sort_keys=True,
        default=repr,
    )


def test_parallel_matches_serial_bit_identically(fresh):
    serial = run_points(_grid(), jobs=1)
    clear_caches(disk=True)
    parallel = run_points(_grid(), jobs=4)
    assert serial == parallel
    assert _canon(serial) == _canon(parallel)


def test_run_points_preserves_order_and_dedups(fresh):
    base = ClusterConfig()
    pts = [
        ("lu", GRID_SCALE, base),
        ("fft", GRID_SCALE, base),
        ("lu", GRID_SCALE, base),  # duplicate: must be simulated once
    ]
    results = run_points(pts, jobs=2)
    assert [r.app_name for r in results] == ["lu", "fft", "lu"]
    assert results[0] is results[2]


def test_run_points_populates_shared_caches(fresh):
    p = Point("lu", GRID_SCALE, ClusterConfig())
    assert cached_lookup(*p) is None
    prefetch([p], jobs=2)
    assert cached_lookup(*p) is not None
    # and the disk layer saw it too
    clear_caches()
    assert cached_lookup(*p) is not None


def test_sweep_and_run_apps_accept_jobs(fresh):
    results = sweep_comm_param(
        "lu", "host_overhead", HOST_OVERHEAD_SWEEP[:2], scale=GRID_SCALE, jobs=2
    )
    assert len(results) == 2
    out = run_apps(apps=["lu", "fft"], scale=GRID_SCALE, jobs=2)
    assert set(out) == {"lu", "fft"}


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit beats env
    set_default_jobs(7)
    try:
        assert resolve_jobs() == 7  # default beats env
        assert resolve_jobs(2) == 2  # explicit still wins
    finally:
        set_default_jobs(None)
    assert resolve_jobs(0) >= 1  # 0 = all cores


def test_resolve_jobs_ignores_garbage_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert resolve_jobs() == 1


def test_jobs_zero_means_all_cores(monkeypatch):
    import os

    for cores in (1, 8):  # host-independent: the core count is faked
        monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == cores
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == cores
        assert resolve_jobs(-3) == 1  # negatives clamp to serial, not crash
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert resolve_jobs() == 1


def test_single_point_grid_runs_serial_even_with_jobs(fresh):
    """One unique point (after dedup) must not pay process-pool startup."""
    base = ClusterConfig()
    pts = [("lu", GRID_SCALE, base)] * 4  # dedups to a single point
    results = run_points(pts, jobs=8)
    assert len(results) == 4
    assert all(r is results[0] for r in results)

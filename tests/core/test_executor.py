"""Parallel executor: determinism, ordering, dedup, jobs resolution."""

import dataclasses
import json

import pytest

from repro.arch.params import HOST_OVERHEAD_SWEEP
from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core import executor
from repro.core.executor import GridExecutionError, Point, resolve_jobs, run_points
from repro.core.sweeps import cached_lookup, clear_caches, sweep_comm_param

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
    run_points([p], jobs=2)
    assert cached_lookup(*p) is not None
    # and the disk layer saw it too
    clear_caches()
    assert cached_lookup(*p) is not None


def test_sweep_and_run_points_accept_jobs(fresh):
    results = sweep_comm_param(
        "lu", "host_overhead", HOST_OVERHEAD_SWEEP[:2], scale=GRID_SCALE, jobs=2
    )
    assert len(results) == 2
    out = run_points([(name, GRID_SCALE, ClusterConfig()) for name in ("lu", "fft")], jobs=2)
    assert [r.app_name for r in out] == ["lu", "fft"]


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit beats env
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


def test_twelve_processor_point_runs_through_the_cache(fresh):
    """A config with fewer than 16 processors gets a trace built for its
    own processor count, so it is an ordinary, cached grid point."""
    from repro.apps import get_app
    from repro.core.run import run_simulation

    cfg = ClusterConfig(total_procs=12).with_comm(
        procs_per_node=3, protocol_processing="polling-dedicated"
    )
    [result] = run_points([("fft", 0.02, cfg)])
    clear_caches()  # drop the memory layer: the hit must come from disk
    assert cached_lookup("fft", 0.02, cfg) is not None
    direct = run_simulation(get_app("fft", n_procs=12, scale=0.02), cfg)
    assert result == direct
    assert _canon([result]) == _canon([direct])


def test_interrupt_drains_only_the_running_points(fresh, monkeypatch):
    """Under jobs=2 an interrupt leaves at most the two running points to
    finish: no further point waits in the pool's call queue."""
    import _thread
    import threading

    monkeypatch.setenv("REPRO_CHAOS_POINT_DELAY_S", "1")
    base = ClusterConfig()
    grid = [("lu", GRID_SCALE, base.with_comm(interrupt_cost=c)) for c in range(0, 1000, 100)]
    timer = threading.Timer(0.25, _thread.interrupt_main)
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_points(grid, jobs=2)
    finally:
        timer.cancel()
    assert len(list(runcache.disk_cache().entries())) <= 2


def test_crashed_worker_fails_points_instead_of_aborting(fresh, monkeypatch):
    """A worker that dies outright breaks the pool; the points it takes
    down fail, and the grid ends in a GridExecutionError, never a bare
    BrokenProcessPool."""
    import os

    compute = executor._compute_point
    parent = os.getpid()

    def crash_on_lu(point):
        if point.app == "lu":
            if os.getpid() != parent:
                os._exit(1)
            raise RuntimeError("lu run in-process")  # never kill the test
        return compute(point)

    # pool workers fork from this process, so they inherit the patch
    monkeypatch.setattr(executor, "_compute_point", crash_on_lu)
    grid = [("lu", GRID_SCALE, ClusterConfig())] + _grid()
    with pytest.raises(GridExecutionError) as info:
        run_points(grid, jobs=2)
    failed = {f.point.app for f in info.value.failures}
    assert "lu" in failed

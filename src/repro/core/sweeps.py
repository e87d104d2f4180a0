"""Parameter-sweep helpers with layered run caching.

Every experiment is some grid of (application x configuration) runs; two
cache layers keep shared points (e.g. the achievable baseline) from being
simulated repeatedly:

* in-memory dicts (this module) — hits within one process;
* the persistent disk cache (:mod:`repro.core.runcache`) — hits across
  processes and invocations, shared with pool workers.

Grids go through :func:`repro.core.executor.run_points` to use several
cores; :func:`sweep_comm_param` accepts a ``jobs`` argument and forwards it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import get_app
from repro.apps.base import AppTrace
from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core.metrics import RunResult
from repro.core.run import run_simulation

_RUN_CACHE: Dict[Tuple, RunResult] = {}
_TRACE_CACHE: Dict[Tuple, AppTrace] = {}
#: each point's run-cache content key, so a point pays for it once
_KEY_CACHE: Dict[Tuple, str] = {}


def clear_caches(disk: bool = False) -> None:
    """Drop the in-memory run/trace caches; ``disk=True`` also purges the
    persistent cache directory.

    The disk cache is keyed on :data:`repro.core.runcache.MODEL_VERSION`;
    bump that constant on any cost-model change instead of relying on a
    manual clear (see the cache-coherence rule in that module).
    """
    _RUN_CACHE.clear()
    _TRACE_CACHE.clear()
    _KEY_CACHE.clear()
    if disk:
        cache = runcache.disk_cache()
        if cache is not None:
            cache.clear()


def cached_trace(
    name: str, scale: float, page_size: int, seed: int, n_procs: int
) -> AppTrace:
    key = (name, scale, page_size, seed, n_procs)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = _TRACE_CACHE[key] = get_app(
            name, n_procs=n_procs, page_size=page_size, scale=scale, seed=seed
        )
    return trace


def point_key(name: str, scale: float, config: ClusterConfig) -> str:
    """The point's :func:`repro.core.runcache.content_key`, memoized
    until :func:`clear_caches`: lookup, store and result-store ingest
    of one point share a single computation."""
    key = (name, scale, config)
    digest = _KEY_CACHE.get(key)
    if digest is None:
        digest = _KEY_CACHE[key] = runcache.content_key(name, scale, config)
    return digest


def cached_lookup(
    name: str, scale: float, config: ClusterConfig
) -> Optional[RunResult]:
    """Fetch one point from the cache layers without simulating.

    A disk hit is promoted into the in-memory cache.  Returns ``None``
    on a full miss.
    """
    key = (name, scale, config)
    result = _RUN_CACHE.get(key)
    if result is not None:
        return result
    disk = runcache.disk_cache()
    if disk is not None:
        result = disk.get(point_key(name, scale, config))
        if result is not None:
            _RUN_CACHE[key] = result
    return result


def cache_store(
    name: str,
    scale: float,
    config: ClusterConfig,
    result: RunResult,
    disk: bool = True,
) -> None:
    """Install a computed point into the cache layers.

    ``disk=False`` skips the persistent layer (used when the record is
    known to be on disk already, e.g. written by the pool worker that
    computed it)."""
    _RUN_CACHE[(name, scale, config)] = result
    if disk:
        cache = runcache.disk_cache()
        if cache is not None:
            cache.put(point_key(name, scale, config), result)


def cached_run(name: str, scale: float, config: ClusterConfig) -> RunResult:
    """Run (or fetch) one (app, config) point.

    The trace is regenerated when the configuration's page size or
    processor count changes (page numbers and the work split depend on
    them); clustering changes reuse the same trace.
    """
    result = cached_lookup(name, scale, config)
    if result is None:
        trace = cached_trace(
            name, scale, config.comm.page_size, config.seed, config.total_procs
        )
        result = run_simulation(trace, config)
        cache_store(name, scale, config, result)
    return result


def sweep_comm_param(
    app_name: str,
    param: str,
    values: Sequence,
    base: Optional[ClusterConfig] = None,
    scale: float = 1.0,
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """Vary one CommParams field over ``values`` (all else achievable)."""
    from repro.core.executor import run_points

    base = base if base is not None else ClusterConfig()
    points = [(app_name, scale, base.with_comm(**{param: v})) for v in values]
    return run_points(points, jobs=jobs)

"""Parallel execution of independent simulation points.

Every experiment in the study is an embarrassingly parallel grid of
(application, scale, configuration) points.  :func:`run_points` is the
one entry point: it deduplicates the requested grid, satisfies what it
can from the in-memory and on-disk caches, fans the remaining misses
across a ``concurrent.futures`` process pool, and returns results in the
requested order — bit-identical to a serial run, because each point's
simulation is deterministic and self-contained.

Worker count resolution (first match wins):

1. the explicit ``jobs=`` argument;
2. the ``REPRO_JOBS`` environment variable;
3. serial (1).

``jobs=1`` never touches ``multiprocessing`` — debugging, profiling and
coverage see a plain in-process loop.  ``jobs=0`` means "all cores"
(``os.cpu_count() or 1``), a negative count clamps to 1, and the pool is
always clamped to the number of points actually missing from the caches
— a deduplicated single-point grid runs in-process, never in an
oversized pool.

Failure handling
----------------
A grid run is an hour of work; one poisoned point must not discard the
other 99.  Every point is submitted individually and its exception is
captured *per point* (inside the worker when possible, around the future
otherwise).  A crashed worker process breaks the pool, so it fails the
rest of that round's points, and the retry round reruns them in a fresh
pool.  Failed points are retried ``retries`` times (default 1, override with
``REPRO_POINT_RETRIES``) before being recorded as a
:class:`PointFailure`.  With ``strict=True`` (the default)
:func:`run_points` finishes all in-flight work, then raises
:class:`GridExecutionError` summarizing every failure; with
``strict=False`` it returns the ordered results with each failed point's
slot holding its :class:`PointFailure` so callers can salvage the rest.

Interrupts
----------
An interrupt is an ordinary ``KeyboardInterrupt``.  Every point a grid
finishes is written to the disk run cache as it completes (by the pool
worker, or by the serial loop), so nothing needs journaling: a pool
holds at most one submitted point per worker, and those points finish
and land in the cache before the interrupt propagates.  Rerunning the
same command serves the finished points from the cache and yields
bit-identical results; a SIGKILL costs at most the points in flight.

Resource guards
---------------
``deadline_s=`` / ``rss_mb=`` (or ``REPRO_POINT_DEADLINE_S`` /
``REPRO_POINT_RSS_MB``) bound each point's wall-clock time and address
space (POSIX only; no-ops elsewhere).  A breach surfaces as a retriable
:class:`PointFailure` with ``kind`` ``"deadline"`` or ``"rss"`` — a
runaway point degrades a grid instead of wedging it.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import ClusterConfig
from repro.core.metrics import RunResult

try:  # POSIX only; resource guards degrade to no-ops elsewhere
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None  # type: ignore[assignment]


class Point(NamedTuple):
    """One simulation point: which app, at what scale, under which config."""

    app: str
    scale: float
    config: ClusterConfig


PointLike = Union[Point, Tuple[str, float, ClusterConfig]]


class PointDeadlineExceeded(RuntimeError):
    """A simulation point overran its per-point wall-clock deadline."""


@dataclass
class PointFailure:
    """Structured record of one simulation point that could not be run."""

    point: Point
    #: ``"ExcType: message"`` — always present, always picklable
    error: str
    #: full formatted traceback from the failing attempt
    traceback: str
    #: total attempts made (1 + retries)
    attempts: int = 1
    #: failure class: ``"error"`` (exception), ``"deadline"`` (wall-clock
    #: guard), or ``"rss"`` (memory guard) — guard breaches are retriable
    #: like any other failure
    kind: str = "error"
    #: the original exception object, when it survives pickling across
    #: the process boundary (best effort; ``None`` otherwise)
    exception: Optional[BaseException] = field(default=None, repr=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" [{self.kind}]" if self.kind != "error" else ""
        return (
            f"{self.point.app}@{self.point.scale} "
            f"[{self.point.config.label()}]{tag}: {self.error} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


#: failures listed verbatim in a GridExecutionError message before the
#: summary switches to a "... and N more" tail
MAX_SUMMARIZED_FAILURES = 10


class GridExecutionError(RuntimeError):
    """Raised by ``run_points(strict=True)`` when any point failed.

    Carries every :class:`PointFailure` in :attr:`failures`; the grid's
    successful points have still been computed and cached, so a re-run
    after fixing the cause only pays for the failed points.  The message
    summarizes at most :data:`MAX_SUMMARIZED_FAILURES` failures — a
    fully-failed 500-point grid prints a bounded report, not megabytes.
    """

    def __init__(self, failures: Sequence[PointFailure]) -> None:
        self.failures: List[PointFailure] = list(failures)
        shown = self.failures[:MAX_SUMMARIZED_FAILURES]
        lines = "\n".join(f"  - {f}" for f in shown)
        hidden = len(self.failures) - len(shown)
        if hidden:
            lines += (
                f"\n  ... and {hidden} more failure"
                f"{'s' if hidden != 1 else ''} (all carried in .failures)"
            )
        super().__init__(
            f"{len(self.failures)} of the requested grid points failed:\n{lines}"
        )


def _normalize(jobs: int) -> int:
    jobs = int(jobs)
    if jobs == 0:  # one worker per core
        return os.cpu_count() or 1
    return max(1, jobs)  # negatives clamp to serial


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an effective worker count (see module docstring)."""
    if jobs is not None:
        return _normalize(jobs)
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return _normalize(int(env))
        except ValueError:
            pass
    return 1


def resolve_retries(retries: Optional[int] = None) -> int:
    """Resolve the per-point retry budget (``REPRO_POINT_RETRIES``
    overrides the built-in default of 1)."""
    if retries is not None:
        return max(0, int(retries))
    env = os.environ.get("REPRO_POINT_RETRIES", "").strip()
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return 1


def _positive_float_env(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return None


def resolve_deadline(deadline_s: Optional[float] = None) -> Optional[float]:
    """Per-point wall-clock deadline in seconds (arg, then
    ``REPRO_POINT_DEADLINE_S``; ``None``/unset = unguarded)."""
    if deadline_s is not None:
        return float(deadline_s) if deadline_s > 0 else None
    return _positive_float_env("REPRO_POINT_DEADLINE_S")


def resolve_rss_limit(rss_mb: Optional[float] = None) -> Optional[int]:
    """Per-point address-space ceiling in MiB (arg, then
    ``REPRO_POINT_RSS_MB``; ``None``/unset = unguarded)."""
    if rss_mb is not None:
        return int(rss_mb) if rss_mb > 0 else None
    value = _positive_float_env("REPRO_POINT_RSS_MB")
    return None if value is None else int(value)


@contextmanager
def _resource_guard(
    deadline_s: Optional[float], rss_mb: Optional[int]
) -> Iterator[None]:
    """Bound one point's wall-clock time and address space (POSIX).

    The deadline uses ``SIGALRM``/``setitimer`` (main thread only — pool
    workers run tasks in their main thread, so guards work under
    ``jobs>1`` and in the serial loop alike); the memory ceiling uses
    ``RLIMIT_AS``, so a breach surfaces as ``MemoryError`` from the
    allocation that crossed it.  Both are restored on exit *before* the
    caller's exception handling runs, so capturing the failure itself is
    never subject to the breached limit.
    """
    if deadline_s is None and rss_mb is None:
        yield
        return
    old_limit = None
    if rss_mb is not None and _resource is not None:
        ceiling = int(rss_mb) * (1 << 20)
        old_limit = _resource.getrlimit(_resource.RLIMIT_AS)
        soft = (
            ceiling
            if old_limit[1] == _resource.RLIM_INFINITY
            else min(ceiling, old_limit[1])
        )
        try:
            _resource.setrlimit(_resource.RLIMIT_AS, (soft, old_limit[1]))
        except (ValueError, OSError):  # pragma: no cover - exotic rlimits
            old_limit = None
    timer_armed = False
    old_handler = None
    if (
        deadline_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    ):

        def _on_deadline(signum, frame):  # noqa: ARG001
            raise PointDeadlineExceeded(
                f"simulation point exceeded its {deadline_s:g}s "
                "wall-clock deadline"
            )

        old_handler = signal.signal(signal.SIGALRM, _on_deadline)
        signal.setitimer(signal.ITIMER_REAL, float(deadline_s))
        timer_armed = True
    try:
        yield
    finally:
        if timer_armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
        if old_limit is not None:
            try:
                _resource.setrlimit(_resource.RLIMIT_AS, old_limit)
            except (ValueError, OSError):  # pragma: no cover
                pass


#: how often a pool worker checks that the sweep that started it is alive
_ORPHAN_POLL_S = 1.0


def _exit_when_orphaned(parent: int) -> None:
    """Pool-worker watchdog thread: exit once ``parent`` has died.

    A dead parent's pool never sends the shutdown message, and a worker
    ignoring SIGINT/SIGTERM would otherwise idle forever, reparented.
    Its in-flight point is lost either way; the cache write is atomic.
    """
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _worker_init() -> None:
    """Pool-worker initializer: leave interrupt handling to the parent.

    On Ctrl-C the terminal signals the whole process group; workers must
    finish (and cache) their in-flight point so a rerun can reuse it, so
    they ignore SIGINT/SIGTERM and exit when the parent shuts the pool
    down — or, if the parent is killed outright, within
    :data:`_ORPHAN_POLL_S` of its death.
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()


def _compute_point(point: Point) -> RunResult:
    """Pool worker: simulate one point (module-level for picklability).

    Delegates to :func:`repro.core.sweeps.cached_run`, so a long-lived
    worker process reuses traces across the points it is handed and
    writes each fresh result straight into the shared disk cache.
    """
    from repro.core import sweeps

    return sweeps.cached_run(point.app, point.scale, point.config)


def _capture_failure(
    point: Point, exc: BaseException, attempts: int, kind: str = "error"
) -> PointFailure:
    keep: Optional[BaseException] = exc
    try:  # only ship the exception object home if it survives pickling
        pickle.loads(pickle.dumps(exc))
    except Exception:
        keep = None
    return PointFailure(
        point=point,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        attempts=attempts,
        kind=kind,
        exception=keep,
    )


def _compute_point_guarded(
    point: Point,
    attempts: int,
    deadline_s: Optional[float] = None,
    rss_mb: Optional[int] = None,
) -> Union[RunResult, PointFailure]:
    """Pool worker that never raises: failures come back as data, so one
    bad point cannot tear down the whole ``pool.map``-style batch.  Only
    an interrupt of the serial loop propagates."""
    try:
        with _resource_guard(deadline_s, rss_mb):
            # Chaos-test hooks: slow every computed point down (so a test
            # can deterministically kill/interrupt a sweep mid-grid) or
            # balloon its memory (so a test can breach the RSS guard).
            chaos_delay = _positive_float_env("REPRO_CHAOS_POINT_DELAY_S")
            if chaos_delay:
                time.sleep(chaos_delay)
            chaos_alloc = _positive_float_env("REPRO_CHAOS_POINT_ALLOC_MB")
            if chaos_alloc:
                _ballast = bytearray(int(chaos_alloc * (1 << 20)))  # noqa: F841
            return _compute_point(point)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - the whole point
        if isinstance(exc, PointDeadlineExceeded):
            kind = "deadline"
        elif rss_mb is not None and isinstance(exc, MemoryError):
            kind = "rss"
        else:
            kind = "error"
        return _capture_failure(point, exc, attempts, kind)


def run_points(
    points: Iterable[PointLike],
    jobs: Optional[int] = None,
    retries: Optional[int] = None,
    strict: bool = True,
    deadline_s: Optional[float] = None,
    rss_mb: Optional[float] = None,
) -> List[Union[RunResult, PointFailure]]:
    """Run (or fetch) every point, in parallel, preserving input order.

    Duplicate points are simulated once.  Results are also installed in
    the in-memory run cache, so subsequent :func:`~repro.core.sweeps.
    cached_run` calls for the same points are hits.

    Failed points are retried ``retries`` times (see
    :func:`resolve_retries`).  With ``strict=True`` a residual failure
    raises :class:`GridExecutionError` *after* all in-flight points have
    completed (and been cached); with ``strict=False`` the returned list
    holds a :class:`PointFailure` in each failed slot.
    ``deadline_s``/``rss_mb`` arm the per-point resource guards.
    """
    from repro.core import sweeps

    ordered: List[Point] = [Point(*p) for p in points]
    unique: List[Point] = list(dict.fromkeys(ordered))

    # Satisfy what we can from the layered caches (memory, then disk).
    resolved: Dict[Point, Union[RunResult, PointFailure]] = {}
    misses: List[Point] = []
    for p in unique:
        hit = sweeps.cached_lookup(p.app, p.scale, p.config)
        if hit is not None:
            resolved[p] = hit
        else:
            misses.append(p)

    # An oversized pool is pure overhead: clamp workers to the number of
    # points actually missing (jobs=0 already clamps to cpu_count).
    n_jobs = resolve_jobs(jobs)
    if misses:
        n_jobs = max(1, min(n_jobs, len(misses)))
    budget = resolve_retries(retries)
    deadline = resolve_deadline(deadline_s)
    rss = resolve_rss_limit(rss_mb)

    pending: List[Point] = misses
    for attempt in range(1, budget + 2):  # first try + `budget` retries
        if not pending:
            break
        last_round = attempt == budget + 1
        round_points = pending
        from_pool = n_jobs > 1 and len(pending) > 1
        if from_pool:
            outcomes = _map_parallel(pending, n_jobs, attempt, deadline, rss)
        else:
            outcomes = {
                p: _compute_point_guarded(p, attempt, deadline, rss)
                for p in pending
            }
        pending = []
        for p in round_points:
            out = outcomes[p]
            if isinstance(out, RunResult):
                if from_pool:
                    # the worker wrote the disk layer; install the result
                    # in this process's memory cache so later calls hit
                    sweeps.cache_store(p.app, p.scale, p.config, out, disk=False)
                resolved[p] = out
            elif last_round:
                resolved[p] = out
            else:
                pending.append(p)

    # Every completed point lands in the columnar result store — the
    # sweep builds the longitudinal corpus as a side effect.  Cache hits
    # ingest too (idempotent per content key) so migrated/old caches
    # backfill; failures never block the grid (best-effort by contract).
    _ingest_outcomes(unique, [resolved[p] for p in unique])

    failures = [r for r in resolved.values() if isinstance(r, PointFailure)]
    if failures and strict:
        raise GridExecutionError(failures)
    return [resolved[p] for p in ordered]


def _ingest_outcomes(
    points: Sequence[Point],
    outcomes: Sequence[Union[RunResult, PointFailure]],
) -> None:
    """Append a grid's successful outcomes to the result store.

    ``points`` are distinct.
    """
    from repro.core import runcache
    from repro.core.store import ingest_quietly, result_store

    if result_store() is None:
        return
    entries = []
    for p, out in zip(points, outcomes):
        if isinstance(out, RunResult):
            key = runcache.content_key(p.app, p.scale, p.config)
            entries.append((key, out, p.scale))
    if entries:
        ingest_quietly(entries)


def _map_parallel(
    misses: Sequence[Point],
    n_jobs: int,
    attempts: int,
    deadline_s: Optional[float] = None,
    rss_mb: Optional[int] = None,
) -> Dict[Point, Union[RunResult, PointFailure]]:
    """Fan points across a process pool, one future per point.

    At most one future per worker is outstanding: the next point, in
    ``misses`` order, is submitted as each one completes.  So nothing
    waits in the pool's call queue, and an interrupt never has more
    than the points already running left to drain.

    Exceptions are normally caught *inside* the worker; the ``except``
    clauses here only fire for infrastructure-level failures (a worker
    killed by the OS, an unpicklable result, a broken pool) — and still
    map them onto the individual point rather than aborting the batch.
    A broken pool refuses every later submission, so the rest of the
    queue fails at once and goes to the next retry round, which starts
    a fresh pool.

    On ``KeyboardInterrupt`` the interrupt is re-raised; leaving the
    pool's ``with`` block then waits for the points already running,
    whose workers cache their results.
    """
    from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait

    workers = max(1, min(n_jobs, len(misses)))
    outcomes: Dict[Point, Union[RunResult, PointFailure]] = {}
    queue = iter(misses)
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
        running: Dict[Future, Point] = {}

        def submit_next() -> None:
            for p in queue:
                try:
                    fut = pool.submit(
                        _compute_point_guarded, p, attempts, deadline_s, rss_mb
                    )
                except Exception as exc:  # noqa: BLE001 - a broken pool
                    outcomes[p] = _capture_failure(p, exc, attempts)
                    continue
                running[fut] = p
                return

        for _ in range(workers):
            submit_next()
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                p = running.pop(fut)
                try:
                    outcomes[p] = fut.result()
                except Exception as exc:  # noqa: BLE001 - see docstring
                    outcomes[p] = _capture_failure(p, exc, attempts)
                submit_next()
    return outcomes

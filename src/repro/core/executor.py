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
Each grid gets one pass.  Every point is submitted individually and its
exception is captured *per point* (inside the worker when possible,
around the future otherwise), so one poisoned point never discards its
siblings' work.  A crashed worker process breaks the pool, which fails
every point not yet finished; nothing is retried.  With ``strict=True``
(the default) :func:`run_points` finishes all in-flight work, then
raises :class:`GridExecutionError` summarizing every failure; with
``strict=False`` it returns the ordered results with each failed point's
slot holding its :class:`PointFailure` so callers can salvage the rest.
Either way the successful points are cached, so after fixing the cause
(or to retry a transient crash) rerun the same command: a full-scale
regeneration is about a minute of simulation on two cores, and the
rerun computes
only what is missing.

Interrupts
----------
An interrupt is an ordinary ``KeyboardInterrupt``.  Every point a grid
finishes is written to the disk run cache as it completes (by the pool
worker, or by the serial loop), so nothing needs journaling: a pool
holds at most one submitted point per worker, and those points finish
and land in the cache before the interrupt propagates.  Rerunning the
same command serves the finished points from the cache and yields
bit-identical results; a SIGKILL costs at most the points in flight.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core.metrics import RunResult


class Point(NamedTuple):
    """One simulation point: which app, at what scale, under which config."""

    app: str
    scale: float
    config: ClusterConfig


PointLike = Union[Point, Tuple[str, float, ClusterConfig]]


@dataclass
class PointFailure:
    """Structured record of one simulation point that could not be run."""

    point: Point
    #: ``"ExcType: message"`` — always present, always picklable
    error: str
    #: full formatted traceback of the failure
    traceback: str
    #: the original exception object, when it survives pickling across
    #: the process boundary (best effort; ``None`` otherwise)
    exception: Optional[BaseException] = field(default=None, repr=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.point.app}@{self.point.scale} "
            f"[{self.point.config.label()}]: {self.error}"
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


def _compute_point(point: Point, key: Optional[str] = None) -> RunResult:
    """Pool worker: simulate one point (module-level for picklability).

    Delegates to :func:`repro.core.sweeps.cached_run`, so a long-lived
    worker process reuses traces across the points it is handed and
    writes each fresh result straight into the shared disk cache.
    """
    from repro.core import sweeps

    return sweeps.cached_run(point.app, point.scale, point.config, key)


def _capture_failure(point: Point, exc: BaseException) -> PointFailure:
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
        exception=keep,
    )


def _compute_or_capture(
    point: Point, key: Optional[str] = None
) -> Union[RunResult, PointFailure]:
    """Pool worker that never raises: failures come back as data, so one
    bad point cannot tear down the whole batch.  Only an interrupt of
    the serial loop propagates."""
    try:
        # Chaos-test hook: slow every computed point down so a test can
        # deterministically kill or interrupt a sweep mid-grid.
        try:
            delay = float(os.environ.get("REPRO_CHAOS_POINT_DELAY_S", "") or 0)
        except ValueError:
            delay = 0.0
        if delay > 0:
            time.sleep(delay)
        return _compute_point(point, key)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - the whole point
        return _capture_failure(point, exc)


def run_points(
    points: Iterable[PointLike],
    jobs: Optional[int] = None,
    strict: bool = True,
) -> List[Union[RunResult, PointFailure]]:
    """Run (or fetch) every point, in parallel, preserving input order.

    Duplicate points are simulated once, and each missing point is
    computed once: there is no retry.  Results are also installed in
    the in-memory run cache, so subsequent :func:`~repro.core.sweeps.
    cached_run` calls for the same points are hits.

    With ``strict=True`` a failure raises :class:`GridExecutionError`
    *after* all in-flight points have completed (and been cached); with
    ``strict=False`` the returned list holds a :class:`PointFailure` in
    each failed slot.
    """
    from repro.core import sweeps

    # each distinct point gets one slot; ``positions`` maps the request
    # onto the slots, so no later step hashes a point again
    slots: Dict[Point, int] = {}
    positions = [slots.setdefault(Point(*p), len(slots)) for p in points]
    unique: List[Point] = list(slots)
    keys = [runcache.content_key(*p) for p in unique]

    # Satisfy what we can from the layered caches (memory, then disk).
    hits = [sweeps.cached_lookup(*p, key) for p, key in zip(unique, keys)]
    misses = [i for i, hit in enumerate(hits) if hit is None]

    # An oversized pool is pure overhead: clamp workers to the number of
    # points actually missing (jobs=0 already clamps to cpu_count).
    n_jobs = min(resolve_jobs(jobs), len(misses))
    computed: Dict[int, Union[RunResult, PointFailure]]
    if n_jobs > 1:
        computed = _map_parallel([(i, unique[i], keys[i]) for i in misses], n_jobs)
        for i, out in computed.items():
            if isinstance(out, RunResult):
                # the worker wrote the disk layer; install the result in
                # this process's memory cache so later calls hit
                sweeps.cache_store(*unique[i], out, disk=False, key=keys[i])
    else:
        computed = {i: _compute_or_capture(unique[i], keys[i]) for i in misses}
    outcomes = [computed[i] if hit is None else hit for i, hit in enumerate(hits)]

    # Every completed point is appended to the result store's runs
    # table.  Cache hits ingest too, so a fresh store backfills;
    # re-ingesting a stored key takes no lock and writes nothing.
    # Failures never block the grid (best-effort by contract).
    _ingest_outcomes(unique, keys, outcomes)

    failures = [r for r in outcomes if isinstance(r, PointFailure)]
    if failures and strict:
        raise GridExecutionError(failures)
    return [outcomes[i] for i in positions]


def _ingest_outcomes(
    points: Sequence[Point],
    keys: Sequence[str],
    outcomes: Sequence[Union[RunResult, PointFailure]],
) -> None:
    """Append a grid's successful outcomes to the result store.

    ``points`` are distinct and ``keys`` their content keys.  Points
    the store already holds are dropped by one indexed read before any
    lock or write.
    """
    from repro.core.store import ingest_quietly, result_store

    if result_store() is None:
        return
    entries = [
        (key, out, p.scale)
        for p, key, out in zip(points, keys, outcomes)
        if isinstance(out, RunResult)
    ]
    if entries:
        ingest_quietly(entries)


def _map_parallel(
    misses: Sequence[Tuple[int, Point, str]], workers: int
) -> Dict[int, Union[RunResult, PointFailure]]:
    """Fan ``(slot, point, key)`` triples across a pool of ``workers``
    processes, one future per point; returns the outcomes by slot.
    Each worker gets the point's content key with it, so it does not
    encode and hash the config again.

    At most one future per worker is outstanding: the next point, in
    ``misses`` order, is submitted as each one completes.  So nothing
    waits in the pool's call queue, and an interrupt never has more
    than the points already running left to drain.

    Exceptions are normally caught *inside* the worker; the ``except``
    clauses here only fire for infrastructure-level failures (a worker
    killed by the OS, an unpicklable result, a broken pool) — and still
    map them onto the individual point rather than aborting the batch.
    A broken pool refuses every later submission, so the rest of the
    queue fails at once.

    On ``KeyboardInterrupt`` the interrupt is re-raised; leaving the
    pool's ``with`` block then waits for the points already running,
    whose workers cache their results.
    """
    from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait

    outcomes: Dict[int, Union[RunResult, PointFailure]] = {}
    queue = iter(misses)
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
        running: Dict[Future, Tuple[int, Point]] = {}

        def submit_next() -> None:
            for i, p, key in queue:
                try:
                    fut = pool.submit(_compute_or_capture, p, key)
                except Exception as exc:  # noqa: BLE001 - a broken pool
                    outcomes[i] = _capture_failure(p, exc)
                    continue
                running[fut] = (i, p)
                return

        for _ in range(workers):
            submit_next()
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                i, p = running.pop(fut)
                try:
                    outcomes[i] = fut.result()
                except Exception as exc:  # noqa: BLE001 - see docstring
                    outcomes[i] = _capture_failure(p, exc)
                submit_next()
    return outcomes

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
2. the process-wide default set via :func:`set_default_jobs` (the CLI's
   ``--jobs`` flag and ``run_all_experiments.py`` use this);
3. the ``REPRO_JOBS`` environment variable;
4. serial (1).

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
otherwise, so even a crashed worker process only poisons its own point).
Failed points are retried ``retries`` times (default 1, override with
``REPRO_POINT_RETRIES``) before being recorded as a
:class:`PointFailure`.  With ``strict=True`` (the default)
:func:`run_points` finishes all in-flight work, then raises
:class:`GridExecutionError` summarizing every failure; with
``strict=False`` it returns the ordered results with each failed point's
slot holding its :class:`PointFailure` so callers can salvage the rest.

Crash safety (checkpoints + graceful shutdown)
----------------------------------------------
Pass ``checkpoint=`` (a sweep name or a :class:`~repro.core.checkpoint.
SweepCheckpoint`) — or install one process-wide with
:func:`set_default_checkpoint` — and every completed point is journaled
by its run-cache content key.  While a checkpointed grid is running,
SIGINT/SIGTERM trigger a *drain*: no new points start, in-flight points
finish and are journaled, caches are flushed, and
:class:`~repro.core.checkpoint.SweepInterrupted` is raised carrying a
one-line resume hint.  A SIGKILL costs at most the points in flight;
resuming replays the grid against the journal + disk cache and yields
bit-identical merged results.

Resource guards
---------------
``deadline_s=`` / ``rss_mb=`` (or ``REPRO_POINT_DEADLINE_S`` /
``REPRO_POINT_RSS_MB``) bound each point's wall-clock time and address
space (POSIX only; no-ops elsewhere).  A breach surfaces as a retriable
:class:`PointFailure` with ``kind`` ``"deadline"`` or ``"rss"`` — a
runaway point degrades a grid instead of wedging it.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.checkpoint import SweepCheckpoint, SweepInterrupted
from repro.core.config import ClusterConfig
from repro.core.metrics import RunResult

try:  # POSIX only; resource guards degrade to no-ops elsewhere
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None  # type: ignore[assignment]

logger = logging.getLogger("repro.executor")


class Point(NamedTuple):
    """One simulation point: which app, at what scale, under which config."""

    app: str
    scale: float
    config: ClusterConfig


PointLike = Union[Point, Tuple[str, float, ClusterConfig]]

_default_jobs: Optional[int] = None
_default_checkpoint: Optional[SweepCheckpoint] = None

#: set by the SIGINT/SIGTERM handler installed around checkpointed grids
_shutdown_event = threading.Event()


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


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` resets to the
    ``REPRO_JOBS`` / serial fallback)."""
    global _default_jobs
    _default_jobs = None if jobs is None else _normalize(jobs)


def set_default_checkpoint(checkpoint: Optional[SweepCheckpoint]) -> None:
    """Install a process-wide sweep checkpoint.

    Every subsequent :func:`run_points` call without an explicit
    ``checkpoint=`` journals into it — this is how the CLI and
    ``run_all_experiments.py`` checkpoint the ~20 experiment drivers
    without per-driver plumbing.  ``None`` uninstalls.
    """
    global _default_checkpoint
    _default_checkpoint = checkpoint


def default_checkpoint() -> Optional[SweepCheckpoint]:
    return _default_checkpoint


_annotate_resume = False


def set_resume_annotation(enabled: bool) -> None:
    """Tag results served via a checkpoint journal with resume provenance.

    When enabled (the ``resume`` CLI does this), a point that a previous
    run journaled done and the cache replays comes back as a copy whose
    ``meta`` carries ``resume.from_checkpoint`` — presentation-layer
    only: the cached record is untouched, and the default (off) keeps
    resumed grids bit-identical to uninterrupted ones.
    """
    global _annotate_resume
    _annotate_resume = bool(enabled)


def _resolve_checkpoint(
    checkpoint: Union[SweepCheckpoint, str, None],
) -> Optional[SweepCheckpoint]:
    if checkpoint is None:
        return _default_checkpoint
    if isinstance(checkpoint, str):
        return SweepCheckpoint(checkpoint)
    return checkpoint


def _normalize(jobs: int) -> int:
    jobs = int(jobs)
    if jobs == 0:  # one worker per core
        return os.cpu_count() or 1
    return max(1, jobs)  # negatives clamp to serial


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an effective worker count (see module docstring)."""
    if jobs is not None:
        return _normalize(jobs)
    if _default_jobs is not None:
        return _default_jobs
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
    finish (and cache) their in-flight point so the parent's graceful
    drain has something to journal, so they ignore SIGINT/SIGTERM and
    exit when the parent shuts the pool down — or, if the parent is
    killed outright, within :data:`_ORPHAN_POLL_S` of its death.
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()


@contextmanager
def _graceful_signals(active: bool) -> Iterator[Optional[threading.Event]]:
    """Install SIGINT/SIGTERM -> drain-flag handlers around a checkpointed
    grid (main thread only); restores previous handlers on exit."""
    if not active or threading.current_thread() is not threading.main_thread():
        yield None
        return
    previous = {}
    _shutdown_event.clear()

    def _request_shutdown(signum, frame):  # noqa: ARG001
        _shutdown_event.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _request_shutdown)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield _shutdown_event
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        _shutdown_event.clear()


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
    bad point cannot tear down the whole ``pool.map``-style batch."""
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
    checkpoint: Union[SweepCheckpoint, str, None] = None,
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

    With a ``checkpoint`` (explicit, by name, or installed via
    :func:`set_default_checkpoint`) every outcome is journaled and
    SIGINT/SIGTERM drain in-flight work then raise
    :class:`SweepInterrupted` instead of ``KeyboardInterrupt`` (see the
    module docstring).  ``deadline_s``/``rss_mb`` arm the per-point
    resource guards.
    """
    from repro.core import runcache, sweeps

    ordered: List[Point] = [Point(*p) for p in points]
    unique: List[Point] = []
    seen: Set[Point] = set()
    for p in ordered:
        if p not in seen:
            seen.add(p)
            unique.append(p)

    cp = _resolve_checkpoint(checkpoint)
    keys: Dict[Point, str] = {}
    journal_done: Set[str] = set()
    if cp is not None:
        cp.open()
        keys = {p: runcache.content_key(p.app, p.scale, p.config) for p in unique}
        journal_done = cp.completed_keys()

    def _journal(p: Point, outcome: Union[RunResult, PointFailure]) -> None:
        if cp is None:
            return
        if isinstance(outcome, RunResult):
            cp.record(keys[p], "done", app=p.app, scale=p.scale)
        else:
            cp.record(
                keys[p],
                "failed",
                app=p.app,
                scale=p.scale,
                kind=outcome.kind,
                error=outcome.error,
            )

    # Satisfy what we can from the layered caches (memory, then disk).
    resolved: Dict[Point, Union[RunResult, PointFailure]] = {}
    misses: List[Point] = []
    for p in unique:
        hit = sweeps.cached_lookup(p.app, p.scale, p.config)
        if hit is not None:
            resolved[p] = hit
            if cp is not None and keys[p] in journal_done:
                cp.resumed_points += 1
                if _annotate_resume:
                    resolved[p] = hit.with_meta(**{"resume.from_checkpoint": 1.0})
            _journal(p, hit)
        else:
            if cp is not None and keys[p] in journal_done:
                # The journal can say "done" but never lies about data:
                # it does not carry the result, the cache does.
                cp.recomputed_points += 1
                logger.warning(
                    "point %s@%s journaled done in sweep '%s' but missing "
                    "from the run cache (cleared or quarantined); recomputing",
                    p.app,
                    p.scale,
                    cp.name,
                )
            misses.append(p)

    # An oversized pool is pure overhead: clamp workers to the number of
    # points actually missing (jobs=0 already clamps to cpu_count).
    n_jobs = resolve_jobs(jobs)
    if misses:
        n_jobs = max(1, min(n_jobs, len(misses)))
    budget = resolve_retries(retries)
    deadline = resolve_deadline(deadline_s)
    rss = resolve_rss_limit(rss_mb)

    def _success(p: Point, out: RunResult, from_pool: bool) -> None:
        """Collect one finished point *immediately* — the journal must
        trail the simulation by at most the points in flight, so a kill
        mid-batch loses nothing that already completed."""
        if from_pool:
            # install fresh pool successes in this process's caches so
            # later serial calls hit (workers wrote the disk layer)
            sweeps.cache_store(p.app, p.scale, p.config, out)
        resolved[p] = out
        _journal(p, out)

    pending: List[Point] = list(misses)
    interrupted = False
    with _graceful_signals(cp is not None) as stop:
        for attempt in range(1, budget + 2):  # first try + `budget` retries
            if not pending or (stop is not None and stop.is_set()):
                break
            last_round = attempt == budget + 1
            if n_jobs <= 1 or len(pending) == 1:
                outcomes: Dict[Point, Union[RunResult, PointFailure]] = {}
                for p in pending:
                    if stop is not None and stop.is_set():
                        break
                    out = _compute_point_guarded(p, attempt, deadline, rss)
                    outcomes[p] = out
                    if isinstance(out, RunResult):
                        _success(p, out, from_pool=False)
            else:
                outcomes = _map_parallel(
                    pending,
                    n_jobs,
                    attempt,
                    deadline,
                    rss,
                    stop,
                    on_success=lambda p, out: _success(p, out, from_pool=True),
                )
            retry_next: List[Point] = []
            for p, out in outcomes.items():
                if isinstance(out, PointFailure):
                    if last_round:
                        resolved[p] = out
                        _journal(p, out)
                    else:
                        retry_next.append(p)
            unattempted = [p for p in pending if p not in outcomes]
            pending = unattempted + retry_next
        interrupted = stop is not None and stop.is_set()

    if interrupted and cp is not None:
        cp.finalize("interrupted")
        progress = cp.progress()
        raise SweepInterrupted(
            cp.name,
            cp.resume_hint(),
            done=int(progress["done"]),
            total=len(unique),
        )

    # Every completed point lands in the columnar result store — the
    # sweep builds the longitudinal corpus as a side effect.  Cache hits
    # ingest too (idempotent per content key) so migrated/old caches
    # backfill; failures never block the grid (best-effort by contract).
    _ingest_outcomes(
        unique,
        [resolved[p] for p in unique],
        sweep=cp.name if cp is not None else None,
        keys=keys,
    )

    failures = [r for r in resolved.values() if isinstance(r, PointFailure)]
    if failures and strict:
        raise GridExecutionError(failures)
    return [resolved[p] for p in ordered]


def _ingest_outcomes(
    points: Sequence[Point],
    outcomes: Sequence[Union[RunResult, PointFailure]],
    sweep: Optional[str],
    keys: Dict[Point, str],
) -> None:
    """Append a grid's successful outcomes to the result store.

    ``points`` are distinct.  ``keys`` reuses content hashes the
    checkpoint path already computed; anything missing is hashed here.
    """
    from repro.core import runcache
    from repro.core.store import ingest_quietly, result_store

    if result_store() is None:
        return
    entries = []
    for p, out in zip(points, outcomes):
        if isinstance(out, RunResult):
            key = keys.get(p) or runcache.content_key(p.app, p.scale, p.config)
            entries.append((key, out, p.scale))
    if entries:
        ingest_quietly(entries, sweep=sweep)


def _map_parallel(
    misses: Sequence[Point],
    n_jobs: int,
    attempts: int,
    deadline_s: Optional[float] = None,
    rss_mb: Optional[int] = None,
    stop: Optional[threading.Event] = None,
    on_success: Optional[Callable[[Point, RunResult], None]] = None,
) -> Dict[Point, Union[RunResult, PointFailure]]:
    """Fan points across a process pool, one future per point.

    Exceptions are normally caught *inside* the worker; the ``except``
    here only fires for infrastructure-level failures (a worker killed
    by the OS, an unpicklable result, a broken pool) — and still maps
    them onto the individual point rather than aborting the batch.

    ``on_success(point, result)`` fires as each future completes (not at
    batch end) so the caller can cache + journal eagerly.  When ``stop``
    is set mid-batch (graceful shutdown), queued futures are cancelled
    and only the points already running are awaited — the drain leaves
    every completed point collected and nothing torn.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workers = max(1, min(n_jobs, len(misses)))
    outcomes: Dict[Point, Union[RunResult, PointFailure]] = {}
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
        futures = {
            pool.submit(_compute_point_guarded, p, attempts, deadline_s, rss_mb): p
            for p in misses
        }
        remaining = set(futures)
        drained = False
        while remaining:
            if stop is not None and stop.is_set() and not drained:
                drained = True
                for fut in list(remaining):
                    if fut.cancel():  # queued, not yet started
                        remaining.discard(fut)
                if not remaining:
                    break
            done, remaining = wait(
                remaining, timeout=0.2, return_when=FIRST_COMPLETED
            )
            for fut in done:
                p = futures[fut]
                try:
                    outcomes[p] = fut.result()
                except BaseException as exc:  # noqa: BLE001 - see docstring
                    outcomes[p] = _capture_failure(p, exc, attempts)
                out = outcomes[p]
                if on_success is not None and isinstance(out, RunResult):
                    on_success(p, out)
    return outcomes


def prefetch(points: Iterable[PointLike], jobs: Optional[int] = None) -> None:
    """Warm the caches for a grid of points (sugar over :func:`run_points`
    for drivers that keep their own result-collection loops)."""
    run_points(points, jobs=jobs)

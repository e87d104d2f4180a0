"""Executor failure handling: per-point capture, one pass, strict mode."""

import pytest

from repro.core import runcache
from repro.core.config import ClusterConfig
from repro.core.executor import (
    GridExecutionError,
    Point,
    PointFailure,
    run_points,
)
from repro.core.metrics import RunResult
from repro.core.sweeps import cached_lookup, clear_caches

SCALE = 0.05

#: a point that always fails: get_app raises "unknown application"
POISON = ("no-such-app", SCALE, ClusterConfig())


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runcache.reset_disk_cache()
    clear_caches()
    yield
    runcache.reset_disk_cache()
    clear_caches()


def _mixed_grid():
    return [("fft", SCALE, ClusterConfig()), POISON, ("lu", SCALE, ClusterConfig())]


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_strict_returns_partial_results(fresh, jobs):
    results = run_points(_mixed_grid(), jobs=jobs, strict=False)
    assert isinstance(results[0], RunResult) and results[0].app_name == "fft"
    assert isinstance(results[2], RunResult) and results[2].app_name == "lu"
    failure = results[1]
    assert isinstance(failure, PointFailure)
    assert failure.point == Point(*POISON)
    assert "unknown application" in failure.error
    assert "ValueError" in failure.error
    assert "Traceback" in failure.traceback
    assert isinstance(failure.exception, ValueError)


@pytest.mark.parametrize("jobs", [1, 2])
def test_strict_raises_after_completing_in_flight_work(fresh, jobs):
    with pytest.raises(GridExecutionError) as exc:
        run_points(_mixed_grid(), jobs=jobs, strict=True)
    assert len(exc.value.failures) == 1
    assert "no-such-app" in str(exc.value)
    # the healthy points were still computed and cached before the raise
    assert cached_lookup("fft", SCALE, ClusterConfig()) is not None
    assert cached_lookup("lu", SCALE, ClusterConfig()) is not None


def test_failed_point_is_computed_once(fresh, monkeypatch):
    """One pass per grid: a failing point is not retried."""
    from repro.core import executor

    compute = executor._compute_point
    calls = []

    def counting(point):
        calls.append(point.app)
        return compute(point)

    monkeypatch.setattr(executor, "_compute_point", counting)
    results = run_points(_mixed_grid(), jobs=1, strict=False)
    assert isinstance(results[1], PointFailure)
    assert calls == ["fft", "no-such-app", "lu"]


def test_failures_are_not_cached(fresh):
    run_points([POISON], jobs=2, strict=False)
    assert cached_lookup(*POISON) is None


def test_all_points_failing_still_structured(fresh):
    grid = [POISON, ("also-missing", SCALE, ClusterConfig())]
    with pytest.raises(GridExecutionError) as exc:
        run_points(grid, jobs=2)
    assert len(exc.value.failures) == 2


def test_grid_error_message_is_bounded(fresh):
    """A 1000-point failed grid must not produce a 1000-line exception."""
    from repro.core.executor import MAX_SUMMARIZED_FAILURES

    n = MAX_SUMMARIZED_FAILURES + 5
    grid = [(f"missing-app-{i}", SCALE, ClusterConfig()) for i in range(n)]
    with pytest.raises(GridExecutionError) as exc:
        run_points(grid, jobs=2)
    message = str(exc.value)
    assert len(exc.value.failures) == n  # nothing dropped from the data
    assert message.count("  - missing-app-") == MAX_SUMMARIZED_FAILURES
    assert "... and 5 more failures (all carried in .failures)" in message


def test_small_failed_grid_message_is_complete(fresh):
    grid = [POISON, ("also-missing", SCALE, ClusterConfig())]
    with pytest.raises(GridExecutionError) as exc:
        run_points(grid, jobs=1)
    message = str(exc.value)
    assert "no-such-app" in message and "also-missing" in message
    assert "more failure" not in message


def test_serial_interrupt_stops_the_grid(fresh, monkeypatch):
    """Ctrl-C in the serial loop propagates instead of being captured as
    a point failure; the points finished before it stay cached for a
    rerun."""
    from repro.core import executor

    compute = executor._compute_point
    calls = []

    def interrupt_second(point):
        calls.append(point.app)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return compute(point)

    monkeypatch.setattr(executor, "_compute_point", interrupt_second)
    with pytest.raises(KeyboardInterrupt):
        run_points(_mixed_grid(), jobs=1)
    assert calls == ["fft", "no-such-app"]
    assert cached_lookup("fft", SCALE, ClusterConfig()) is not None

"""Tests for report formatting and the sweep/caching helpers."""

import pytest

from repro.core import ClusterConfig
from repro.core.reporting import format_percent, format_table
from repro.core.sweeps import (
    cached_run,
    cached_trace,
    clear_caches,
    max_slowdown,
    run_apps,
    slowdown_between,
    sweep_comm_param,
)


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def test_format_table_alignment():
    text = format_table(["app", "speedup"], [["fft", 4.5], ["lu", 12.25]])
    lines = text.splitlines()
    assert lines[0].startswith("app")
    assert set(lines[1]) <= {"-", " "}
    assert "4.50" in lines[2]
    assert "12.2" in lines[3] or "12.25" in lines[3]


def test_format_table_title_and_large_numbers():
    text = format_table(["n"], [[1234567.0]], title="Big")
    assert text.startswith("Big\n=")
    assert "1,234,567" in text


def test_format_table_mixed_types():
    text = format_table(["a", "b", "c"], [["x", 3, 0.123456]])
    assert "0.12" in text
    assert "x" in text


def test_format_percent():
    assert format_percent(0.123) == "+12.3%"
    assert format_percent(-0.05) == "-5.0%"
    assert format_percent(0.0) == "+0.0%"


# --------------------------------------------------------------------- #
# sweeps & caching
# --------------------------------------------------------------------- #
def test_cached_trace_reuses_object():
    clear_caches()
    a = cached_trace("lu", 0.2, 4096, 42, 16)
    b = cached_trace("lu", 0.2, 4096, 42, 16)
    assert a is b
    c = cached_trace("lu", 0.2, 8192, 42, 16)
    assert c is not a


def test_cached_run_reuses_result():
    clear_caches()
    cfg = ClusterConfig()
    a = cached_run("lu", 0.2, cfg)
    b = cached_run("lu", 0.2, cfg)
    assert a is b
    c = cached_run("lu", 0.2, cfg.with_comm(interrupt_cost=0))
    assert c is not a


def test_cached_run_regenerates_trace_for_page_size():
    clear_caches()
    small = cached_run("lu", 0.2, ClusterConfig().with_comm(page_size=1024))
    big = cached_run("lu", 0.2, ClusterConfig().with_comm(page_size=16384))
    assert small.total_cycles != big.total_cycles


def test_sweep_comm_param_monotone_interrupts():
    clear_caches()
    results = sweep_comm_param("raytrace", "interrupt_cost", (0, 10000), scale=0.2)
    assert len(results) == 2
    assert results[0].speedup > results[1].speedup
    assert max_slowdown(results) > 0
    assert slowdown_between(results[0], results[1]) == pytest.approx(
        max_slowdown(results)
    )


def test_run_apps_subset():
    clear_caches()
    out = run_apps(apps=["lu", "water-sp"], scale=0.2)
    assert set(out) == {"lu", "water-sp"}
    assert all(r.speedup > 0 for r in out.values())

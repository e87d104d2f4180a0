"""Benchmark: regenerate Figure 6 — NI occupancy sweep (HLRC)."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure06(benchmark):
    out = run_once(benchmark, lambda: run("figure06", scale=BENCH_SCALE))
    record(out)
    # most applications are insensitive to realistic occupancies
    insensitive = 0
    for series in out.data.values():
        s = list(series.values())
        if (s[0] - s[2]) / s[0] < 0.10:  # up to the achievable 500 cycles
            insensitive += 1
    assert insensitive >= 7

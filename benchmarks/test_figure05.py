"""Benchmark: regenerate Figure 5 (+5b) — host overhead sweep and its
correlation with messages sent."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure05(benchmark):
    out = run_once(benchmark, lambda: run("figure05", scale=BENCH_SCALE))
    record(out)
    # host overhead is not a major performance factor: median slowdown small
    slows = []
    for series in out.data.values():
        s = list(series.values())
        slows.append((s[0] - s[-1]) / s[0])
    slows.sort()
    assert slows[len(slows) // 2] < 0.35


def test_bench_figure05b(benchmark):
    out = run_once(benchmark, lambda: run("figure05b", scale=BENCH_SCALE))
    record(out)
    assert out.data["rank_correlation"] > 0.3

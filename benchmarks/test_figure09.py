"""Benchmark: regenerate Figure 9 (+10) — interrupt cost sweep and its
correlation with interrupt-raising protocol events."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure09(benchmark):
    out = run_once(benchmark, lambda: run("figure09", scale=BENCH_SCALE))
    record(out)
    hurts = 0
    for name, series in out.data.items():
        s = list(series.values())
        full = (s[0] - s[-1]) / s[0]
        knee = (s[0] - s[2]) / s[0]  # up to 500/side
        if full > 0.05:
            hurts += 1
        # costs up to ~500/side hurt much less than the full range
        assert knee < full + 0.05, name
    # interrupt cost is important across the board (Ocean's anomaly may
    # exempt one application)
    assert hurts >= 8


def test_bench_figure10(benchmark):
    out = run_once(benchmark, lambda: run("figure10", scale=BENCH_SCALE))
    record(out)
    assert out.data["rank_correlation"] > 0.3

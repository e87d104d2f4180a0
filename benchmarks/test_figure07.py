"""Benchmark: regenerate Figure 7 (+8) — I/O bandwidth sweep and its
correlation with bytes sent."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure07(benchmark):
    out = run_once(benchmark, lambda: run("figure07", scale=BENCH_SCALE))
    record(out)

    def beyond_achievable_gain(name):
        series = list(out.data[name].values())
        # speedup at 2.0 vs at the achievable 0.5 (index 2)
        return (series[0] - series[2]) / series[2]

    # the bandwidth-hungry group (FFT, Radix) benefits from bandwidth
    # beyond achievable far more than the light group
    heavy = min(beyond_achievable_gain(n) for n in ("radix", "fft"))
    light = max(beyond_achievable_gain(n) for n in ("water-sp", "barnes-space"))
    assert heavy > 0.2
    assert heavy > 2 * light


def test_bench_figure08(benchmark):
    out = run_once(benchmark, lambda: run("figure08", scale=BENCH_SCALE))
    record(out)
    assert out.data["rank_correlation"] > 0.3

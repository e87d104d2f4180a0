"""Benchmark: the multi-NI extension study."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_multi_ni(benchmark):
    out = run_once(benchmark, lambda: run("section10-multini", scale=BENCH_SCALE))
    record(out)
    # bandwidth-bound apps gain from a second NI at low bandwidth...
    for name in ("fft", "radix"):
        series = out.data[name]["low bw"]
        assert series[1] > 1.1 * series[0], name
    # ...latency-bound apps gain much less
    ws = out.data["water-sp"]["achievable bw"]
    assert ws[2] < 1.15 * ws[0]

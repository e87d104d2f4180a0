"""Benchmark: regenerate Table 4 — best/achievable/ideal speedups,
plus the Section 7 attribution runs."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_table04(benchmark):
    out = run_once(benchmark, lambda: run("table04", scale=BENCH_SCALE))
    record(out)
    for name, d in out.data.items():
        assert d["achievable"] <= d["best"] * 1.05, name
        assert d["best"] <= d["ideal"] * 1.10, name
    # achievable ~ best for the light-communication group
    for name in ("lu", "water-sp"):
        d = out.data[name]
        assert d["achievable"] > 0.75 * d["best"], name


def test_bench_attribution(benchmark):
    out = run_once(benchmark, lambda: run("section7-attribution", scale=BENCH_SCALE))
    record(out)
    radix = out.data["radix"]
    assert radix["4x io bw"] > 1.2 * radix["achievable"]

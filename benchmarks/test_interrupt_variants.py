"""Benchmark: regenerate the Section 5 interrupt-delivery variants."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_uniprocessor_nodes(benchmark):
    out = run_once(benchmark, lambda: run("section5-uninode", scale=BENCH_SCALE))
    record(out)
    for name, series in out.data.items():
        s = list(series.values())
        assert s[0] > s[-1], name  # interrupt cost matters there too


def test_bench_round_robin(benchmark):
    out = run_once(benchmark, lambda: run("section5-roundrobin", scale=BENCH_SCALE))
    record(out)
    for name, d in out.data.items():
        # round-robin degrades with interrupt cost just like fixed delivery
        assert d["round_robin"][0] > d["round_robin"][-1], name

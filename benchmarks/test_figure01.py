"""Benchmark: regenerate Figure 1 (ideal vs achievable speedups)."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure01(benchmark):
    out = run_once(benchmark, lambda: run("figure01", scale=BENCH_SCALE))
    record(out)
    # paper shape: a substantial gap for most applications
    gaps = [d["ideal"] - d["achievable"] for d in out.data.values()]
    assert sum(g > 1.0 for g in gaps) >= 7

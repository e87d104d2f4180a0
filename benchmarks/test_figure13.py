"""Benchmark: regenerate Figure 13 — clustering sweep."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure13(benchmark):
    out = run_once(benchmark, lambda: run("figure13", scale=BENCH_SCALE))
    record(out)
    # clustering helps most applications
    helped = sum(1 for d in out.data.values() if d["8/node"] > d["1/node"])
    assert helped >= 6
    # applications dominated by synchronization and fine-grain sharing
    # (task queues + stealing) gain dramatically as sharing moves into
    # hardware
    for name in ("raytrace", "volrend"):
        d = out.data[name]
        assert d["8/node"] > 1.5 * d["1/node"], name

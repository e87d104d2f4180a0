"""Benchmark: regenerate Figure 3 (messages per processor per Mcycle)."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure03(benchmark):
    out = run_once(benchmark, lambda: run("figure03", scale=BENCH_SCALE))
    record(out)
    # heavy group beats light group at 4 procs/node
    assert out.data["barnes-rebuild"][4] > out.data["barnes-space"][4]
    assert out.data["radix"][4] > out.data["lu"][4]

"""Benchmark: communication microbenchmarks + per-app time breakdowns."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_microbench(benchmark):
    out = run_once(benchmark, lambda: run("microbench"))
    record(out)
    assert out.data["page_fetch"] > out.data["null_rpc"]


def test_bench_breakdowns(benchmark):
    out = run_once(benchmark, lambda: run("breakdowns", scale=BENCH_SCALE))
    record(out)
    # handler time stays small at the achievable interrupt cost
    assert all(d["handler"] < 0.10 for d in out.data.values())

"""Benchmark: the problem-size study."""

from conftest import record, run_once

from repro.experiments import run


def test_bench_problem_size(benchmark):
    out = run_once(benchmark, lambda: run("problem-size", scale=0.5))
    record(out)
    for name, speeds in out.data.items():
        scales = sorted(speeds)
        # speedup at the largest size beats the smallest
        assert speeds[scales[-1]]["speedup"] > speeds[scales[0]]["speedup"], name
        # byte intensity falls (or stays flat) as the problem grows
        assert (
            speeds[scales[-1]]["mb_per_mc"]
            <= speeds[scales[0]]["mb_per_mc"] * 1.35
        ), name

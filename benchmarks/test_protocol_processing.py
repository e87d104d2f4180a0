"""Benchmark: the extension study — interrupts vs polling vs NI offload."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_protocol_processing(benchmark):
    out = run_once(benchmark, lambda: run("section10-processing", scale=BENCH_SCALE))
    record(out)
    for name, entry in out.data.items():
        # interrupt-free modes are flat in interrupt cost
        for mode in ("polling-dedicated", "ni-offload"):
            series = entry[mode]
            assert abs(series[0] - series[-1]) / series[0] < 0.05, (name, mode)
        # the interrupt system degrades over the same sweep
        intr = entry["interrupt"]
        assert intr[0] > intr[-1], name
        # at the extreme, polling clearly wins
        assert entry["polling-dedicated"][-1] > intr[-1], name

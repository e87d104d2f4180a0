"""Benchmark: regenerate Figure 4 (MBytes per processor per Mcycle)."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure04(benchmark):
    out = run_once(benchmark, lambda: run("figure04", scale=BENCH_SCALE))
    record(out)
    # Radix moves the most data at every clustering; FFT is in the heavy
    # group with uniprocessor nodes (its sub-page transpose chunks
    # coalesce within SMP nodes at reduced problem scale)
    for ppn in (1, 4, 8):
        assert max(out.data, key=lambda n: out.data[n][ppn]) == "radix"
    top4 = sorted(out.data, key=lambda n: out.data[n][1], reverse=True)[:4]
    assert "fft" in top4

"""Benchmark: regenerate Table 2 (protocol event rates by clustering)."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_table02(benchmark):
    out = run_once(benchmark, lambda: run("table02", scale=BENCH_SCALE))
    record(out)
    for name, per_ppn in out.data.items():
        # fetch coalescing on SMP nodes
        assert per_ppn[4]["page_fetches"] <= per_ppn[4]["page_faults"] + 1e-9, name

"""Benchmark: regenerate Table 3 — maximum slowdown per parameter."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_table03(benchmark):
    out = run_once(benchmark, lambda: run("table03", scale=BENCH_SCALE))
    record(out)
    data = out.data
    # interrupt cost matters broadly
    assert sum(1 for d in data.values() if d["interrupt_cost"] > 0.05) >= 8
    # NI occupancy is the least significant parameter for most apps
    milder = sum(
        1 for d in data.values() if d["ni_occupancy"] <= d["interrupt_cost"] + 0.02
    )
    assert milder >= 8
    # clustering (1 -> 8 procs/node) helps most applications (negative)
    assert sum(1 for d in data.values() if d["procs_per_node"] < 0) >= 6

"""Benchmark: regenerate Figure 12 — page-size sweep."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure12(benchmark):
    out = run_once(benchmark, lambda: run("figure12", scale=BENCH_SCALE))
    record(out)
    # Radix prefers the biggest page; several applications prefer small
    radix = out.data["radix"]
    assert radix["16KB"] > radix["1KB"]
    smaller_is_better = sum(
        1 for d in out.data.values() if d["1KB"] > d["16KB"]
    )
    assert smaller_is_better >= 4

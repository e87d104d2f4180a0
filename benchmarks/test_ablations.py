"""Benchmark: model ablations (DESIGN.md design-choice audit)."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_ablations(benchmark):
    out = run_once(benchmark, lambda: run("ablations", scale=BENCH_SCALE))
    record(out)
    for name, entry in out.data.items():
        # store-and-forward never speeds anything up
        assert entry["store-and-forward"] <= entry["base"] * 1.02, name
        assert entry["s&f @bw=0.25"] <= entry["base @bw=0.25"] * 1.02, name
        # removing the receive gate relaxes the interrupt extreme
        assert entry["no-gate @intr=10k"] >= entry["base @intr=10k"] * 0.98, name

"""Benchmark: regenerate Figure 11 — NI occupancy under AURC."""

from conftest import BENCH_SCALE, record, run_once

from repro.experiments import run


def test_bench_figure11(benchmark):
    out = run_once(benchmark, lambda: run("figure11", scale=BENCH_SCALE))
    record(out)
    # multi-writer apps under AURC react strongly to occupancy, more so
    # than under HLRC
    hlrc = run("figure06", scale=BENCH_SCALE, apps=["water-nsq"])

    def slow(data, name):
        s = list(data[name].values())
        return (s[0] - s[-1]) / s[0]

    assert slow(out.data, "water-nsq") > slow(hlrc.data, "water-nsq")

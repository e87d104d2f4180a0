"""Tests for the per-figure/table experiment drivers.

Run at reduced scale with application subsets; shape assertions mirror
the paper's qualitative claims (full-scale checks live in the benchmark
harness and EXPERIMENTS.md)."""

import pytest

from repro.arch.params import HOST_OVERHEAD_SWEEP, NI_OCCUPANCY_SWEEP
from repro.core.sweeps import sweep_comm_param
from repro.experiments import (
    correlations,
    figure01_speedups,
    figure03_messages,
    figure04_bytes,
    figure05_host_overhead,
    figure06_ni_occupancy,
    figure07_io_bandwidth,
    figure09_interrupt,
    figure11_aurc_occupancy,
    figure12_page_size,
    figure13_clustering,
    interrupt_variants,
    reliability,
    table02_events,
    table03_slowdowns,
    table04_attribution,
    table04_speedups,
)

SCALE = 0.3
FEW = ("fft", "lu", "barnes-rebuild")


def test_figure01_gap_exists():
    out = figure01_speedups.run(scale=SCALE, apps=FEW)
    assert len(out.rows) == 3
    for name in FEW:
        assert out.data[name]["achievable"] < out.data[name]["ideal"]
    assert "figure01" in out.table_str()


def test_table02_coalescing_and_lock_locality():
    out = table02_events.run(scale=SCALE, apps=["water-nsq"])
    d = out.data["water-nsq"]
    # SMP fetch coalescing: fetches <= faults once nodes have >1 CPU
    assert d[4]["page_fetches"] <= d[4]["page_faults"]
    # clustering localizes lock acquires
    assert d[8]["remote_lock_acquires"] < d[1]["remote_lock_acquires"]
    assert d[8]["local_lock_acquires"] > d[1]["local_lock_acquires"]


def test_figure03_message_ordering():
    out = figure03_messages.run(scale=SCALE, apps=["barnes-rebuild", "lu"])
    assert out.data["barnes-rebuild"][4] > out.data["lu"][4]


def test_figure04_byte_ordering():
    out = figure04_bytes.run(scale=SCALE, apps=["radix", "water-sp"])
    assert out.data["radix"][4] > out.data["water-sp"][4]


def test_figure05_host_overhead_modest():
    out = figure05_host_overhead.run(scale=SCALE, apps=["lu", "volrend"])
    for name in ("lu", "volrend"):
        series = list(out.data[name].values())
        slow = (series[0] - series[-1]) / series[0]
        assert slow < 0.30, name  # host overhead is not a major factor


def test_figure06_occupancy_smallest_effect():
    occ = figure06_ni_occupancy.run(scale=SCALE, apps=["lu"])
    intr = figure09_interrupt.run(scale=SCALE, apps=["lu"])
    occ_s = list(occ.data["lu"].values())
    intr_s = list(intr.data["lu"].values())
    occ_slow = (occ_s[0] - occ_s[-1]) / occ_s[0]
    intr_slow = (intr_s[0] - intr_s[-1]) / intr_s[0]
    assert occ_slow < intr_slow


@pytest.mark.parametrize(
    "app,param,values",
    [
        ("fft", "host_overhead", HOST_OVERHEAD_SWEEP),
        ("radix", "ni_occupancy", NI_OCCUPANCY_SWEEP),
    ],
    ids=["fft-host_overhead", "radix-ni_occupancy"],
)
def test_overhead_sweep_preserves_paper_trend(app, param, values):
    """Speedup falls as the swept overhead grows (paper Figures 5/6
    shape): each point at most 2% above its predecessor, and the most
    expensive setting strictly below the cheapest."""
    speedups = [r.speedup for r in sweep_comm_param(app, param, values, scale=0.05)]
    for earlier, later in zip(speedups, speedups[1:]):
        assert later <= earlier * 1.02, f"{app}/{param}: {speedups} not monotone"
    assert speedups[-1] < speedups[0]


def test_figure07_bandwidth_hurts_radix_more_than_watersp():
    out = figure07_io_bandwidth.run(scale=SCALE, apps=["radix", "water-sp"])

    def slow(name):
        s = list(out.data[name].values())
        return (s[0] - s[-1]) / s[0]

    assert slow("radix") > 2 * slow("water-sp")


def test_figure09_interrupt_knee():
    """Small interrupt costs hurt little; the extreme hurts a lot."""
    out = figure09_interrupt.run(scale=SCALE, apps=["raytrace"])
    series = list(out.data["raytrace"].values())
    s0, s_knee, s_max = series[0], series[2], series[-1]
    assert (s0 - s_knee) / s0 < 0.15  # up to 500/side: mild
    assert (s0 - s_max) / s0 > 0.25  # at 10000/side: sharp


def test_figure11_aurc_more_occupancy_sensitive_than_hlrc():
    """Multi-writer applications: fine-grain automatic updates make AURC
    far more occupancy-sensitive than HLRC."""
    aurc = figure11_aurc_occupancy.run(scale=SCALE, apps=["water-nsq"])
    hlrc = figure06_ni_occupancy.run(scale=SCALE, apps=["water-nsq"])

    def slow(out):
        s = list(out.data["water-nsq"].values())
        return (s[0] - s[-1]) / s[0]

    assert slow(aurc) > 1.5 * slow(hlrc)


def test_table03_interrupt_column_nonzero_everywhere():
    out = table03_slowdowns.run(scale=SCALE, apps=["fft", "raytrace"])
    for name in ("fft", "raytrace"):
        assert out.data[name]["interrupt_cost"] > 0.02
        # NI occupancy is the least significant of the four comm params
        assert out.data[name]["ni_occupancy"] <= out.data[name]["interrupt_cost"]


def test_table04_ordering():
    out = table04_speedups.run(scale=SCALE, apps=["water-nsq", "lu"])
    for name in ("water-nsq", "lu"):
        d = out.data[name]
        assert d["achievable"] <= d["best"] * 1.02
        assert d["best"] <= d["ideal"] * 1.05


def test_figure12_radix_prefers_big_pages():
    out = figure12_page_size.run(scale=SCALE, apps=["radix"])
    series = out.data["radix"]
    assert series["16KB"] > series["1KB"]


def test_figure13_clustering_helps_lock_apps():
    out = figure13_clustering.run(scale=SCALE, apps=["barnes-rebuild"])
    series = out.data["barnes-rebuild"]
    assert series["8/node"] > series["1/node"]


def test_correlations_positive():
    apps = ("lu", "raytrace", "barnes-rebuild", "water-sp")
    for runner in (
        correlations.run_host_vs_messages,
        correlations.run_interrupt_vs_fetches,
    ):
        out = runner(scale=SCALE, apps=apps)
        assert out.data["rank_correlation"] > 0.3


def test_interrupt_variants_run():
    uni = interrupt_variants.run_uniprocessor_nodes(scale=SCALE, apps=["fft"])
    series = list(uni.data["fft"].values())
    assert series[0] > series[-1]  # interrupt cost matters there too
    rr = interrupt_variants.run_round_robin(scale=SCALE, apps=["water-nsq"])
    assert rr.data["water-nsq"]["round_robin"][0] > 0


def test_attribution_radix_bandwidth_recovers_gap():
    out = table04_attribution.run(scale=SCALE)
    radix = out.data["radix"]
    assert radix["4x io bw"] > radix["achievable"]
    fft = out.data["fft"]
    assert fft["both"] >= max(fft["interrupts=0"], fft["io bw = membus"]) * 0.95
    barnes = out.data["barnes-rebuild"]
    assert barnes["no remote fetches"] > barnes["achievable"]


def test_reliability_degrades_with_drop_rate():
    out = reliability.run(
        scale=0.05, apps=["lu"], drops=(0.0, 0.01), timeouts=(50_000,)
    )
    cells = out.data["lu"]
    clean = cells["drop=0,timeout=50000"]
    faulty = cells["drop=0.01,timeout=50000"]
    assert clean["retransmits"] == 0 and clean["messages_lost"] == 0
    assert faulty["retransmits"] > 0 and faulty["messages_lost"] > 0
    assert faulty["speedup"] < clean["speedup"]
    assert "reliability" in out.table_str()

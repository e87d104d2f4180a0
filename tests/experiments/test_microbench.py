"""Tests for the communication microbenchmarks and breakdowns."""

import pytest

from repro.arch import ArchParams, CommParams
from repro.experiments import run


@pytest.fixture(scope="module")
def out():
    return run("microbench")


def test_microbench_basic_ordering(out):
    # a page fetch costs more than a null RPC (it ships a page)
    assert out.data["page_fetch"] > out.data["null_rpc"]
    assert out.data["null_rpc"] > 0


def test_fetch_latency_tracks_interrupt_cost_exactly(out):
    series = out.data["fetch_vs_interrupt"]
    # each extra per-side cycle adds exactly two cycles (issue+delivery)
    base = series[0]
    assert series[10000] - base == pytest.approx(2 * 10000, rel=0.02)
    assert series[500] - base == pytest.approx(2 * 500, rel=0.2)


def test_fetch_latency_tracks_bandwidth(out):
    series = out.data["fetch_vs_bandwidth"]
    assert series[0.25] > series[0.5] > series[2.0]
    # the swing matches the page's bottleneck-crossing difference
    comm = CommParams()
    arch = ArchParams()
    wire = comm.page_size + arch.packet_header_bytes
    expected_swing = wire / 0.25 - wire / 2.0
    assert series[0.25] - series[2.0] == pytest.approx(expected_swing, rel=0.15)


def test_stream_bandwidth_near_iobus_limit(out):
    achieved = out.data["stream_bytes_per_cycle"]
    limit = CommParams().io_bytes_per_cycle
    assert 0.55 * limit < achieved <= limit * 1.01


def test_fetch_calibration_magnitude(out):
    """At the achievable set a 4KB fetch should be ~10-15K cycles
    (bottleneck crossing ~8.3K + null interrupt 1K + overheads)."""
    assert 8_000 < out.data["page_fetch"] < 18_000


def test_breakdowns_driver():
    result = run("breakdowns", scale=0.25, apps=["fft", "lu", "barnes-rebuild"])
    assert set(result.data) == {"fft", "lu", "barnes-rebuild"}
    for fractions in result.data.values():
        assert sum(fractions.values()) == pytest.approx(1.0)
    # FFT's dominant overhead is data wait; barnes-rebuild has real lock wait
    fft = result.data["fft"]
    assert fft["data_wait"] > fft["lock_wait"]
    barnes = result.data["barnes-rebuild"]
    assert barnes["lock_wait"] > 0.05

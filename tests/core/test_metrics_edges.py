"""Edge-case tests for RunResult metrics."""

import pytest

from repro.arch.processor import ProcessorStats
from repro.core import ClusterConfig, RunResult
from repro.protocol import ProtocolCounters


def make_result(n_procs=2, compute=1_000_000, total=500_000, serial=4_000_000):
    stats = []
    for _ in range(n_procs):
        s = ProcessorStats()
        s.add("compute", compute)
        s.add("data_wait", compute // 10)
        s.count("messages_sent", 10)
        s.count("bytes_sent", 1 << 20)
        stats.append(s)
    return RunResult(
        app_name="synthetic",
        problem="",
        config=ClusterConfig(
            comm=ClusterConfig().comm.replace(procs_per_node=2), total_procs=n_procs
        ),
        total_cycles=total,
        serial_cycles=serial,
        proc_stats=stats,
        counters=ProtocolCounters(),
        uncontended_busy_max=compute,
    )


def test_speedup_definition():
    r = make_result()
    assert r.speedup == pytest.approx(4_000_000 / 500_000)


def test_ideal_uses_uncontended_busy():
    r = make_result()
    assert r.ideal_speedup == pytest.approx(4.0)


def test_ideal_falls_back_to_measured_busy():
    r = make_result()
    r.uncontended_busy_max = 0
    # measured busy = compute + local_stall = 1_000_000
    assert r.ideal_speedup == pytest.approx(4.0)


def test_rates_per_mcycle():
    r = make_result()
    # 10 messages per proc over 1 Mcycle of compute
    assert r.messages_per_proc_per_mcycle == pytest.approx(10.0)
    assert r.mbytes_per_proc_per_mcycle == pytest.approx(1.0)


def test_rates_survive_zero_compute():
    r = make_result(compute=0)
    assert r.messages_per_proc_per_mcycle >= 0  # no division crash


def test_unknown_counter_is_zero():
    r = make_result()
    assert r.per_proc_per_mcycle("nonexistent") == 0.0


def test_time_breakdown_totals():
    r = make_result()
    bd = r.time_breakdown()
    assert bd["compute"] == 2_000_000
    assert bd["data_wait"] == 200_000
    fr = r.breakdown_fractions()
    assert sum(fr.values()) == pytest.approx(1.0)


def test_summary_contains_key_fields():
    text = make_result().summary()
    assert "synthetic" in text
    assert "ideal" in text

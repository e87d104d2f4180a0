"""Integration tests for run_simulation and RunResult."""

import pytest

from repro.apps import get_app
from repro.apps.base import AppTrace
from repro.core import ClusterConfig, RunResult, geometric_mean, run_simulation


@pytest.fixture(scope="module")
def fft_result():
    return run_simulation(get_app("fft", scale=0.25), ClusterConfig())


def test_run_produces_sane_result(fft_result):
    r = fft_result
    assert r.app_name == "fft"
    assert r.total_cycles > 0
    assert 0 < r.speedup < 16
    assert r.speedup < r.ideal_speedup
    assert r.n_procs == 16


def test_time_breakdown_accounts_most_wall_time(fft_result):
    bd = fft_result.time_breakdown()
    assert all(v >= 0 for v in bd.values())
    assert bd["compute"] > 0
    # Aggregate busy+wait time is within [P/2, ~P] x wall time
    total = sum(bd.values())
    assert total <= fft_result.total_cycles * 17
    assert total >= fft_result.total_cycles * 4


def test_breakdown_fractions_sum_to_one(fft_result):
    fr = fft_result.breakdown_fractions()
    assert sum(fr.values()) == pytest.approx(1.0)


def test_rates_positive(fft_result):
    assert fft_result.messages_per_proc_per_mcycle > 0
    assert fft_result.mbytes_per_proc_per_mcycle > 0
    assert fft_result.per_proc_per_mcycle("page_fetches") > 0


def test_meta_collected(fft_result):
    assert fft_result.meta["network_messages"] > 0
    assert fft_result.meta["interrupts"] > 0
    assert fft_result.meta["sim_events"] > 0


def test_summary_renders(fft_result):
    text = fft_result.summary()
    assert "fft" in text
    assert "speedup" in text


def test_mismatched_proc_count_rejected():
    app = get_app("fft", n_procs=8, scale=0.25)
    with pytest.raises(ValueError, match="8 processors"):
        run_simulation(app, ClusterConfig())


def test_unknown_event_kind_rejected():
    app = AppTrace(
        name="bogus", n_procs=16, events=[[("z", 1)]] + [[] for _ in range(15)],
        serial_cycles=100,
        shared_bytes=0,
    )
    with pytest.raises(Exception):
        run_simulation(app, ClusterConfig())


def test_runs_are_deterministic():
    app = get_app("radix", scale=0.2)
    r1 = run_simulation(app, ClusterConfig())
    r2 = run_simulation(app, ClusterConfig())
    assert r1.total_cycles == r2.total_cycles
    assert r1.counters.page_fetches == r2.counters.page_fetches


def test_aurc_and_hlrc_both_run():
    app = get_app("ocean", scale=0.3)
    h = run_simulation(app, ClusterConfig(protocol="hlrc"))
    a = run_simulation(app, ClusterConfig(protocol="aurc"))
    assert h.total_cycles > 0 and a.total_cycles > 0
    assert a.counters.diffs_created == 0


def test_slowdown_vs():
    """A narrow I/O bus slows FFT relative to a wide one (Table 3's sign)."""
    app = get_app("fft", scale=0.2)
    fast = run_simulation(app, ClusterConfig().with_comm(io_bus_mb_per_mhz=2.0))
    slow = run_simulation(app, ClusterConfig().with_comm(io_bus_mb_per_mhz=0.25))
    assert (fast.speedup - slow.speedup) / fast.speedup > 0


def test_geometric_mean():
    assert geometric_mean([4.0, 1.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_best_config_beats_achievable():
    from repro.arch import BEST

    app = get_app("water-nsq", scale=0.3)
    achievable = run_simulation(app, ClusterConfig())
    best = run_simulation(app, ClusterConfig(comm=BEST))
    assert best.speedup > achievable.speedup


def test_only_application_threads_spawn_processes(monkeypatch):
    """The only processes are the application threads: NI sends and
    interrupt handlers run as scheduled callbacks, and that changes
    neither the event count nor the traffic."""
    from repro.sim.process import Process

    spawned = []
    original = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawned.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    config = ClusterConfig()
    result = run_simulation(
        get_app("lu", page_size=config.comm.page_size, scale=0.05, seed=config.seed),
        config,
    )
    assert result.meta["network_messages"] == 1670  # every one was an NI send
    assert result.meta["interrupts"] == 784
    assert len(spawned) == config.total_procs
    # pinned: how sends and interrupts are dispatched must not change
    # the event count
    assert result.meta["sim_events"] == 13713

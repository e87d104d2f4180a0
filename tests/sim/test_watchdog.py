"""Watchdog: deadlock and livelock detection in the engine."""

import pytest

from repro.sim.engine import (
    SimulationStuckError,
    Simulator,
    Watchdog,
)
from repro.sim.primitives import Event


def _waiter(ev):
    yield ev


def test_deadlock_circular_wait_names_blocked_processes():
    sim = Simulator(watchdog=Watchdog())
    ev_a = Event(sim, name="a.done")
    ev_b = Event(sim, name="b.done")

    def proc_a():
        yield ev_b  # waits on b, which waits on a: circular
        ev_a.succeed()

    def proc_b():
        yield ev_a
        ev_b.succeed()

    sim.spawn(proc_a(), name="proc_a")
    sim.spawn(proc_b(), name="proc_b")
    with pytest.raises(SimulationStuckError) as exc:
        sim.run()
    assert exc.value.blocked == ("proc_a", "proc_b")
    assert "proc_a" in str(exc.value) and "proc_b" in str(exc.value)
    assert "deadlock" in str(exc.value)


def test_deadlock_detected_on_general_loop_too():
    # with the livelock cap armed, the post-drain deadlock scan must
    # fire as well.
    sim = Simulator(watchdog=Watchdog(livelock_events=1000))
    sim.spawn(_waiter(Event(sim, name="never")), name="stuck")
    with pytest.raises(SimulationStuckError) as exc:
        sim.run()
    assert exc.value.blocked == ("stuck",)


def test_no_watchdog_keeps_permissive_drain():
    sim = Simulator()  # bare simulator: tests/fixtures rely on this
    sim.spawn(_waiter(Event(sim)), name="stuck")
    sim.run()  # no exception; heap drained, process simply left blocked
    assert sim.pending == 0


def test_daemon_processes_excluded_from_deadlock():
    sim = Simulator(watchdog=Watchdog())
    sim.spawn(_waiter(Event(sim, name="service")), name="poller", daemon=True)

    def worker():
        yield sim.timeout(10)

    sim.spawn(worker(), name="worker")
    sim.run()  # only the daemon is left blocked: not a deadlock
    assert sim.now == 10


def test_livelock_zero_delay_self_reschedule():
    sim = Simulator(watchdog=Watchdog(livelock_events=500))

    def spinner():
        while True:
            yield sim.timeout(0)

    sim.spawn(spinner(), name="spinner")
    with pytest.raises(SimulationStuckError) as exc:
        sim.run()
    assert "livelock" in str(exc.value)
    assert "spinner" in str(exc.value)
    assert exc.value.blocked == ("spinner",)
    assert sim.now == 0  # time never advanced


def test_livelock_not_triggered_by_legitimate_bursts():
    # Many same-timestamp events below the limit, then progress.
    sim = Simulator(watchdog=Watchdog(livelock_events=100))
    hits = []
    for _ in range(90):
        sim.schedule(5, hits.append, 1)
    for _ in range(90):
        sim.schedule(9, hits.append, 2)
    sim.run()
    assert len(hits) == 180
    assert sim.now == 9


def test_watchdog_off_matches_fastpath_dispatch_counts():
    def build(watchdog):
        sim = Simulator(watchdog=watchdog)

        def worker():
            for _ in range(20):
                yield sim.timeout(3)

        sim.spawn(worker(), name="w")
        return sim.run(), sim.now

    assert build(None) == build(Watchdog(livelock_events=10**6))


def test_fault_free_cluster_raises_on_same_cycle_spin(monkeypatch):
    from repro.core import cluster as cluster_mod
    from repro.core.config import ClusterConfig

    limit = 50
    monkeypatch.setattr(cluster_mod, "DEFAULT_LIVELOCK_EVENTS", limit)
    cluster = cluster_mod.Cluster(ClusterConfig())
    assert cluster.fault_injector is None
    sim = cluster.sim

    def spinner():
        # bounded, so an unguarded drain ends instead of hanging
        for _ in range(10 * limit):
            yield sim.timeout(0)

    sim.spawn(spinner(), name="spinner")
    with pytest.raises(SimulationStuckError) as exc:
        sim.run()
    assert "livelock" in str(exc.value)
    assert exc.value.blocked == ("spinner",)
    assert sim.now == 0

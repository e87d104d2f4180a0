"""Property-based tests (hypothesis) for the DES kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidQueue, Resource, Simulator


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 200)), max_size=40))
@settings(max_examples=60)
def test_dispatch_times_monotone(jobs):
    """The simulator clock never runs backwards."""
    sim = Simulator()
    times = []
    for when, _ in jobs:
        sim.schedule(when, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 100)), min_size=1, max_size=30))
@settings(max_examples=60)
def test_fluid_queue_work_conservation(arrivals):
    """Total busy time equals total service; departures are ordered and
    never earlier than arrival + service."""
    arrivals = sorted(arrivals)
    sim = Simulator()
    q = FluidQueue(sim, "q")
    departures = []

    def issue(service):
        departures.append((sim.now, service, sim.now + q.latency(service)))

    for t, s in arrivals:
        sim.schedule(t, issue, s)
    sim.run()

    assert q.busy_cycles == sum(s for _, s in arrivals)
    last_dep = 0
    for arr, service, dep in departures:
        assert dep >= arr + service
        assert dep >= last_dep  # FCFS: departures in arrival order
        last_dep = dep


@given(
    st.lists(st.tuples(st.integers(0, 300), st.integers(1, 50)), min_size=1, max_size=25),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(jobs, capacity):
    """At no point do more than `capacity` holders overlap."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = {"n": 0, "max": 0}

    def worker(start, hold):
        yield sim.timeout(start)
        yield res.acquire()
        active["n"] += 1
        active["max"] = max(active["max"], active["n"])
        assert active["n"] <= capacity
        yield sim.timeout(hold)
        active["n"] -= 1
        res.release()

    for start, hold in jobs:
        sim.spawn(worker(start, hold))
    sim.run()
    assert active["n"] == 0
    assert active["max"] <= capacity


@given(st.lists(st.integers(1, 100), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_fluid_queue_equals_resource_queue(services):
    """Analytic fluid queue departures == event-based FCFS departures
    for simultaneous arrivals."""
    sim = Simulator()
    q = FluidQueue(sim, "q")
    analytic = [q.latency(s) for s in services]

    sim2 = Simulator()
    res = Resource(sim2, capacity=1)
    event_based = []

    def job(service):
        yield res.acquire()
        yield sim2.timeout(service)
        res.release()
        event_based.append(sim2.now)

    for s in services:
        sim2.spawn(job(s))
    sim2.run()
    assert analytic == event_based

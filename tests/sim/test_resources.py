"""Unit tests for resources, stores, and fluid queues."""

import pytest

from repro.sim import FluidQueue, Resource, Simulator, Store


# --------------------------------------------------------------------- #
# Resource
# --------------------------------------------------------------------- #
def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(tag, hold):
        yield res.acquire()
        log.append((sim.now, tag, "got"))
        yield sim.timeout(hold)
        res.release()

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 10))
    sim.run()
    assert log == [(0, "a", "got"), (10, "b", "got")]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def worker(tag):
        yield res.acquire()
        log.append((sim.now, tag))
        yield sim.timeout(10)
        res.release()

    for tag in "abc":
        sim.spawn(worker(tag))
    sim.run()
    assert log == [(0, "a"), (0, "b"), (10, "c")]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1)
        res.release()

    for tag in range(8):
        sim.spawn(worker(tag))
    sim.run()
    assert order == list(range(8))


def test_release_idle_resource_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_counters():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="bus")

    def holder():
        yield res.acquire()
        yield sim.timeout(100)
        res.release()

    def waiter():
        yield sim.timeout(1)
        yield res.acquire()
        res.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    while sim.peek() <= 50:
        sim.step()
    assert res.in_use == 1
    assert res.queued == 1
    sim.run()
    assert res.in_use == 0
    assert res.queued == 0


# --------------------------------------------------------------------- #
# Store
# --------------------------------------------------------------------- #
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    store.put("msg")
    sim.spawn(consumer())
    sim.run()
    assert got == [(0, "msg")]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(40)
        store.put("late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [(40, "late")]


def test_store_fifo_items_and_consumers():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    for tag in range(3):
        sim.spawn(consumer(tag))
    for item in "xyz":
        sim.schedule(5, store.put, item)
    sim.run()
    assert got == [(0, "x"), (1, "y"), (2, "z")]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# --------------------------------------------------------------------- #
# FluidQueue
# --------------------------------------------------------------------- #
def test_fluid_queue_no_contention_latency_is_service():
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    assert q.latency(100) == 100
    assert q.backlog == 100


def test_fluid_queue_back_to_back_requests_queue_up():
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    assert q.latency(100) == 100
    assert q.latency(50) == 150  # waits behind the first
    assert q.latency(10) == 160


def test_fluid_queue_drains_with_time():
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    q.latency(100)
    sim.schedule(100, lambda: None)
    sim.run()
    assert q.backlog == 0
    assert q.latency(10) == 10


def test_fluid_queue_partial_drain():
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    q.latency(100)
    sim.schedule(60, lambda: None)
    sim.run()
    assert q.backlog == 40
    assert q.latency(10) == 50


def test_fluid_queue_bandwidth_transfer():
    sim = Simulator()
    q = FluidQueue(sim, "iobus", bytes_per_cycle=2.0)
    assert q.transfer(4096) == 2048
    assert q.service_cycles(4096) == 2048
    # service_cycles must not mutate state
    assert q.backlog == 2048


def test_fluid_queue_transfer_without_bandwidth_raises():
    sim = Simulator()
    q = FluidQueue(sim, "plain")
    with pytest.raises(RuntimeError):
        q.transfer(100)


def test_fluid_queue_negative_service_rejected():
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    with pytest.raises(ValueError):
        q.latency(-5)


def test_fluid_queue_utilization_tracking():
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    q.latency(30)
    sim.schedule(100, lambda: None)
    sim.run()
    assert q.busy_cycles == 30
    assert q.utilization() == pytest.approx(0.3)


def test_fluid_queue_matches_event_based_fcfs():
    """The analytic queue must agree with an explicit DES FCFS server."""
    arrivals = [(0, 70), (10, 20), (95, 30), (200, 5), (201, 50)]

    # analytic
    sim = Simulator()
    q = FluidQueue(sim, "bus")
    analytic_departures = []

    def issue(service):
        analytic_departures.append(sim.now + q.latency(service))

    for t, s in arrivals:
        sim.schedule(t, issue, s)
    sim.run()

    # event-based reference
    sim2 = Simulator()
    res = Resource(sim2, capacity=1)
    event_departures = []

    def job(service):
        yield res.acquire()
        yield sim2.timeout(service)
        res.release()
        event_departures.append(sim2.now)

    def arrive(service):
        sim2.spawn(job(service))

    for t, s in arrivals:
        sim2.schedule(t, arrive, s)
    sim2.run()

    assert analytic_departures == sorted(event_departures)

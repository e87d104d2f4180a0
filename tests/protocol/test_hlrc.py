"""Integration tests for the HLRC engine on a small real cluster."""

import pytest

from tests.protocol.conftest import build, run_workers

# With home_policy="round_robin" on 2 nodes: even pages home at node 0,
# odd pages at node 1.  Procs 0,1 are node 0; procs 2,3 are node 1.


def test_read_of_home_page_is_free():
    cluster = build()
    times = []

    def worker(cpu, proto):
        yield from proto.read(cpu, 0)  # page 0 homes at node 0
        times.append(cluster.sim.now)

    run_workers(cluster, {0: worker})
    assert times == [0]
    assert cluster.protocol.counters.page_faults == 0


def test_remote_read_faults_and_fetches():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.read(cpu, 1)  # page 1 homes at node 1: remote

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.page_faults == 1
    assert c.page_fetches == 1
    assert cluster.procs[0].stats.time["data_wait"] > 0
    # second read hits the cached copy
    cluster.sim.spawn(cluster.protocol.read(cluster.procs[0], 1))
    cluster.sim.run()
    assert c.page_faults == 1


def test_node_level_fetch_coalescing():
    """Two processors of the same node faulting on the same page issue
    one fetch but two faults."""
    cluster = build()

    def worker(cpu, proto):
        yield from proto.read(cpu, 1)

    run_workers(cluster, {0: worker, 1: worker})
    c = cluster.protocol.counters
    assert c.page_faults == 2
    assert c.page_fetches == 1


def test_different_nodes_fetch_independently():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.read(cpu, 3)  # homes at node 1

    # proc 0 (node 0) fetches; proc 2 (node 1) is at home: free
    run_workers(cluster, {0: worker, 2: worker})
    assert cluster.protocol.counters.page_fetches == 1


def test_write_creates_twin_once_per_node():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.write(cpu, 1, words=10)
        yield from proto.write(cpu, 1, words=5)

    run_workers(cluster, {0: worker})
    assert 1 in cluster.protocol.mem[0].twins
    assert cluster.protocol.dirty[0][1] == 15
    # protocol time includes twin creation
    assert cluster.procs[0].stats.time["protocol"] > 0


def test_write_at_home_needs_no_twin():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.write(cpu, 0, words=10)  # page 0 homes locally

    run_workers(cluster, {0: worker})
    assert 0 not in cluster.protocol.mem[0].twins
    assert cluster.protocol.dirty[0][0] == 10


def test_release_flushes_diff_to_home_and_opens_interval():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        yield from proto.write(cpu, 1, words=20)
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.diffs_created == 1
    assert c.diff_words == 20
    assert c.write_notices == 1
    assert cluster.protocol.vc[0].snapshot()[0] == 1
    assert cluster.protocol.log.pages_of(0, 1) == (1,)
    assert not cluster.protocol.dirty[0]
    assert 1 not in cluster.protocol.mem[0].twins  # twin retired


def test_home_writes_flush_without_messages():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        yield from proto.write(cpu, 0, words=20)  # home-local page
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.diffs_created == 0
    assert c.write_notices == 1  # notice still logged for others


def test_acquire_invalidates_pages_with_unseen_notices():
    """Producer (proc 0) writes page 2 under a lock; consumer (proc 2,
    other node) has a stale copy which must be invalidated at acquire and
    re-fetched at the next read — LRC end to end."""
    cluster = build()
    order = []

    def producer(cpu, proto):
        yield from proto.read(cpu, 2)  # page 2 homes at node 0 (local)
        yield from proto.acquire(cpu, 5)
        yield from proto.write(cpu, 2, words=8)
        yield from proto.release(cpu, 5)
        order.append("produced")

    def consumer(cpu, proto):
        yield from proto.read(cpu, 2)  # fetch a copy (will become stale)
        # wait until producer released, then acquire the same lock
        while "produced" not in order:
            yield cluster.sim.timeout(1000)
        yield from proto.acquire(cpu, 5)
        yield from proto.release(cpu, 5)
        order.append("acquired")
        yield from proto.read(cpu, 2)  # must re-fetch

    run_workers(cluster, {0: producer, 2: consumer})
    c = cluster.protocol.counters
    assert order == ["produced", "acquired"]
    # consumer fetched page 2 twice: initial + after invalidation
    assert cluster.procs[2].stats.get_count("page_fetches") == 2
    assert cluster.protocol.mem[1].invalidations == 1


def test_home_node_never_invalidates_its_own_pages():
    cluster = build()

    def producer(cpu, proto):
        yield from proto.acquire(cpu, 5)
        yield from proto.write(cpu, 3, words=4)  # page 3 homes at node 1
        yield from proto.release(cpu, 5)

    def home_reader(cpu, proto):
        yield cluster.sim.timeout(500_000)
        yield from proto.acquire(cpu, 5)
        yield from proto.release(cpu, 5)
        yield from proto.read(cpu, 3)  # at home: still free

    run_workers(cluster, {0: producer, 2: home_reader})
    assert cluster.procs[2].stats.get_count("page_fetches", ) == 0
    assert cluster.protocol.mem[1].invalidations == 0


def test_barrier_propagates_notices_to_everyone():
    cluster = build()
    fetches_after = {}

    def writer(cpu, proto):
        yield from proto.read(cpu, 1)
        # no lock: barrier is the synchronization
        yield from proto.write(cpu, 2, words=4)  # page 2 homes at node 0
        yield from proto.barrier(cpu, 0)

    def reader(cpu, proto):
        yield from proto.read(cpu, 2)  # pre-barrier copy
        yield from proto.barrier(cpu, 0)
        before = cpu.stats.get_count("page_fetches")
        yield from proto.read(cpu, 2)  # stale: must re-fetch
        fetches_after[cpu.global_id] = cpu.stats.get_count("page_fetches") - before

    others = {pid: reader for pid in (1, 2, 3)}
    run_workers(cluster, {0: writer, **others})
    # node-1 readers (procs 2,3) had a stale copy; after the barrier one
    # node-level re-fetch happens
    assert fetches_after[2] + fetches_after[3] >= 1
    assert cluster.protocol.counters.barriers == 4


def test_interrupts_counted_at_home_on_fetch():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.read(cpu, 1)  # home node 1 gets interrupted

    run_workers(cluster, {0: worker})
    node1_cpu0 = cluster.nodes[1].cpus[0]
    assert node1_cpu0.stats.get_count("interrupts") == 1
    assert node1_cpu0.stats.time["handler"] > 0


def test_interrupt_cost_dominates_fetch_latency():
    """The paper's headline effect at micro scale: raising interrupt cost
    directly lengthens the page-fetch critical path."""

    def fetch_time(interrupt_cost):
        cluster = build(interrupt_cost=interrupt_cost)
        done = []

        def worker(cpu, proto):
            yield from proto.read(cpu, 1)
            done.append(cluster.sim.now)

        run_workers(cluster, {0: worker})
        return done[0]

    t0, t1 = fetch_time(0), fetch_time(5000)
    assert t1 - t0 == pytest.approx(2 * 5000, rel=0.05)


def test_counter_bump_unknown_names_land_in_extra():
    from repro.protocol import ProtocolCounters

    c = ProtocolCounters()
    c.bump("page_fetches", 2)
    c.bump("bump")  # a method name, not a counter field
    c.bump("extra")  # the overflow dict itself is not a counter
    c.bump("custom", 3)
    assert c.page_fetches == 2
    assert c.extra == {"bump": 1, "extra": 1, "custom": 3}

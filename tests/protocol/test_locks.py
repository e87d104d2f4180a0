"""Tests for the token-based distributed lock protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.process import ProcessCrash
from tests.protocol.conftest import build, run_workers

# 2 nodes x 2 procs; lock L homes at node L % 2.


def test_local_acquire_at_home_no_messages():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)  # lock 0 homes at node 0
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.local_lock_acquires == 1
    assert c.remote_lock_acquires == 0
    assert cluster.procs[0].stats.get_count("messages_sent") == 0


def test_remote_acquire_uses_messages_and_interrupt():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 1)  # lock 1 homes at node 1
        yield from proto.release(cpu, 1)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.remote_lock_acquires == 1
    assert c.local_lock_acquires == 0
    assert cluster.nodes[1].cpus[0].stats.get_count("interrupts") >= 1
    assert cluster.procs[0].stats.time["lock_wait"] > 0


def test_token_caching_makes_reacquire_local():
    """After a remote acquire, the token stays at the node: the next
    acquire by either processor of that node is local."""
    cluster = build()

    def first(cpu, proto):
        yield from proto.acquire(cpu, 1)
        yield from proto.release(cpu, 1)

    run_workers(cluster, {0: first})
    assert cluster.protocol.counters.remote_lock_acquires == 1

    def second(cpu, proto):
        yield from proto.acquire(cpu, 1)
        yield from proto.release(cpu, 1)

    cluster.sim.spawn(second(cluster.procs[1], cluster.protocol))
    cluster.sim.run()
    c = cluster.protocol.counters
    assert c.remote_lock_acquires == 1
    assert c.local_lock_acquires == 1


def test_intra_node_contention_waits_locally():
    cluster = build()
    order = []

    def worker(tag, hold):
        def gen(cpu, proto):
            yield from proto.acquire(cpu, 0)
            order.append((tag, "got", cluster.sim.now))
            yield from cpu.busy(hold, "compute")
            yield from proto.release(cpu, 0)

        return gen

    run_workers(cluster, {0: worker("a", 10_000), 1: worker("b", 10)})
    assert [t for t, _, _ in order] == ["a", "b"]
    # b waited for a's hold
    assert order[1][2] >= order[0][2] + 10_000
    assert cluster.protocol.counters.local_lock_acquires == 2


def test_token_recall_across_nodes():
    """Holder at node 0 (token cached), requester at node 1: home must
    recall the token and grant after the release."""
    cluster = build()
    order = []

    def holder(cpu, proto):
        yield from proto.acquire(cpu, 1)  # remote: token moves to node 0
        order.append(("holder", cluster.sim.now))
        yield from cpu.busy(200_000, "compute")
        yield from proto.release(cpu, 1)

    def requester(cpu, proto):
        yield cluster.sim.timeout(50_000)  # arrive while holder works
        yield from proto.acquire(cpu, 1)
        order.append(("requester", cluster.sim.now))
        yield from proto.release(cpu, 1)

    run_workers(cluster, {0: holder, 2: requester})
    assert [t for t, _ in order] == ["holder", "requester"]
    # the requester could not get it before the holder's release
    assert order[1][1] > order[0][1] + 200_000


def test_home_local_request_with_token_elsewhere():
    """Requester at the lock's own home while the token is cached away:
    local request queues at home, recall brings the token back."""
    cluster = build()
    got = []

    def remote_first(cpu, proto):
        yield from proto.acquire(cpu, 1)  # token to node 0
        yield from cpu.busy(200_000, "compute")
        yield from proto.release(cpu, 1)

    def home_second(cpu, proto):
        # wait until the token has really migrated to node 0
        while proto.locks.state(1).token_node != 0:
            yield cluster.sim.timeout(1_000)
        yield from proto.acquire(cpu, 1)  # proc 2 is at home node 1
        got.append(cluster.sim.now)
        yield from proto.release(cpu, 1)

    run_workers(cluster, {0: remote_first, 2: home_second})
    assert len(got) == 1
    c = cluster.protocol.counters
    assert c.remote_lock_acquires == 2  # both needed the token moved


def test_release_by_non_holder_raises():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.locks.release(cpu, 0, proto.vc[cpu.global_id].snapshot())

    with pytest.raises(Exception):
        run_workers(cluster, {0: worker})


def test_fifo_service_under_cross_node_contention():
    cluster = build()
    order = []

    def worker(tag, start):
        def gen(cpu, proto):
            yield cluster.sim.timeout(start)
            yield from proto.acquire(cpu, 0)
            order.append(tag)
            yield from cpu.busy(5_000, "compute")
            yield from proto.release(cpu, 0)

        return gen

    run_workers(
        cluster,
        {0: worker("n0a", 0), 2: worker("n1a", 100), 3: worker("n1b", 200)},
    )
    assert len(order) == 3
    assert order[0] == "n0a"


def _check_mutual_exclusion(pattern):
    """Run one (proc, lock, hold) acquire pattern: no two processors ever
    hold the same lock simultaneously, and every acquire completes."""
    cluster = build()
    holders = {}
    violations = []
    completed = []

    def worker(cpu, proto, lock_id, hold):
        def gen(c, p):
            yield from p.acquire(c, lock_id)
            if holders.get(lock_id) is not None:
                violations.append((lock_id, holders[lock_id], c.global_id))
            holders[lock_id] = c.global_id
            yield from c.busy(hold, "compute")
            holders[lock_id] = None
            yield from p.release(c, lock_id)
            completed.append(c.global_id)

        return gen(cpu, proto)

    for proc_id, lock_id, hold in pattern:
        cluster.sim.spawn(
            worker(cluster.procs[proc_id], cluster.protocol, lock_id, hold)
        )
    cluster.sim.run()
    assert violations == []
    assert len(completed) == len(pattern)


@given(
    pattern=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(100, 5000)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=25, deadline=None)
def test_mutual_exclusion_property(pattern):
    """Property: whatever the acquire pattern, no two processors ever hold
    the same lock simultaneously, and every acquire eventually completes."""
    _check_mutual_exclusion(pattern)


# Known race in LockManager.release: after its smp_sync yield it acts on
# the token without checking the token is still at the releasing node, so
# a handler that granted the token away meanwhile makes the release grant
# a second token or send a TOKEN_RETURN to its own node.  The fix moves
# simulated results (it needs a MODEL_VERSION bump and new benchmark
# reference digests), so these patterns stay pinned as strict xfails
# until it lands; the fix turns them into passes and forces the marker out.
@pytest.mark.xfail(strict=True, raises=ProcessCrash,
                   reason="LockManager.release acts on a token granted away during its yield")
@pytest.mark.parametrize(
    "pattern",
    [
        [(0, 2, 100), (0, 2, 100), (0, 2, 901), (0, 2, 1800), (2, 2, 100), (2, 0, 100)],
        [(0, 2, 100), (0, 2, 100), (0, 2, 901), (2, 2, 100), (2, 2, 1901), (2, 0, 100),
         (2, 2, 100)],
        [(0, 0, 100), (0, 0, 1201), (2, 0, 1701), (2, 0, 100), (2, 0, 100), (2, 2, 100)],
    ],
    ids=["return-to-self-lock2", "release-held-by-none", "return-to-self-lock0"],
)
def test_release_after_token_moved(pattern):
    _check_mutual_exclusion(pattern)

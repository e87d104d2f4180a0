"""Tests for release-flush batching, dirty clamping and write paths."""

from repro.arch import ArchParams
from repro.protocol import diff_wire_bytes, page_words

from tests.protocol.conftest import build, run_workers

# 2 nodes x 2 procs, round-robin homes: even pages -> node 0, odd -> node 1.


def test_flush_batches_diffs_per_home():
    """Dirty pages homed at the same remote node travel in ONE message."""
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        # three pages all homed at node 1
        for page in (1, 3, 5):
            yield from proto.write(cpu, page, words=10)
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.diffs_created == 3
    # message count: 3 fetch RPCs (req+reply each) + 1 diff batch (+ack)
    # => the diff path contributed exactly one request across the wire
    diff_requests = [
        1
        for _ in range(1)
        if cluster.nodes[1].nic.messages_received > 0
    ]
    assert diff_requests
    # verify via per-cpu counter: 3 fetch sends + 1 diff send
    sends = cluster.procs[0].stats.get_count("messages_sent")
    assert sends == 4


def test_dirty_words_clamped_to_page():
    """The slow ``write`` (remote page 1) and ``write_immediate`` (home
    page 0) both clamp the dirty count to the run's words per page, in
    both protocols and at both page sizes."""
    for protocol in ("hlrc", "aurc"):
        for page_size in (4096, 16384):
            cluster = build(protocol=protocol, page_size=page_size)
            words = page_words(ArchParams(), page_size)
            immediate = []

            def worker(cpu, proto):
                yield from proto.write(cpu, 1, words=10 * words)
                yield from proto.write(cpu, 1, words=10 * words)
                immediate.append(proto.write_immediate(cpu, 0, words=10 * words))
                immediate.append(proto.write_immediate(cpu, 0, words=10 * words))

            run_workers(cluster, {0: worker})
            assert immediate == [True, True], (protocol, page_size)
            assert cluster.protocol.dirty[0] == {1: words, 0: words}, (
                protocol, page_size)


def test_flush_without_dirty_is_noop():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.diffs_created == 0
    assert c.write_notices == 0
    assert cluster.protocol.vc[0].snapshot()[0] == 0  # no interval opened


def test_mixed_home_flush_splits_by_home():
    cluster = build()

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        yield from proto.write(cpu, 1, words=4)  # home node 1 (remote)
        yield from proto.write(cpu, 2, words=4)  # home node 0 (local)
        yield from proto.write(cpu, 3, words=4)  # home node 1 (remote)
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.diffs_created == 2  # only the remote pages diff
    assert c.write_notices == 3  # but all three get notices


def test_diff_wire_bytes_scale_with_words():
    arch = ArchParams()
    assert diff_wire_bytes(arch, 100) > diff_wire_bytes(arch, 10)


def test_two_procs_same_node_both_flush_own_dirty():
    cluster = build()

    def worker(lock_id, page):
        def gen(cpu, proto):
            yield from proto.acquire(cpu, lock_id)
            yield from proto.write(cpu, page, words=8)
            yield from proto.release(cpu, lock_id)

        return gen

    run_workers(cluster, {0: worker(0, 1), 1: worker(2, 3)})
    c = cluster.protocol.counters
    assert c.diffs_created == 2
    assert cluster.protocol.vc[0].snapshot() == (1, 0, 0, 0)
    assert cluster.protocol.vc[1].snapshot() == (0, 1, 0, 0)


def test_interval_log_records_flushed_pages_in_order():
    cluster = build()

    def worker(cpu, proto):
        for k, page in enumerate((1, 3)):
            yield from proto.acquire(cpu, 0)
            yield from proto.write(cpu, page, words=2)
            yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    log = cluster.protocol.log
    assert log.interval_count(0) == 2
    assert log.pages_of(0, 1) == (1,)
    assert log.pages_of(0, 2) == (3,)


def test_free_fetch_mode_skips_fetches_but_keeps_semantics():
    cluster = build(free_page_fetches=True)

    def worker(cpu, proto):
        yield from proto.read(cpu, 1)
        yield from proto.write(cpu, 1, words=4)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.page_fetches == 0
    assert c.page_faults == 0
    assert 1 in cluster.protocol.mem[0].valid
    assert cluster.protocol.dirty[0][1] == 4

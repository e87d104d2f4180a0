"""Tests for the AURC (automatic update) protocol variant."""

from tests.protocol.conftest import build, run_workers


def test_aurc_writes_emit_update_traffic():
    cluster = build(protocol="aurc")

    def worker(cpu, proto):
        yield from proto.write(cpu, 1, words=10, runs=2)  # page 1 homes remotely

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.updates_sent == 1
    assert c.update_words == 10
    assert c.diffs_created == 0
    assert cluster.nodes[0].nic.messages_sent >= 1


def test_aurc_no_twins():
    cluster = build(protocol="aurc")

    def worker(cpu, proto):
        yield from proto.write(cpu, 1, words=10)

    run_workers(cluster, {0: worker})
    assert 1 not in cluster.protocol.mem[0].twins


def test_aurc_home_writes_stay_local():
    cluster = build(protocol="aurc")

    def worker(cpu, proto):
        yield from proto.write(cpu, 0, words=10)  # page 0 homes locally

    run_workers(cluster, {0: worker})
    assert cluster.protocol.counters.updates_sent == 0


def test_aurc_fine_grain_runs_become_packets():
    """A scattered write (many runs) emits at least that many packets."""
    cluster = build(protocol="aurc")

    def worker(cpu, proto):
        yield from proto.write(cpu, 1, words=16, runs=8)

    run_workers(cluster, {0: worker})
    assert cluster.nodes[0].nic.packets_sent >= 8


def test_aurc_release_waits_for_update_drain():
    """With a slow I/O bus, the release cannot complete before the update
    traffic has drained to the home."""
    cluster = build(protocol="aurc", io_bus_mb_per_mhz=0.25)
    done = []

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        for page in (1, 3, 5, 7):
            yield from proto.write(cpu, page, words=1000)
        yield from proto.release(cpu, 0)
        done.append(cluster.sim.now)

    run_workers(cluster, {0: worker})
    # 4 x 1000 words x 4B = 16 KB at 0.25 B/cyc >= 64k cycles of drain
    assert done[0] > 64_000
    assert not cluster.protocol._outstanding[0]


def test_aurc_release_creates_notices_like_hlrc():
    cluster = build(protocol="aurc")

    def worker(cpu, proto):
        yield from proto.acquire(cpu, 0)
        yield from proto.write(cpu, 1, words=4)
        yield from proto.release(cpu, 0)

    run_workers(cluster, {0: worker})
    c = cluster.protocol.counters
    assert c.write_notices == 1
    assert cluster.protocol.log.pages_of(0, 1) == (1,)


def test_aurc_invalidation_consistency_end_to_end():
    cluster = build(protocol="aurc")
    order = []

    def producer(cpu, proto):
        yield from proto.acquire(cpu, 5)
        yield from proto.write(cpu, 2, words=8)  # page 2 homes at node 0
        yield from proto.release(cpu, 5)
        order.append("produced")

    def consumer(cpu, proto):
        yield from proto.read(cpu, 2)
        while "produced" not in order:
            yield cluster.sim.timeout(1000)
        yield from proto.acquire(cpu, 5)
        yield from proto.release(cpu, 5)
        yield from proto.read(cpu, 2)  # must re-fetch after invalidation

    run_workers(cluster, {0: producer, 2: consumer})
    assert cluster.procs[2].stats.get_count("page_fetches") == 2


def test_aurc_more_sensitive_to_ni_occupancy_than_hlrc():
    """Figure 11's mechanism at micro scale: per-run update packets make
    AURC's runtime grow faster with NI occupancy than HLRC's."""

    def runtime(protocol, occupancy):
        cluster = build(protocol=protocol, ni_occupancy=occupancy)
        done = []

        def worker(cpu, proto):
            yield from proto.acquire(cpu, 0)
            for page in range(1, 40, 2):  # remote pages
                yield from proto.write(cpu, page, words=16, runs=4)
            yield from proto.release(cpu, 0)
            done.append(cluster.sim.now)

        run_workers(cluster, {0: worker})
        return done[0]

    hlrc_growth = runtime("hlrc", 4000) - runtime("hlrc", 0)
    aurc_growth = runtime("aurc", 4000) - runtime("aurc", 0)
    assert aurc_growth > hlrc_growth


def test_aurc_outstanding_list_pruned():
    cluster = build(protocol="aurc")

    def worker(cpu, proto):
        for i in range(80):
            yield from proto.write(cpu, 1, words=2)
            yield cluster.sim.timeout(10_000)  # let updates drain

    run_workers(cluster, {0: worker})
    assert len(cluster.protocol._outstanding[0]) <= 65

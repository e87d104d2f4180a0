"""Unit tests for IOBus, Network, and the NI pipelines."""

import pytest

from repro.arch import ArchParams, CommParams
from repro.net import IOBus, MessageKind, Network
from repro.net.message import Message
from repro.sim import Simulator

from tests.net.conftest import make_cluster


# --------------------------------------------------------------------- #
# IOBus
# --------------------------------------------------------------------- #
def test_iobus_dma_latency_matches_bandwidth():
    sim = Simulator()
    bus = IOBus(sim, bytes_per_cycle=0.5)
    assert bus.dma_latency(100) == 200
    assert bus.dma_latency(0) == 0


def test_iobus_serializes_dmas():
    sim = Simulator()
    bus = IOBus(sim, bytes_per_cycle=1.0)
    assert bus.dma_latency(100) == 100
    assert bus.dma_latency(100) == 200


def test_iobus_backlog_bytes():
    sim = Simulator()
    bus = IOBus(sim, bytes_per_cycle=2.0)
    bus.dma_latency(4096)
    assert bus.backlog_bytes == pytest.approx(4096, abs=4)


def test_iobus_validation():
    with pytest.raises(ValueError):
        IOBus(Simulator(), bytes_per_cycle=0)
    bus = IOBus(Simulator(), bytes_per_cycle=1.0)
    with pytest.raises(ValueError):
        bus.dma_latency(-1)


# --------------------------------------------------------------------- #
# Network
# --------------------------------------------------------------------- #
def test_network_delivers_to_attached_receiver():
    sim = Simulator()
    net = Network(sim, bytes_per_cycle=2.0, latency_cycles=100)
    got = []
    net.attach(1, lambda msg, wire: got.append((sim.now, msg.msg_id, wire)))
    msg = Message(src_node=0, dst_node=1, kind=MessageKind.SYNC, size_bytes=100)
    net.deliver(msg, wire_bytes=100)
    sim.run()
    assert got == [(100, msg.msg_id, 100)]


def test_network_is_contention_free():
    """Two simultaneous messages to different nodes arrive at the same time."""
    sim = Simulator()
    net = Network(sim, bytes_per_cycle=2.0, latency_cycles=100)
    got = []
    net.attach(1, lambda msg, wire: got.append(sim.now))
    net.attach(2, lambda msg, wire: got.append(sim.now))
    for dst in (1, 2):
        net.deliver(
            Message(src_node=0, dst_node=dst, kind=MessageKind.SYNC, size_bytes=100), 100
        )
    sim.run()
    assert got == [100, 100]


def test_network_unattached_destination_raises():
    sim = Simulator()
    net = Network(sim, bytes_per_cycle=2.0, latency_cycles=0)
    with pytest.raises(ValueError):
        net.deliver(Message(src_node=0, dst_node=9, kind=MessageKind.SYNC, size_bytes=1), 1)


def test_network_double_attach_rejected():
    sim = Simulator()
    net = Network(sim, bytes_per_cycle=2.0, latency_cycles=0)
    net.attach(0, lambda m, w: None)
    with pytest.raises(ValueError):
        net.attach(0, lambda m, w: None)


# --------------------------------------------------------------------- #
# NI pipelines (end to end over a MiniCluster)
# --------------------------------------------------------------------- #
def test_sync_message_end_to_end_delivery():
    sim = Simulator()
    cluster = make_cluster(sim)
    got = []

    def receiver():
        payload = yield cluster.msg.receive_sync(1, "ping")
        got.append((sim.now, payload))

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.send_sync(cpu, 0, 1, "ping", 64, payload="hello")

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert len(got) == 1
    assert got[0][1] == "hello"
    assert got[0][0] > 0


def test_sync_delivery_latency_cut_through_floor():
    """End-to-end latency >= host overhead + bottleneck stage + link
    latency (the path is cut-through pipelined, not store-and-forward)."""
    arch = ArchParams()
    comm = CommParams()
    sim = Simulator()
    cluster = make_cluster(sim, arch, comm)
    got = []

    def receiver():
        yield cluster.msg.receive_sync(1, "t")
        got.append(sim.now)

    def sender():
        yield from cluster.msg.send_sync(cluster.nodes[0].cpus[0], 0, 1, "t", 4096)

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    wire = 4096 + arch.packet_header_bytes
    bottleneck = max(
        comm.ni_occupancy,
        wire / comm.io_bytes_per_cycle,  # the I/O bus is the slow stage
        wire / arch.link_bytes_per_cycle,
    )
    floor = comm.host_overhead + bottleneck + arch.link_latency_cycles
    assert got[0] >= floor
    # and strictly below the store-and-forward sum of stages
    ceiling = (
        comm.host_overhead
        + 2 * comm.ni_occupancy
        + 2 * wire / comm.io_bytes_per_cycle
        + 2 * wire / arch.membus_bytes_per_cycle
        + arch.link_latency_cycles
        + wire / arch.link_bytes_per_cycle
    )
    assert got[0] < ceiling


def test_request_raises_handler_hook():
    sim = Simulator()
    cluster = make_cluster(sim)
    seen = []
    cluster.nodes[1].nic.on_request = lambda msg: seen.append(msg.tag)

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.send_async(cpu, 0, 1, "page_req", 64)

    sim.spawn(sender())
    sim.run()
    assert seen == ["page_req"]


def test_request_without_hook_crashes_loudly():
    sim = Simulator()
    cluster = make_cluster(sim)

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.send_async(cpu, 0, 1, "orphan", 64)

    sim.spawn(sender())
    with pytest.raises(Exception):
        sim.run()


def test_host_overhead_charged_to_sender_cpu():
    sim = Simulator()
    comm = CommParams(host_overhead=700)
    cluster = make_cluster(sim, comm=comm)
    cpu = cluster.nodes[0].cpus[0]

    def sender():
        yield from cluster.msg.send_sync(cpu, 0, 1, "x", 64)

    def receiver():
        yield cluster.msg.receive_sync(1, "x")

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert cpu.stats.time["overhead"] == 700
    assert cpu.stats.get_count("messages_sent") == 1
    assert cpu.stats.get_count("bytes_sent") > 64  # headers included


def test_messages_counted_per_sender():
    sim = Simulator()
    cluster = make_cluster(sim)
    cpu = cluster.nodes[0].cpus[0]

    def sender():
        for _ in range(3):
            yield from cluster.msg.send_sync(cpu, 0, 1, "x", 128)

    def receiver():
        for _ in range(3):
            yield cluster.msg.receive_sync(1, "x")

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert cpu.stats.get_count("messages_sent") == 3
    assert cluster.nodes[0].nic.messages_sent == 3
    assert cluster.nodes[1].nic.messages_received == 3


def test_sync_rendezvous_table_keeps_only_pending_tags():
    """Drained rendezvous are forgotten, in either arrival order, and a
    reused tag still delivers in FIFO order."""
    sim = Simulator()
    cluster = make_cluster(sim)
    cpu = cluster.nodes[0].cpus[0]
    nic = cluster.nodes[1].nic
    got = []

    def early_receiver():  # waits before its message arrives
        got.append((yield cluster.msg.receive_sync(1, "early")))

    def sender():
        yield from cluster.msg.send_sync(cpu, 0, 1, "early", 64, payload="e")
        for k in range(3):
            yield from cluster.msg.send_sync(cpu, 0, 1, "late", 64, payload=k)

    def late_receiver():  # arrives after all three messages
        yield 1_000_000
        assert len(nic._sync_stores) == 1  # "late" holds three payloads
        for _ in range(3):
            got.append((yield cluster.msg.receive_sync(1, "late")))

    sim.spawn(early_receiver())
    sim.spawn(sender())
    sim.spawn(late_receiver())
    sim.run()
    assert got == ["e", 0, 1, 2]
    assert nic._sync_stores == {}


def test_multi_packet_message_counts_packets():
    sim = Simulator()
    arch = ArchParams()
    cluster = make_cluster(sim, arch=arch)

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.send_sync(cpu, 0, 1, "big", 3 * arch.packet_mtu)

    def receiver():
        yield cluster.msg.receive_sync(1, "big")

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert cluster.nodes[0].nic.packets_sent == 3


def test_zero_occupancy_skips_ni_core():
    sim = Simulator()
    comm = CommParams(ni_occupancy=0)
    cluster = make_cluster(sim, comm=comm)

    def sender():
        yield from cluster.msg.send_sync(cluster.nodes[0].cpus[0], 0, 1, "x", 64)

    def receiver():
        yield cluster.msg.receive_sync(1, "x")

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    core = cluster.nodes[0].nic.core
    assert (core._free_at, core.busy_cycles) == (0, 0)

"""Tests for NI queue back-pressure, DATA messages, and send variants."""

import pytest

from repro.arch import ArchParams, CommParams
from repro.net import MessageKind, MessagingLayer
from repro.net.faults import FaultParams
from repro.net.message import Message
from repro.sim import Simulator

from tests.net.conftest import make_cluster


def test_data_message_deposits_without_interrupt_or_rendezvous():
    sim = Simulator()
    cluster = make_cluster(sim)
    deposited = []

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        ev = yield from cluster.msg.send_data(cpu, 0, 1, size_bytes=256)
        payload = yield ev
        deposited.append((sim.now, payload.kind))

    sim.spawn(sender())
    sim.run()
    assert len(deposited) == 1
    assert deposited[0][1] is MessageKind.DATA
    # no interrupt was raised, nothing waits at a rendezvous
    assert cluster.nodes[1].irq.interrupts_raised == 0


def test_send_data_charges_no_host_overhead():
    sim = Simulator()
    comm = CommParams(host_overhead=5000)
    cluster = make_cluster(sim, comm=comm)
    cpu = cluster.nodes[0].cpus[0]

    def sender():
        yield from cluster.msg.send_data(cpu, 0, 1, size_bytes=64)

    sim.spawn(sender())
    sim.run()
    assert cpu.stats.time["overhead"] == 0
    assert cpu.stats.get_count("messages_sent") == 1


def test_min_packets_floor_respected():
    sim = Simulator()
    cluster = make_cluster(sim)

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.send_data(cpu, 0, 1, size_bytes=64, min_packets=7)

    sim.spawn(sender())
    sim.run()
    assert cluster.nodes[0].nic.packets_sent == 7


def test_outgoing_queue_overflow_triggers_backpressure():
    """Flooding a tiny NI queue stalls senders and counts overflow
    interrupts."""
    sim = Simulator()
    arch = ArchParams(ni_queue_bytes=4096)
    comm = CommParams(io_bus_mb_per_mhz=0.25)  # slow drain
    cluster = make_cluster(sim, arch=arch, comm=comm)
    overflowed = []
    cluster.nodes[0].nic.on_queue_overflow = lambda: overflowed.append(sim.now)

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        for _ in range(16):
            yield from cluster.msg.send_data(cpu, 0, 1, size_bytes=4096)

    sim.spawn(sender())
    sim.run()
    assert cluster.nodes[0].nic.overflow_interrupts > 0
    assert overflowed  # the hook fired
    assert cluster.nodes[1].nic.messages_received == 16  # all still arrive


def test_store_and_forward_slower_than_cut_through():
    import dataclasses

    def delivery_time(cut_through):
        sim = Simulator()
        arch = dataclasses.replace(ArchParams(), model_cut_through=cut_through)
        cluster = make_cluster(sim, arch=arch)
        got = []

        def receiver():
            yield cluster.msg.receive_sync(1, "x")
            got.append(sim.now)

        def sender():
            yield from cluster.msg.send_sync(cluster.nodes[0].cpus[0], 0, 1, "x", 4096)

        sim.spawn(receiver())
        sim.spawn(sender())
        sim.run()
        return got[0]

    assert delivery_time(cut_through=False) > 1.5 * delivery_time(cut_through=True)


def test_rx_gate_delays_followers_behind_request():
    """A REPLY arriving just after a REQUEST waits for the interrupt
    signalling to finish (when the gate is modelled)."""
    sim = Simulator()
    comm = CommParams(interrupt_cost=10_000)
    cluster = make_cluster(sim, comm=comm)
    cluster.nodes[1].nic.on_request = lambda msg: None  # swallow the request
    got = []

    def sender():
        cpu = cluster.nodes[0].cpus[0]
        yield from cluster.msg.send_async(cpu, 0, 1, "req", 64)
        yield from cluster.msg.send_sync(cpu, 0, 1, "x", 64)

    def receiver():
        yield cluster.msg.receive_sync(1, "x")
        got.append(sim.now)

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    with_gate = got[0]

    # same flow with free interrupts: no gate hold
    sim2 = Simulator()
    cluster2 = make_cluster(sim2, comm=CommParams(interrupt_cost=0))
    cluster2.nodes[1].nic.on_request = lambda msg: None
    got2 = []

    def sender2():
        cpu = cluster2.nodes[0].cpus[0]
        yield from cluster2.msg.send_async(cpu, 0, 1, "req", 64)
        yield from cluster2.msg.send_sync(cpu, 0, 1, "x", 64)

    def receiver2():
        yield cluster2.msg.receive_sync(1, "x")
        got2.append(sim2.now)

    sim2.spawn(receiver2())
    sim2.spawn(sender2())
    sim2.run()
    assert with_gate > got2[0] + 5_000


def test_free_send_sync_skips_overhead():
    sim = Simulator()
    comm = CommParams(host_overhead=9000)
    cluster = make_cluster(sim, comm=comm)
    cpu = cluster.nodes[0].cpus[0]

    def sender():
        yield from cluster.msg.send_sync(cpu, 0, 1, "x", 64, free_send=True)

    def receiver():
        yield cluster.msg.receive_sync(1, "x")

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert cpu.stats.time["overhead"] == 0
    assert cpu.stats.get_count("messages_sent") == 1


def test_send_from_wrong_nic_rejected():
    sim = Simulator()
    cluster = make_cluster(sim)
    msg = Message(src_node=1, dst_node=0, kind=MessageKind.SYNC, size_bytes=8)
    with pytest.raises(ValueError, match="source"):
        cluster.nodes[0].nic.send(msg)
    with pytest.raises(ValueError, match="source"):
        cluster.nodes[0].nic.post(msg)
    assert msg.on_deposit is None


# --------------------------------------------------------------------- #
# fault branches of the send chain, with scripted (not sampled) faults
# --------------------------------------------------------------------- #
#: NI occupancy per packet: large enough that the NI core is the
#: bottleneck stage of every send below (the I/O bus stage stays under
#: ni_queue_bytes / io_bytes_per_cycle + 256 = 8448 cycles), so an idle
#: one-packet send takes exactly OCC cycles plus the link latency
OCC = 20_000
LINK_LATENCY = ArchParams().link_latency_cycles  # 200


class ScriptedFaults:
    """Stand-in for FaultInjector: each draw pops its next scripted value."""

    def __init__(self, stalls=(), spikes=(), drops=(), dups=()):
        self.stalls, self.spikes = list(stalls), list(spikes)
        self.drops, self.dups = list(drops), list(dups)

    def draw_stall(self):
        return self.stalls.pop(0) if self.stalls else 0

    def link_factor(self, src_node, dst_node):
        return 1.0

    def draw_spike(self):
        return self.spikes.pop(0) if self.spikes else 0

    def draw_drop(self):
        return self.drops.pop(0) if self.drops else False

    def draw_duplicate(self):
        return self.dups.pop(0) if self.dups else False


def _faulty_cluster(sim, faults, **arch_kw):
    cluster = make_cluster(
        sim, arch=ArchParams(**arch_kw), comm=CommParams(ni_occupancy=OCC)
    )
    for node in cluster.nodes:
        node.nic.faults = faults
    return cluster


def _deposit_times(sim, event):
    times = []

    def waiter():
        yield event
        times.append(sim.now)

    sim.spawn(waiter())
    return times


def test_forced_stall_then_backpressure_exact_times():
    sim = Simulator()
    cluster = _faulty_cluster(sim, ScriptedFaults(stalls=[1000]), ni_queue_bytes=4096)
    nic = cluster.nodes[0].nic
    overflowed = []
    nic.on_queue_overflow = lambda: overflowed.append(sim.now)
    # a 40960-byte DMA already holds the source I/O bus (0.5 B/cycle)
    # until cycle 81920
    assert nic.iobus.dma_latency(40960) == 81920
    msg = Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=64)
    times = _deposit_times(sim, nic.send(msg))
    sim.run()
    # The stall ends at 1000.  Each look at the queue that finds more
    # than 4096 bytes backlogged interrupts once and waits half the
    # backlog: 80920 cycles left -> +40460, -> +20230, -> +10115, -> +5057.
    assert overflowed == [1000, 41460, 61690, 71805]
    assert nic.overflow_interrupts == 4
    # 5058 backlog cycles (2529 B) fit: reserve at 76862, the NI core
    # stage takes OCC, then the link latency
    assert times == [76862 + OCC + LINK_LATENCY]
    assert cluster.nodes[1].nic.messages_received == 1


def test_forced_delay_spike_exact_time():
    sim = Simulator()
    cluster = _faulty_cluster(sim, ScriptedFaults(spikes=[3000]))
    nic = cluster.nodes[0].nic
    msg = Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=64)
    times = _deposit_times(sim, nic.send(msg))
    sim.run()
    assert times == [OCC + 3000 + LINK_LATENCY]
    assert nic.overflow_interrupts == 0
    assert cluster.nodes[1].nic.messages_received == 1


def test_forced_drop_then_duplicate_delivers_once():
    sim = Simulator()
    faults = ScriptedFaults(drops=[True, False], dups=[True])  # no dup draw on a drop
    cluster = _faulty_cluster(sim, faults)
    nics = {n.node_id: n.nic for n in cluster.nodes}
    reliable = FaultParams(drop_prob=0.5, retry_timeout=50_000, max_retries=3)
    msg_layer = MessagingLayer(sim, ArchParams(), CommParams(ni_occupancy=OCC), nics, reliable)
    cpu = cluster.nodes[0].cpus[0]
    times = []

    def sender():
        deposit = yield from msg_layer.send_data(cpu, 0, 1, size_bytes=64)
        yield deposit
        times.append(sim.now)

    sim.spawn(sender())
    sim.run()
    # the first copy is dropped at OCC; the retransmission leaves at the
    # retry timeout, is duplicated in the fabric, and deposits once
    assert times == [50_000 + OCC + LINK_LATENCY]
    assert msg_layer.retransmits == 1
    assert nics[0].messages_dropped == 1
    assert nics[0].messages_sent == 2
    assert nics[1].messages_received == 1
    assert nics[1].duplicates_suppressed == 1
    assert nics[0].overflow_interrupts == 0

"""The NI's one-pass stage reservation against the per-resource API.

``NetworkInterface._tx_reserve`` reserves a message's whole path inline.
Each test builds twin fabrics: one sends through the NI, the other makes
the same reservations with ``MemoryBus.transfer_latency``,
``IOBus.dma_latency`` and ``FluidQueue.latency``.  Both must leave every
queue in the same state and schedule delivery at the same time.
"""

import pytest

from repro.apps import get_app
from repro.arch import ArchParams, CommParams
from repro.core import ClusterConfig
from repro.core.cluster import Cluster
from repro.core.run import _harvest_resource_busy, _worker
from repro.core.stats import MetricsRegistry
from repro.net.message import Message, MessageKind
from repro.sim import Simulator

from tests.net.conftest import make_cluster


def _queues(cluster):
    out = []
    for node in cluster.nodes:
        for q in (node.membus.queue, node.iobus.queue, node.nic.core):
            out.append((q.name, q._free_at, q.busy_cycles, q.requests))
        out.append((node.membus.name, node.membus.transfer_count, node.membus.transfer_bytes))
    return out


def _twins(arch, comm, preload):
    """Two identical fabrics at t=0 after ``preload(cluster)``."""
    pair = []
    for _ in range(2):
        sim = Simulator()
        cluster = make_cluster(sim, arch=arch, comm=comm)
        preload(cluster)
        pair.append(cluster)
    return pair


def _by_hand(cluster, size, arch, comm):
    """The stage sojourns of one 0 -> 1 message, one API call each."""
    src, dst = cluster.nodes
    packets = max(1, -(-size // arch.packet_mtu))
    wire = size + packets * arch.packet_header_bytes
    stages = [
        src.membus.transfer_latency(wire, "ni_out"),
        src.iobus.dma_latency(wire),
        int(wire / cluster.network.bytes_per_cycle),
        dst.iobus.dma_latency(wire),
        dst.membus.transfer_latency(wire, "ni_in"),
    ]
    if comm.ni_occupancy:
        stages.append(src.nic.core.latency(packets * comm.ni_occupancy))
        stages.append(dst.nic.core.latency(packets * comm.ni_occupancy))
    return stages


def _backlogged(cluster):
    # queued work on both sides and a loaded sender bus
    src, dst = cluster.nodes
    src.membus.register_background(0.3)
    src.membus.transfer_latency(3000, "mem")
    dst.iobus.dma_latency(900)
    dst.nic.core.latency(777)


@pytest.mark.parametrize("cut_through", [True, False])
@pytest.mark.parametrize("size", [0, 100, 4096, 20000])
def test_one_pass_matches_per_resource_calls(cut_through, size):
    arch = ArchParams(model_cut_through=cut_through)
    comm = CommParams(ni_occupancy=333)
    sent, manual = _twins(arch, comm, _backlogged)
    sent.nodes[0].nic._tx_reserve(
        Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=size)
    )
    stages = _by_hand(manual, size, arch, comm)
    # store-and-forward pays every stage; cut-through the slowest
    assert sent.nodes[0].nic.sim.peek() == (max(stages) if cut_through else sum(stages))
    assert _queues(sent) == _queues(manual)


def test_store_and_forward_sums_the_stages():
    arch = ArchParams(model_cut_through=False)
    comm = CommParams(ni_occupancy=200)
    sim = Simulator()
    cluster = make_cluster(sim, arch=arch, comm=comm)
    cluster.nodes[0].nic._tx_reserve(
        Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=4096)
    )
    twin = make_cluster(Simulator(), arch=arch, comm=comm)
    stages = _by_hand(twin, 4096, arch, comm)
    assert len(stages) == 7 and min(stages) > 0
    assert sim.peek() == sum(stages) > max(stages)


def test_zero_byte_message_skips_both_io_buses():
    arch = ArchParams(packet_header_bytes=0)
    sim = Simulator()
    cluster = make_cluster(sim, arch=arch)
    src, dst = cluster.nodes
    src.nic._tx_reserve(
        Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=0)
    )
    # nothing crossed either I/O bus; both memory buses still arbitrated
    assert src.iobus.queue.requests == 0
    assert dst.iobus.queue.requests == 0
    assert src.membus.transfer_count == dst.membus.transfer_count == 1
    assert src.membus.queue.requests == dst.membus.queue.requests == 1


def test_metrics_on_reserves_exactly_as_metrics_off():
    arch, comm = ArchParams(), CommParams(ni_occupancy=150)
    plain, metered = _twins(arch, comm, _backlogged)
    registry = MetricsRegistry()
    for node in metered.nodes:
        node.membus.metrics = node.iobus.metrics = node.nic.metrics = registry
    for cluster in (plain, metered):
        for size in (0, 64, 4096):
            cluster.nodes[0].nic._tx_reserve(
                Message(src_node=0, dst_node=1, kind=MessageKind.DATA, size_bytes=size)
            )
    assert _queues(metered) == _queues(plain)
    assert registry.counters["membus0.ni_out.transfers"] == 3
    assert registry.counters["iobus1.dma_bytes"] == 64 + 4096 + 3 * arch.packet_header_bytes


def _simulate(config, app, metrics):
    cluster = Cluster(config, metrics=metrics)
    for proc_id, events in enumerate(app.events):
        cluster.sim.spawn(_worker(cluster, cluster.procs[proc_id], events))
    cluster.sim.run()
    return cluster


def test_metrics_on_run_matches_metrics_off_run():
    config = ClusterConfig(protocol="aurc").with_comm(ni_occupancy=300)
    app = get_app("fft", page_size=config.comm.page_size, scale=0.1, seed=config.seed)
    plain = _simulate(config, app, None)
    metered = _simulate(config, app, MetricsRegistry())
    assert metered.metrics is not None and metered.metrics.counters
    assert _harvest_resource_busy(metered) == _harvest_resource_busy(plain)
    assert [c.finish_time for c in metered.procs] == [c.finish_time for c in plain.procs]
    for a, b in zip(metered.nodes, plain.nodes):
        assert (a.membus.transfer_count, a.membus.transfer_bytes) == (
            b.membus.transfer_count,
            b.membus.transfer_bytes,
        )
        assert a.membus.transfer_count > 0

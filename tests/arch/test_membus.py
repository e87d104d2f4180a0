"""Unit tests for the memory-bus contention model."""

import pytest

from repro.arch import ArchParams, MemoryBus
from repro.sim import Simulator


@pytest.fixture
def bus():
    return MemoryBus(Simulator(), ArchParams())


def test_uncontended_transfer_latency(bus):
    arch = ArchParams()
    lat = bus.transfer_latency(4096, kind="l2")
    expected = arch.membus_arb_cycles + 4096 / arch.membus_bytes_per_cycle
    assert lat == pytest.approx(expected, abs=2)


def test_transfers_queue_fcfs(bus):
    lat1 = bus.transfer_latency(4096, kind="l2")
    lat2 = bus.transfer_latency(4096, kind="l2")
    assert lat2 > lat1  # second waits behind the first


def test_unknown_bus_class_rejected(bus):
    with pytest.raises(ValueError):
        bus.transfer_latency(64, kind="dma")


def test_negative_size_rejected(bus):
    with pytest.raises(ValueError):
        bus.transfer_latency(-1)


def test_priority_class_cost_asymmetry(bus):
    """NI-in (lowest priority) pays more arbitration than NI-out."""
    b1 = MemoryBus(Simulator(), ArchParams())
    b2 = MemoryBus(Simulator(), ArchParams())
    assert b2.transfer_latency(64, kind="ni_in") > b1.transfer_latency(64, kind="ni_out")


def test_background_load_slows_transfers():
    arch = ArchParams()
    quiet = MemoryBus(Simulator(), arch)
    loaded = MemoryBus(Simulator(), arch)
    loaded.register_background(arch.membus_bytes_per_cycle * 0.8)
    assert loaded.transfer_latency(4096) > quiet.transfer_latency(4096)


def test_stall_multiplier_grows_with_background():
    arch = ArchParams()
    bus = MemoryBus(Simulator(), arch)
    assert bus.stall_multiplier(own_rate=0.0, block_cycles=1000) == pytest.approx(1.0)
    bus.register_background(arch.membus_bytes_per_cycle * 0.5)
    m_half = bus.stall_multiplier(own_rate=0.0, block_cycles=1000)
    assert m_half == pytest.approx(2.0)
    bus.register_background(arch.membus_bytes_per_cycle * 0.4)
    m_ninety = bus.stall_multiplier(own_rate=0.0, block_cycles=1000)
    assert m_ninety > m_half


def test_own_rate_excluded_from_multiplier():
    arch = ArchParams()
    bus = MemoryBus(Simulator(), arch)
    rate = arch.membus_bytes_per_cycle * 0.5
    bus.register_background(rate)
    # A block that itself registered all the load sees no contention.
    assert bus.stall_multiplier(own_rate=rate, block_cycles=1000) == pytest.approx(1.0)


def test_multiplier_capped():
    arch = ArchParams()
    bus = MemoryBus(Simulator(), arch)
    bus.register_background(arch.membus_bytes_per_cycle * 50)
    m = bus.stall_multiplier(own_rate=0.0, block_cycles=1000)
    assert m == pytest.approx(1.0 / (1.0 - 0.95))


def test_unregister_restores_quiet_bus():
    arch = ArchParams()
    bus = MemoryBus(Simulator(), arch)
    bus.register_background(1.0)
    bus.unregister_background(1.0)
    assert bus.bandwidth() == arch.membus_bytes_per_cycle
    assert bus.stall_multiplier(0.0, 1000) == pytest.approx(1.0)


def test_unregister_underflow_raises():
    bus = MemoryBus(Simulator(), ArchParams())
    with pytest.raises(RuntimeError):
        bus.unregister_background(1.0)


def test_queue_backlog_contributes_to_block_utilization():
    arch = ArchParams()
    bus = MemoryBus(Simulator(), arch)
    bus.transfer_latency(64 * 1024)  # large pending DMA burst
    rho = bus.utilization_for_block(own_rate=0.0, block_cycles=1000)
    assert rho > 0.5


def test_transfer_statistics(bus):
    bus.transfer_latency(100)
    bus.transfer_latency(200)
    arb, bpc = bus._arb["mem"], bus.bandwidth()
    assert bus.queue.busy_cycles == sum(-(-(arb + n / bpc) // 1) for n in (100, 200))

"""Edge-case tests for processor time accounting."""

import pytest

from repro.arch import ArchParams, MemoryBus, Processor
from repro.sim import Simulator


def test_zero_cycle_busy_is_instant():
    sim = Simulator()
    cpu = Processor(sim, 0)
    done = []

    def app():
        yield from cpu.busy(0, "compute")
        done.append(sim.now)

    sim.spawn(app())
    sim.run()
    assert done == [0]


def test_run_block_without_bus():
    sim = Simulator()
    cpu = Processor(sim, 0, bus=None)

    def app():
        yield from cpu.run_block(100, 50, bus_bytes=1000)

    sim.spawn(app())
    sim.run()
    assert sim.now == 150
    assert cpu.stats.time["local_stall"] == 50


def test_blocked_wait_charges_but_does_not_occupy():
    """wait_for models blocked (not CPU-busy) time: a concurrent
    handler does not extend it."""
    sim = Simulator()
    cpu = Processor(sim, 0)
    done = []

    def app():
        yield from cpu.wait_for(sim.timeout(1000), "barrier_wait")
        done.append(sim.now)

    def irq():
        yield from cpu.run_handler(_delay(sim, 400))

    sim.spawn(app())
    sim.spawn(irq())
    sim.run()
    assert done == [1000]
    assert cpu.stats.time["barrier_wait"] == 1000
    assert cpu.stats.time["handler"] == 400


def _delay(sim, cycles):
    yield sim.timeout(cycles)


def test_nested_handler_time_not_double_counted():
    """Two sequential handlers: handler time equals the sum of their
    durations, not more."""
    sim = Simulator()
    cpu = Processor(sim, 0)

    def irq(dur):
        yield from cpu.run_handler(_delay(sim, dur))

    sim.spawn(irq(300))
    sim.spawn(irq(200))
    sim.run()
    assert cpu.stats.time["handler"] == 500


def test_many_interleaved_handlers_exact_steal():
    sim = Simulator()
    cpu = Processor(sim, 0)
    finish = []

    def app():
        yield from cpu.busy(10_000, "compute")
        finish.append(sim.now)

    def irq(start, dur):
        yield sim.timeout(start)
        yield from cpu.run_handler(_delay(sim, dur))

    sim.spawn(app())
    total = 0
    for start, dur in ((100, 50), (500, 300), (501, 40), (9000, 1000)):
        sim.spawn(irq(start, dur))
        total += dur
    sim.run()
    assert finish == [10_000 + total]


def test_background_registration_balanced_after_block():
    sim = Simulator()
    bus = MemoryBus(sim, ArchParams())
    cpu = Processor(sim, 0, bus=bus)

    def app():
        yield from cpu.run_block(1000, 200, bus_bytes=800)

    sim.spawn(app())
    sim.run()
    assert bus.bandwidth() == pytest.approx(ArchParams().membus_bytes_per_cycle)


@pytest.mark.parametrize("with_bus", [False, True])
@pytest.mark.parametrize("work, stall", [(-5, 10), (10, -5)])
def test_run_block_rejects_negative_time(with_bus, work, stall):
    sim = Simulator()
    bus = MemoryBus(sim, ArchParams()) if with_bus else None
    cpu = Processor(sim, 0, bus=bus)
    with pytest.raises(ValueError, match="negative time"):
        next(cpu.run_block(work, stall, bus_bytes=800))
    assert cpu.stats.time["compute"] == cpu.stats.time["local_stall"] == 0
    if bus is not None:
        # the block's background load was released
        assert bus.bandwidth() == pytest.approx(ArchParams().membus_bytes_per_cycle)


def test_finish_time_initially_none():
    sim = Simulator()
    cpu = Processor(sim, 0)
    assert cpu.finish_time is None

"""Unit tests for the processor model and interrupt stealing."""

import pytest

from repro.arch import ArchParams, MemoryBus, Processor
from repro.sim import Simulator


def make_cpu(sim, with_bus=True):
    bus = MemoryBus(sim, ArchParams()) if with_bus else None
    return Processor(sim, global_id=0, cpu_index=0, bus=bus)


def test_busy_advances_time_and_charges_category():
    sim = Simulator()
    cpu = make_cpu(sim)
    done = []

    def app():
        yield from cpu.busy(100, "compute")
        done.append(sim.now)

    sim.spawn(app())
    sim.run()
    assert done == [100]
    assert cpu.stats.time["compute"] == 100


def test_run_block_accounts_work_and_stall():
    sim = Simulator()
    cpu = make_cpu(sim)

    def app():
        yield from cpu.run_block(work_cycles=80, stall_cycles=20)

    sim.spawn(app())
    sim.run()
    assert cpu.stats.time["compute"] == 80
    assert cpu.stats.time["local_stall"] == 20
    assert sim.now == 100


def test_run_block_zero_length_is_noop():
    sim = Simulator()
    cpu = make_cpu(sim)

    def app():
        yield from cpu.run_block(0, 0)
        yield sim.timeout(1)

    sim.spawn(app())
    sim.run()
    assert cpu.stats.time["compute"] == 0


def test_handler_steals_time_from_app():
    sim = Simulator()
    cpu = make_cpu(sim)
    finish = []

    def app():
        yield from cpu.busy(1000, "compute")
        finish.append(sim.now)

    def handler_body():
        yield sim.timeout(300)

    def irq():
        yield sim.timeout(100)
        yield from cpu.run_handler(handler_body())

    sim.spawn(app())
    sim.spawn(irq())
    sim.run()
    # app needs 1000 CPU cycles; 300 were stolen at t=100
    assert finish == [1300]
    assert cpu.stats.time["handler"] == 300
    assert cpu.stats.time["compute"] == 1000


def test_back_to_back_handlers_serialize_and_both_steal():
    sim = Simulator()
    cpu = make_cpu(sim)
    finish = []
    handler_times = []

    def app():
        yield from cpu.busy(1000, "compute")
        finish.append(sim.now)

    def handler_body(dur):
        yield sim.timeout(dur)
        handler_times.append(sim.now)

    def irq(start, dur):
        yield sim.timeout(start)
        yield from cpu.run_handler(handler_body(dur))

    sim.spawn(app())
    sim.spawn(irq(100, 200))
    sim.spawn(irq(150, 100))  # arrives while first handler runs
    sim.run()
    # handlers run 100-300 and 300-400; app loses 300 cycles
    assert handler_times == [300, 400]
    assert finish == [1300]
    assert cpu.stats.time["handler"] == 300


def test_handler_during_idle_does_not_delay_later_compute_extra():
    sim = Simulator()
    cpu = make_cpu(sim)
    finish = []

    def app():
        yield sim.timeout(500)  # idle (e.g. blocked on remote data)
        yield from cpu.busy(100, "compute")
        finish.append(sim.now)

    def irq():
        yield from cpu.run_handler(iter([]))  # zero-length body

    def irq2():
        yield sim.timeout(100)
        yield from cpu.run_handler(_delay(sim, 50))

    sim.spawn(app())
    sim.spawn(irq())
    sim.spawn(irq2())
    sim.run()
    # handler at t=100..150 overlapped the app's idle wait, not its compute
    assert finish == [600]


def _delay(sim, cycles):
    yield sim.timeout(cycles)


def test_compute_waits_if_handler_active_at_start():
    sim = Simulator()
    cpu = make_cpu(sim)
    finish = []

    def irq():
        yield from cpu.run_handler(_delay(sim, 200))

    def app():
        yield sim.timeout(50)  # handler started at 0, still active
        yield from cpu.busy(100, "compute")
        finish.append(sim.now)

    sim.spawn(irq())
    sim.spawn(app())
    sim.run()
    # app cannot start until t=200, finishes at 300
    assert finish == [300]


def test_handler_return_value():
    sim = Simulator()
    cpu = make_cpu(sim)
    results = []

    def body():
        yield sim.timeout(10)
        return "page-data"

    def irq():
        result = yield from cpu.run_handler(body())
        results.append(result)

    sim.spawn(irq())
    sim.run()
    assert results == ["page-data"]


def test_run_block_with_bus_contention_inflates_stall():
    sim = Simulator()
    arch = ArchParams()
    bus = MemoryBus(sim, arch)
    cpu_a = Processor(sim, 0, 0, bus=bus)
    cpu_b = Processor(sim, 1, 1, bus=bus)
    finish = {}

    def app(cpu, tag):
        # heavy bus demand from both processors simultaneously
        yield from cpu.run_block(work_cycles=1000, stall_cycles=1000, bus_bytes=1800)
        finish[tag] = sim.now

    sim.spawn(app(cpu_a, "a"))
    sim.spawn(app(cpu_b, "b"))
    sim.run()
    solo_sim = Simulator()
    solo_bus = MemoryBus(solo_sim, arch)
    solo_cpu = Processor(solo_sim, 0, 0, bus=solo_bus)
    solo_done = []

    def solo_app():
        yield from solo_cpu.run_block(1000, 1000, 1800)
        solo_done.append(solo_sim.now)

    solo_sim.spawn(solo_app())
    solo_sim.run()
    # The multiplier is sampled at block start, so the first block to start
    # ("a") may see an empty bus; the later one must observe contention.
    assert finish["b"] > solo_done[0]
    assert max(finish.values()) > solo_done[0]


def test_wait_for_charges_category():
    sim = Simulator()
    cpu = make_cpu(sim)
    ev = sim.event()
    got = []

    def app():
        value = yield from cpu.wait_for(ev, "data_wait")
        got.append(value)

    sim.spawn(app())
    sim.schedule(250, ev.succeed, "page")
    sim.run()
    assert got == ["page"]
    assert cpu.stats.time["data_wait"] == 250


def test_stats_counters_and_busy_cycles():
    from repro.arch import ProcessorStats

    s = ProcessorStats()
    s.add("compute", 15)
    s.add("handler", 7)
    s.count("page_fetches", 2)
    s.count("page_fetches", 1)
    s.count("messages", 4)
    assert s.time["compute"] == 15
    assert s.time["handler"] == 7
    assert s.get_count("page_fetches") == 3
    assert s.get_count("messages") == 4
    assert s.get_count("never") == 0
    assert s.busy_cycles == 22


def test_stats_validation():
    from repro.arch import ProcessorStats

    s = ProcessorStats()
    with pytest.raises(KeyError):
        s.add("bogus", 1)
    with pytest.raises(ValueError):
        s.add("compute", -1)

"""Direct unit tests for the interrupt controller."""

import pytest

from repro.arch import ArchParams, CommParams, MemoryBus, Processor
from repro.osys import InterruptController
from repro.sim import Simulator


def make_node(sim, n_cpus=2, **comm_kw):
    comm = CommParams(**comm_kw)
    bus = MemoryBus(sim, ArchParams())
    cpus = [Processor(sim, i, i, bus=bus) for i in range(n_cpus)]
    return cpus, InterruptController(sim, cpus, comm)


def test_requires_processors():
    sim = Simulator()
    with pytest.raises(ValueError):
        InterruptController(sim, [], CommParams())


def test_fixed_scheme_always_cpu0():
    sim = Simulator()
    cpus, irq = make_node(sim, n_cpus=4)
    assert all(irq.target_cpu() is cpus[0] for _ in range(5))


def test_round_robin_cycles():
    sim = Simulator()
    cpus, irq = make_node(sim, n_cpus=3, interrupt_scheme="round_robin")
    picks = [irq.target_cpu() for _ in range(6)]
    assert picks == [cpus[0], cpus[1], cpus[2], cpus[0], cpus[1], cpus[2]]


def test_handler_result_delivered_via_done_event():
    sim = Simulator()
    _cpus, irq = make_node(sim, interrupt_cost=100)
    results = []

    def body():
        yield sim.timeout(50)
        return "done-value"

    def waiter():
        value = yield irq.raise_interrupt(body())
        results.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    # issue(100) + delivery(100) + body(50)
    assert results == [(250, "done-value")]


def test_factory_form_receives_target_cpu():
    sim = Simulator()
    cpus, irq = make_node(sim)
    seen = []

    def factory(cpu):
        def body():
            seen.append(cpu)
            return
            yield

        return body()

    irq.raise_interrupt(factory)
    sim.run()
    assert seen == [cpus[0]]


def test_null_interrupt_costs_both_sides():
    sim = Simulator()
    _cpus, irq = make_node(sim, interrupt_cost=700)
    done_at = []

    def waiter():
        yield irq.null_interrupt()
        done_at.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert done_at == [1400]


def test_zero_cost_interrupt_is_immediate():
    sim = Simulator()
    _cpus, irq = make_node(sim, interrupt_cost=0)
    done_at = []

    def waiter():
        yield irq.null_interrupt()
        done_at.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert done_at == [0]


def test_interrupts_counted():
    sim = Simulator()
    cpus, irq = make_node(sim)
    for _ in range(3):
        irq.null_interrupt()
    sim.run()
    assert irq.interrupts_raised == 3
    assert cpus[0].stats.get_count("interrupts") == 3


# --------------------------------------------------------------------- #
# exact times and event counts of the delivery path
# --------------------------------------------------------------------- #
def _sleep(sim, cycles, result=None):
    yield cycles
    return result


def test_two_interrupts_contend_for_one_handler_lock():
    sim = Simulator()
    cpus, irq = make_node(sim, interrupt_cost=100)
    done_at = []

    def waiter(ev, tag):
        value = yield ev
        done_at.append((sim.now, tag, value))

    sim.spawn(waiter(irq.raise_interrupt(_sleep(sim, 50, "a"), name="a"), "a"))
    sim.spawn(waiter(irq.raise_interrupt(_sleep(sim, 30, "b"), name="b"), "b"))
    sim.run()
    # a: issue 0-100, delivery 100-200, body 200-250; b is issued at 100
    # too but waits for the lock until 250: delivery 250-350, body 350-380
    assert done_at == [(250, "a", "a"), (380, "b", "b")]
    assert cpus[0].stats.time["handler"] == 150 + 130
    assert not cpus[0].handler_active
    assert sim.dispatched == 14


def test_interrupt_steals_cycles_from_running_application_thread():
    sim = Simulator()
    cpus, irq = make_node(sim, interrupt_cost=100)
    cpu = cpus[0]
    finish = []

    def app():
        yield from cpu.busy(1000, "compute")
        finish.append(sim.now)

    sim.spawn(app())
    sim.schedule(100, irq.raise_interrupt, _sleep(sim, 300), "steal")
    sim.run()
    # issue 100-200 steals nothing; delivery 200-300 and body 300-600 do
    assert finish == [1400]
    assert cpu.stats.time["handler"] == 400
    assert cpu.stats.time["compute"] == 1000
    assert sim.dispatched == 9


def test_deadlocked_handler_is_named_by_the_watchdog():
    from repro.sim.engine import SimulationStuckError, Watchdog

    sim = Simulator(watchdog=Watchdog())
    cpus, irq = make_node(sim, interrupt_cost=100)
    never = sim.event()

    def stuck():
        yield never

    irq.raise_interrupt(stuck(), name="irq.stuck")
    irq.raise_interrupt(_sleep(sim, 10), name="irq.behind")
    with pytest.raises(SimulationStuckError) as exc:
        sim.run()
    # the first holds the CPU forever; the second waits for its lock
    assert exc.value.blocked == ("irq.behind", "irq.stuck")
    assert sim.now == 200
    assert cpus[0].handler_active


def test_raising_handler_crashes_and_frees_the_cpu():
    from repro.sim.process import ProcessCrash

    sim = Simulator()
    cpus, irq = make_node(sim, interrupt_cost=100)
    cpu = cpus[0]

    def bad():
        yield 10
        raise ValueError("handler bug")

    irq.raise_interrupt(bad(), name="irq.bad")
    with pytest.raises(ProcessCrash) as exc:
        sim.run()
    assert exc.value.process.name == "irq.bad"
    assert isinstance(exc.value.exc, ValueError)
    assert sim.now == 210
    assert not cpu.handler_active
    assert cpu.stats.time["handler"] == 110
    # the lock was released: a later interrupt is granted at once
    done_at = []

    def waiter():
        yield irq.raise_interrupt(_sleep(sim, 5), name="irq.next")
        done_at.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert done_at == [210 + 205]
    assert cpu.stats.time["handler"] == 110 + 105

"""Processor model with interrupt-aware time accounting.

Each simulated processor runs one application thread (its trace) and may
additionally be the target of protocol interrupts.  Interrupt handlers
*steal* the CPU: while a handler runs, the application thread makes no
progress.  The paper's central result — interrupt cost dominates SVM
performance — falls out of exactly this interaction, so it is modelled
carefully:

* Handlers on one CPU are serialized: a FIFO handler lock per CPU.
* A handler runs as a :class:`HandlerRun`: scheduled callbacks that
  step the handler body directly, not a simulation process.
* The application thread's occupancy loop measures the integral of
  handler-busy time over its own window and extends itself by exactly
  that amount (see :meth:`Processor._occupied`) — an exact model of
  preemption without event-level context switching.

Every cycle a processor spends is charged to one category of
:class:`ProcessorStats` (compute, local stall, data wait, lock wait,
barrier wait, handler, host overhead), giving the paper's per-application
cost breakdowns (Section 7).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Deque, Dict, Generator, Iterator, Optional

from repro.sim.primitives import Event, Waitable
from repro.sim.process import _RESUME_ARGS, ProcessCrash
from repro.verify.events import EV_HANDLER_ENTER, EV_HANDLER_EXIT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.membus import MemoryBus
    from repro.sim.engine import Simulator

#: time-accounting categories (mirrors the paper's breakdowns);
#: "protocol" is on-CPU protocol work in application context (twin
#: creation, diff computation at releases), as opposed to "handler"
#: (interrupt-driven protocol work stealing the CPU)
TIME_CATEGORIES = (
    "compute",
    "local_stall",
    "data_wait",
    "lock_wait",
    "barrier_wait",
    "handler",
    "overhead",
    "protocol",
)


class ProcessorStats:
    """Per-processor time breakdown plus protocol event counters."""

    __slots__ = ("time", "counters")

    def __init__(self) -> None:
        self.time: Dict[str, int] = {cat: 0 for cat in TIME_CATEGORIES}
        self.counters: Dict[str, int] = {}

    def __eq__(self, other: object) -> bool:
        # value equality, so RunResults compare by content (the parallel
        # executor's determinism guarantee and the disk cache's round-trip
        # both rely on it)
        if not isinstance(other, ProcessorStats):
            return NotImplemented
        return self.time == other.time and self.counters == other.counters

    def __repr__(self) -> str:
        busy = {k: v for k, v in self.time.items() if v}
        return f"ProcessorStats(time={busy}, counters={self.counters})"

    def add(self, category: str, cycles: int) -> None:
        if category not in self.time:
            raise KeyError(f"unknown time category {category!r}")
        if cycles < 0:
            raise ValueError(f"negative time {cycles} for {category!r}")
        self.time[category] += cycles

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def get_count(self, name: str) -> int:
        return self.counters.get(name, 0)

    @property
    def busy_cycles(self) -> int:
        return sum(self.time.values())


class Processor:
    """One CPU of an SMP node.

    Parameters
    ----------
    sim:
        The simulator.
    global_id:
        Processor index across the whole cluster (0..P-1).
    cpu_index:
        Index within the owning node (0..procs_per_node-1).
    bus:
        The node's :class:`~repro.arch.membus.MemoryBus` (may be attached
        after construction via :attr:`bus`).
    """

    def __init__(
        self,
        sim: "Simulator",
        global_id: int,
        cpu_index: int = 0,
        bus: Optional["MemoryBus"] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.global_id = global_id
        self.cpu_index = cpu_index
        self.bus = bus
        self.name = name or f"cpu{global_id}"
        self.stats = ProcessorStats()
        self.node: Any = None  # back-reference set by the cluster builder
        #: optional probe (set by the cluster when profiling or
        #: verifying); None keeps the handler path at one attribute check
        self.probe: Any = None

        #: handler lock: held by the running handler; waiters queue FIFO
        self._handler_held = False
        self._handler_waiters: Deque["HandlerRun"] = deque()
        self._irq_end_name = f"{self.name}.irq_end"
        self._handler_busy_completed = 0
        self._active_start: Optional[int] = None
        self._active_end: Optional[Event] = None
        #: wall-clock time at which this CPU's application thread finished
        self.finish_time: Optional[int] = None

    # ------------------------------------------------------------------ #
    # handler-time bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def handler_active(self) -> bool:
        return self._active_start is not None

    def run_handler(self, body: Iterator, delivery: int = 0) -> Generator:
        """Run ``body`` as a handler on this CPU, starting now.

        Yieldable generator returning the body's return value, for
        callers that wait on a handler inline.  The handler itself is a
        :class:`HandlerRun`, like every interrupt's: handlers on one CPU
        serialize, and the handler's full duration (``delivery`` cycles
        of kernel entry, then the body, bus waits included) is charged to
        this CPU's ``handler`` time and steals cycles from the
        application thread.
        """
        done = Event(self.sim)
        HandlerRun(self, body, f"{self.name}.handler", delivery, done).start()
        return (yield done)

    def _handler_key(self) -> str:
        # node-level union tracker: "some CPU of this node is inside a
        # protocol handler" (simultaneous handlers on sibling CPUs count
        # once)
        if self.node is not None:
            return f"n{self.node.node_id}.handler"
        return f"{self.name}.handler"

    # ------------------------------------------------------------------ #
    # application-thread occupancy
    # ------------------------------------------------------------------ #
    def _occupied(self, cycles: int) -> Generator:
        """Occupy the CPU for ``cycles`` of *application* time.

        Extends itself by exactly the handler-busy time that overlaps it,
        so the application thread loses one cycle per stolen cycle.
        """
        remaining = int(cycles)
        while True:
            while self._active_end is not None:
                yield self._active_end
            if remaining <= 0:
                break
            # handler-busy cycles over the window: none is active at its
            # start; one still running at its end counts up to now
            busy_before = self._handler_busy_completed
            yield remaining
            remaining = self._handler_busy_completed - busy_before
            if self._active_start is not None:
                remaining += self.sim.now - self._active_start

    def busy(self, cycles: int, category: str) -> Generator:
        """Occupy the CPU and charge the time to ``category``.

        Returns the :meth:`_occupied` generator itself rather than
        wrapping it: this is the hottest occupancy site (host overhead,
        protocol work), and a wrapper frame would cost every resumption
        a hop.
        """
        cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"negative time {cycles} for {category!r}")
        self.stats.time[category] += cycles  # ProcessorStats.add, inline
        return self._occupied(cycles)

    def run_block(
        self,
        work_cycles: int,
        stall_cycles: int = 0,
        bus_bytes: int = 0,
    ) -> Generator:
        """Execute one compute block: work + local stall + bus demand.

        The block's local-miss traffic is registered as background load on
        the node's memory bus for the block's duration; the stall
        component is inflated by the contention multiplier the bus
        reports (see :class:`~repro.arch.membus.MemoryBus`).
        """
        work = int(work_cycles)
        stall = int(stall_cycles)
        base = work + stall
        if base <= 0:
            return
        rate = (bus_bytes / base) if bus_bytes else 0.0
        bus = self.bus
        if bus is not None and rate:
            bus.register_background(rate)
        try:
            if bus is not None and stall:
                stall = int(stall * bus.stall_multiplier(rate, base))
            if work < 0 or stall < 0:
                raise ValueError(f"negative time in block: compute {work}, local_stall {stall}")
            time = self.stats.time  # ProcessorStats.add, inline
            time["compute"] += work
            time["local_stall"] += stall
            yield from self._occupied(work + stall)
        finally:
            if bus is not None and rate:
                bus.unregister_background(rate)

    # ------------------------------------------------------------------ #
    # blocked-time accounting
    # ------------------------------------------------------------------ #
    def wait_for(self, waitable, category: str):
        """Wait on ``waitable`` charging the elapsed time to ``category``."""
        t0 = self.sim.now
        value = yield waitable
        self.stats.add(category, self.sim.now - t0)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Processor({self.name})"


class HandlerRun:
    """One protocol handler on a CPU, run without a simulation process.

    The caller builds it when the request is raised, then schedules
    :meth:`start` after its own prologue (interrupt issue, poll or
    assist delay).  Each link takes the calendar slot the matching
    resumption of a handler process would take:

    * :meth:`start` takes the CPU's handler lock, granting it in a
      fresh slot at the current time, or queues FIFO for it;
    * :meth:`_enter` (the grant slot) opens the handler bracket — busy
      accounting, the ``_active_end`` event the application thread
      waits on, the probe — and runs ``delivery`` cycles of kernel entry
      before the body;
    * :meth:`_step` drives the body like a process would: it accepts a
      bare ``int`` delay or any :class:`~repro.sim.primitives.Waitable`.
      When the body returns, :meth:`_exit` closes the bracket:
      ``_active_end`` fires, the lock passes on, then ``done`` (if
      given) succeeds with the body's return value.

    A handler counts as a live process for the watchdog from the moment
    it is built, under ``name``; a body that raises releases the CPU and
    then surfaces as :class:`~repro.sim.process.ProcessCrash`.
    """

    __slots__ = ("cpu", "body", "name", "delivery", "done", "_wake")

    #: handlers are never daemons: one that cannot finish is a deadlock
    daemon = False

    def __init__(
        self,
        cpu: Processor,
        body: Iterator,
        name: str,
        delivery: int = 0,
        done: Optional[Event] = None,
    ) -> None:
        if type(body) is not GeneratorType:
            body = _delegate(body)  # any iterator, e.g. the null body
        self.cpu = cpu
        self.body = body
        self.name = name
        self.delivery = delivery
        self.done = done
        self._wake: Any = None
        cpu.sim._processes.add(self)

    def start(self) -> None:
        """Take the CPU's handler lock, or queue behind its holder."""
        cpu = self.cpu
        if cpu._handler_held:
            cpu._handler_waiters.append(self)
        else:
            cpu._handler_held = True
            cpu.sim.schedule_now(self._enter)

    def _enter(self) -> None:
        cpu = self.cpu
        sim = cpu.sim
        cpu._active_start = sim.now
        cpu._active_end = Event(sim, name=cpu._irq_end_name)
        probe = cpu.probe
        if probe is not None:
            probe.record(sim.now, EV_HANDLER_ENTER, (cpu._handler_key(), cpu.name))
        self._wake = step = self._step
        if self.delivery:
            sim.schedule(self.delivery, step, None)
        else:
            step(None)

    def _exit(self) -> None:
        cpu = self.cpu
        sim = cpu.sim
        duration = sim.now - cpu._active_start
        cpu._handler_busy_completed += duration
        cpu.stats.add("handler", duration)
        cpu._active_start = None
        end_event, cpu._active_end = cpu._active_end, None
        probe = cpu.probe
        if probe is not None:
            probe.record(sim.now, EV_HANDLER_EXIT, cpu._handler_key())
        end_event.succeed()
        waiters = cpu._handler_waiters
        if waiters:
            # the lock passes straight to the next handler
            sim.schedule_now(waiters.popleft()._enter)
        else:
            cpu._handler_held = False
        # drop the self-reference so the handler is freed by refcount
        self._wake = None
        sim._processes.discard(self)

    def _resume(self, value: Any) -> None:
        self._step(value)

    def _resume_exc(self, exc: BaseException) -> None:
        self._step(None, exc)

    def _step(self, value: Any, exc: Optional[BaseException] = None) -> None:
        try:
            if exc is not None:
                target = self.body.throw(exc)
            else:
                target = self.body.send(value)
        except StopIteration as stop:
            self._exit()
            if self.done is not None:
                self.done.succeed(stop.value)
            return
        except ProcessCrash:
            self._exit()
            raise
        except BaseException as err:
            self._exit()
            raise ProcessCrash(self, err) from err

        if target.__class__ is int:
            # a bare integer yield is a timeout, as in a process, with
            # the calendar insert inlined the way Process._step does it
            sim = self.cpu.sim
            if target < 0:
                sim.schedule(target, self._wake, None)  # raises
            when = sim.now + target
            bucket = sim._buckets.get(when)
            if bucket is None:
                sim._buckets[when] = [self._wake, _RESUME_ARGS]
                heappush(sim._times, when)
            else:
                bucket.append(self._wake)
                bucket.append(_RESUME_ARGS)
        elif isinstance(target, Waitable):
            target._wait(self)  # type: ignore[arg-type]
        else:
            raise ProcessCrash(self, TypeError(f"handler yielded non-waitable {target!r}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HandlerRun({self.name!r} on {self.cpu.name})"


def _delegate(iterator: Iterator) -> Generator:
    return (yield from iterator)

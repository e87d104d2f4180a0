"""Interrupt delivery model.

Interrupt cost is the paper's dominant communication parameter.  The model
matches Section 3:

* an interrupt costs ``interrupt_cost`` cycles to **issue** (raising the
  interrupt from the NI or another processor: inter-processor write,
  APIC traversal) and another ``interrupt_cost`` to **deliver** (context
  switch into the kernel handler on the victim CPU) — a "null interrupt"
  therefore costs twice the per-side value;
* issue time is pure latency; delivery time runs *on the victim CPU*, so
  it both delays the handler and steals cycles from the application
  thread (the handler bracket of
  :class:`repro.arch.processor.HandlerRun`);
* delivery target: the paper's base protocol delivers all interrupts to
  processor 0 of each node (``fixed``); a ``round_robin`` scheme is also
  studied (Section 5) and is selectable via
  :attr:`repro.arch.params.CommParams.interrupt_scheme`.

An interrupt is a chain of scheduled callbacks, not a process: a slot at
the raise time, the issue delay (skipped when the cost is zero), the
victim CPU's handler lock, the delivery delay, then the handler body,
stepped by its :class:`~repro.arch.processor.HandlerRun`.  Each link
takes the calendar slot a handler process's resumption would, so event
counts and simulated times are those of a process yielding the same
delays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.arch.processor import HandlerRun
from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.params import CommParams
    from repro.arch.processor import Processor
    from repro.sim.engine import Simulator


class InterruptController:
    """Per-node interrupt dispatch."""

    def __init__(
        self,
        sim: "Simulator",
        processors: List["Processor"],
        comm: "CommParams",
    ) -> None:
        if not processors:
            raise ValueError("a node needs at least one processor")
        self.sim = sim
        self.processors = processors
        self.comm = comm
        #: per-side cost under the active regime (RDMA raises user-level
        #: upcalls, not interrupts: zero cycles both sides)
        self._cost = comm.effective_interrupt_cost
        self._rr_next = 0
        self.interrupts_raised = 0

    # ------------------------------------------------------------------ #
    def target_cpu(self) -> "Processor":
        """Pick the victim CPU per the configured delivery scheme."""
        if self.comm.interrupt_scheme == "round_robin":
            cpu = self.processors[self._rr_next % len(self.processors)]
            self._rr_next += 1
            return cpu
        return self.processors[0]

    def raise_interrupt(self, body, name: str = "irq") -> Event:
        """Raise an interrupt whose handler runs ``body`` on the victim CPU.

        ``body`` is an iterator (usually a generator), or a callable
        ``factory(cpu)`` returning one — protocol handlers use the
        factory form to learn which CPU they were delivered to (for
        reply accounting).

        Returns an event that succeeds (with the body's return value) when
        the handler completes.  Callers that ignore it use
        :meth:`post_interrupt`, which skips allocating it.
        """
        done = Event(self.sim, name=f"{name}.done")
        self._deliver(body, name, done)
        return done

    def post_interrupt(self, body, name: str = "irq") -> None:
        """Raise an interrupt without a completion event."""
        self._deliver(body, name, None)

    def _deliver(self, body, name: str, done: Optional[Event]) -> None:
        self.interrupts_raised += 1
        cpu = self.target_cpu()
        counters = cpu.stats.counters  # ProcessorStats.count, inline
        counters["interrupts"] = counters.get("interrupts", 0) + 1
        if callable(body):
            body = body(cpu)
        cost = self._cost
        # Delivery side: kernel entry/context switch on the victim CPU.
        handler = HandlerRun(cpu, body, name, cost, done)
        sim = self.sim
        if cost:
            # Issue side: latency only (NI/IPI traversal), no CPU stolen;
            # counted from a slot at the raise time.
            sim.schedule_now(sim.schedule, cost, handler.start)
        else:
            sim.schedule_now(handler.start)

    def null_interrupt(self, name: str = "null_irq") -> Event:
        """An interrupt with an empty handler (queue-overflow signal,
        measurement probe).  Costs the full null-interrupt time."""
        return self.raise_interrupt(iter(()), name=name)

    def post_null_interrupt(self) -> None:
        """:meth:`null_interrupt` without a completion event (the NI's
        queue-overflow hook)."""
        self.post_interrupt(iter(()), name="null_irq")

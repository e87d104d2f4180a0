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
  thread (via :meth:`repro.arch.processor.Processor.run_handler`);
* delivery target: the paper's base protocol delivers all interrupts to
  processor 0 of each node (``fixed``); a ``round_robin`` scheme is also
  studied (Section 5) and is selectable via
  :attr:`repro.arch.params.CommParams.interrupt_scheme`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

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

        ``body`` is either a generator, or a callable ``factory(cpu)``
        returning one — protocol handlers use the factory form to learn
        which CPU they were delivered to (for reply accounting).

        Returns an event that succeeds (with the body's return value) when
        the handler completes.
        """
        self.interrupts_raised += 1
        cpu = self.target_cpu()
        cpu.stats.count("interrupts")
        if callable(body):
            body = body(cpu)
        done = Event(self.sim, name=f"{name}.done")
        self.sim.spawn(self._dispatch(cpu, body, done), name=name)
        return done

    def _dispatch(self, cpu: "Processor", body: Iterator, done: Event):
        cost = self._cost
        if cost:
            # Issue side: latency only (NI/IPI traversal), no CPU stolen.
            yield cost
        # Delivery side: kernel entry/context switch on the victim CPU.
        result = yield from cpu.run_handler(body, cost)
        done.succeed(result)

    def null_interrupt(self, name: str = "null_irq") -> Event:
        """An interrupt with an empty handler (queue-overflow signal,
        measurement probe).  Costs the full null-interrupt time."""
        return self.raise_interrupt(iter(()), name=name)

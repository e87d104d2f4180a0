"""Split-transaction memory-bus model with contention.

Each SMP node has one memory bus shared by its processors' cache misses,
the write buffer, memory, and the network interface's DMA engines.  The
paper models contention here explicitly; so do we, with two mechanisms
sized for a page-grain simulation:

* **Discrete transfers** (page DMA in/out, diff application, NI deposits)
  go through an analytic FCFS :class:`~repro.sim.resources.FluidQueue`.
  Each transfer pays arbitration + service at the bus bandwidth, with the
  service rate degraded by the background load present when it starts.
  Arbitration priorities (NI-out > L2 > WB > memory > NI-in, per the
  paper) are reflected as small per-class arbitration surcharges —
  with a fluid queue the *ordering* effect of priorities is second-order,
  but the cost asymmetry (an NI-in transfer yields to everyone and so
  waits longer under load) is retained.

* **Background load** from compute blocks: processors register their
  block's average bus demand (bytes/cycle) for the block's duration.
  Blocks see a queueing-style stall inflation ``1/(1 - rho)`` where
  ``rho`` is total bus utilization (background from other processors plus
  the fraction of the block window the fluid queue is already busy).
  This is what makes the memory bus saturate beyond ~4 processors/node
  for bus-hungry applications (Ocean), reproducing Figure 13's peak.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.resources import FluidQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.params import ArchParams
    from repro.sim.engine import Simulator

#: arbitration priority classes, lower wins (paper Section 2)
BUS_CLASSES = ("ni_out", "l2", "wb", "mem", "ni_in")

#: extra arbitration bus-cycles charged per class (cost asymmetry of the
#: priority order under a fluid-queue approximation)
_CLASS_ARB_EXTRA = {"ni_out": 0, "l2": 0, "wb": 1, "mem": 1, "ni_in": 2}

#: utilization cap so the analytic inflation factor stays finite
_RHO_CAP = 0.95


class MemoryBus:
    """One node's split-transaction memory bus."""

    def __init__(self, sim: "Simulator", arch: "ArchParams", name: str = "membus") -> None:
        self.sim = sim
        self.arch = arch
        self.name = name
        self.queue = FluidQueue(sim, name, bytes_per_cycle=arch.membus_bytes_per_cycle)
        #: per-class arbitration cost, precomputed once per bus
        self._arb = {
            kind: arch.membus_arb_cycles * (1 + extra)
            for kind, extra in _CLASS_ARB_EXTRA.items()
        }
        self._bpc = arch.membus_bytes_per_cycle
        #: summed background demand currently registered (bytes/cycle)
        self._bg_rate = 0.0
        #: statistics
        self.transfer_count = 0
        self.transfer_bytes = 0
        #: optional metrics registry (None = disabled, single check per transfer)
        self.metrics = None

    # ------------------------------------------------------------------ #
    # discrete transfers
    # ------------------------------------------------------------------ #
    def transfer_latency(self, nbytes: int, kind: str = "mem") -> int:
        """Enqueue a bus transfer; return total latency in cycles.

        The caller should ``yield sim.timeout(latency)``.
        """
        try:
            arb = self._arb[kind]
        except KeyError:
            raise ValueError(
                f"unknown bus class {kind!r}; one of {BUS_CLASSES}"
            ) from None
        if nbytes < 0:
            raise ValueError("negative transfer size")
        service = arb + nbytes / self.bandwidth()
        self.transfer_count += 1
        self.transfer_bytes += nbytes
        if self.metrics is not None:
            self.meter(kind, nbytes)
        return self.queue.latency(service)

    def bandwidth(self) -> float:
        """Bytes/cycle a burst transfer sees now: background load from
        compute blocks eats into the nominal bandwidth."""
        bpc = self._bpc
        bg = self._bg_rate
        if bg == 0.0:
            return bpc
        return bpc * max(0.05, 1.0 - min(_RHO_CAP, bg / bpc))

    def meter(self, kind: str, nbytes: int) -> None:
        """Record one transfer in the metrics registry (before its
        reservation, so the sampled backlog excludes it)."""
        metrics = self.metrics
        metrics.bump(f"{self.name}.{kind}.transfers")
        metrics.bump(f"{self.name}.{kind}.bytes", nbytes)
        metrics.sample_queue(f"{self.name}.backlog", self.queue.backlog)

    # ------------------------------------------------------------------ #
    # background (compute-block) load
    # ------------------------------------------------------------------ #
    def register_background(self, bytes_per_cycle: float) -> None:
        """A processor starts a compute block demanding this bus rate."""
        if bytes_per_cycle < 0:
            raise ValueError("negative background rate")
        self._bg_rate += bytes_per_cycle

    def unregister_background(self, bytes_per_cycle: float) -> None:
        self._bg_rate -= bytes_per_cycle
        if self._bg_rate < -1e-9:
            raise RuntimeError(f"background rate underflow on {self.name}")
        if self._bg_rate < 0:
            self._bg_rate = 0.0

    def utilization_for_block(self, own_rate: float, block_cycles: int) -> float:
        """Bus utilization a block of the given length would observe,
        excluding its own demand."""
        a = self.arch
        other_bg = max(0.0, self._bg_rate - own_rate)
        rho = other_bg / a.membus_bytes_per_cycle
        if block_cycles > 0:
            # foreground bursts currently queued overlap the block window
            overlap = min(self.queue.backlog, block_cycles)
            rho += overlap / block_cycles
        return min(_RHO_CAP, rho)

    def stall_multiplier(self, own_rate: float, block_cycles: int) -> float:
        """Inflation factor (>= 1) for a block's memory-stall component.

        Classic single-server queueing inflation ``1 / (1 - rho)`` against
        the utilization the block observes from everyone else.
        """
        rho = self.utilization_for_block(own_rate, block_cycles)
        return 1.0 / (1.0 - rho)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryBus({self.name!r}, bg={self._bg_rate:.3f} B/cyc)"

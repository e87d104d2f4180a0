"""I/O-bus model.

In the simulated node (paper Figure 2) the network interface sits on an
I/O bus; in contemporary systems this bus — not the links or the memory
bus — limits node-to-network bandwidth, which is why the paper sweeps
*I/O bus bandwidth* as the bandwidth parameter.

The bus carries DMA traffic in both directions and is a single FCFS
resource, modelled with an analytic fluid queue.  Bandwidth is expressed
in MB per processor-clock MHz, numerically equal to bytes per processor
cycle (see :class:`repro.arch.params.CommParams.io_bytes_per_cycle`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.resources import FluidQueue
from repro.verify.events import EV_DMA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class IOBus:
    """One node's I/O bus."""

    def __init__(self, sim: "Simulator", bytes_per_cycle: float, name: str = "iobus") -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("I/O bus bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.queue = FluidQueue(sim, name, bytes_per_cycle=bytes_per_cycle)
        #: optional probe (None = disabled, single check per DMA)
        self.probe = None

    def dma_latency(self, nbytes: int) -> int:
        """Enqueue a DMA of ``nbytes``; return its total latency in cycles."""
        if nbytes < 0:
            raise ValueError("negative DMA size")
        if nbytes == 0:
            return 0
        probe = self.probe
        if probe is not None:
            # the queue as it stands before this DMA's reservation
            probe.record(self.sim.now, EV_DMA, (self.name, nbytes, self.queue._free_at))
        return self.queue.transfer(nbytes)

    @property
    def backlog_bytes(self) -> float:
        """Bytes of DMA work currently queued (drives NI back-pressure)."""
        return self.queue.backlog * self.bytes_per_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOBus({self.name!r}, {self.bytes_per_cycle} B/cyc)"

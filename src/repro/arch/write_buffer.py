"""Write-buffer occupancy model.

The simulated node (paper Figure 2) places a write buffer between the
write-through L1 and the L2/memory bus, with a *retire-at-N* policy: the
buffer starts draining entries once N of its slots fill, and the processor
stalls only when all slots are full.

This module provides a small analytic model of that behaviour used both by
:class:`repro.arch.cache.CacheModel` (default constant pressure) and
directly by tests/experiments that want the occupancy dynamics: given a
block's write rate and the drain rate implied by L2/bus service, it
computes the expected full-buffer stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import ArchParams


@dataclass(frozen=True)
class WriteBurst:
    """A burst of ``writes`` stores issued over ``duration`` cycles."""

    writes: int
    duration: int

    def __post_init__(self) -> None:
        if self.writes < 0 or self.duration <= 0:
            raise ValueError("writes >= 0 and duration > 0 required")

    @property
    def rate(self) -> float:
        """Writes per cycle."""
        return self.writes / self.duration


class WriteBufferModel:
    """Analytic retire-at-N write buffer.

    The buffer drains one entry per ``drain_cycles`` once occupancy
    reaches ``retire_at``.  For a burst at ``rate`` writes/cycle:

    * if ``rate <= drain_rate`` the buffer never fills beyond the retire
      threshold — zero stalls;
    * otherwise the excess writes accumulate; once the remaining
      ``entries - retire_at`` slots fill, every further write stalls for
      the drain interval.
    """

    def __init__(self, arch: ArchParams, drain_cycles: int | None = None) -> None:
        self.arch = arch
        #: cycles to retire one entry (L2 write takes the L2 hit time)
        self.drain_cycles = drain_cycles if drain_cycles is not None else arch.l2_hit_cycles

    @property
    def drain_rate(self) -> float:
        """Entries retired per cycle once draining."""
        return 1.0 / self.drain_cycles

    def headroom(self) -> int:
        """Slots available beyond the retire threshold."""
        return self.arch.wb_entries - self.arch.wb_retire_at

    def stall_cycles(self, burst: WriteBurst) -> int:
        """Expected processor stall cycles for the burst."""
        excess_rate = burst.rate - self.drain_rate
        if excess_rate <= 0:
            return 0
        # Writes that cannot drain during the burst:
        backlog = excess_rate * burst.duration
        # The first `headroom` of them sit in free slots without stalling.
        stalled_writes = max(0.0, backlog - self.headroom())
        return int(stalled_writes * self.drain_cycles)


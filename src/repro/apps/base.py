"""Workload model: page-grain traces generated from real data layouts.

The original study ran the SPLASH-2 binaries under execution-driven
simulation.  At repro band 2 we substitute *trace generators*: for each
application we lay out its real shared data structures at byte
granularity, partition them exactly the way the SPLASH-2 code does, and
derive the per-processor sequence of protocol-relevant events:

``("c", work, stall, bus_bytes)``
    a compute block: pure work cycles, uncontended local-stall cycles
    (from the analytic cache model), and the block's memory-bus traffic;
``("r", page)`` / ``("w", page, words, runs)``
    shared accesses at page granularity (``words`` written feeds the
    diff/update cost models; ``runs`` counts disjoint spatial runs, which
    AURC cannot coalesce below);
``("a", lock_id)`` / ("l", lock_id)``
    lock acquire / release;
``("b", barrier_id)``
    global barrier;
``("t", page)``
    a zero-cost initialization touch that establishes first-touch page
    placement (the real programs' careful data placement).

Because page numbers are computed from actual byte layouts, page-size
effects (false sharing, fragmentation, transfer granularity) and
clustering effects (which neighbours share a node) emerge from the same
arithmetic the real programs induce, rather than being hard-coded.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.arch.cache import BlockAccessProfile, CacheModel
from repro.arch.params import ArchParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: event-kind tags
COMPUTE = "c"
READ = "r"
WRITE = "w"
ACQUIRE = "a"
RELEASE = "l"
BARRIER = "b"
TOUCH = "t"

Event = Tuple  # compact tuples; first element is the kind tag


@dataclass(frozen=True)
class GenParams:
    """Inputs to trace generation."""

    n_procs: int = 16
    page_size: int = 4096
    arch: ArchParams = field(default_factory=ArchParams)
    #: problem-size multiplier vs the app's default (benches use < 1)
    scale: float = 1.0
    seed: int = 42

    def rng(self, salt: int = 0) -> np.random.Generator:
        # imported on first use, so that ``import repro`` does not load numpy
        from numpy.random import default_rng

        return default_rng(self.seed * 1_000_003 + salt)


@dataclass
class AppTrace:
    """A generated workload: per-processor event lists plus metadata."""

    name: str
    n_procs: int
    events: List[List[Event]]
    #: uniprocessor execution time (cycles) for speedup computation
    serial_cycles: int
    #: total shared-data footprint in bytes (diagnostics)
    shared_bytes: int
    problem: str = ""

    def busy_cycles(self, proc: int) -> int:
        """Uncontended compute + local-stall cycles of one processor."""
        return sum(ev[1] + ev[2] for ev in self.events[proc] if ev[0] == COMPUTE)

    @property
    def max_busy_cycles(self) -> int:
        return max(self.busy_cycles(p) for p in range(self.n_procs))

    @property
    def ideal_speedup(self) -> float:
        """Speedup with all communication/synchronization free (the
        paper's 'ideal': compute + local stall only)."""
        return self.serial_cycles / max(1, self.max_busy_cycles)

    def event_count(self) -> int:
        return sum(len(evs) for evs in self.events)

    def validate(self) -> None:
        """Sanity-check event structure (used by tests)."""
        if len(self.events) != self.n_procs:
            raise ValueError("event list count != n_procs")
        for evs in self.events:
            depth: Dict[int, int] = {}
            for ev in evs:
                kind = ev[0]
                if kind == ACQUIRE:
                    depth[ev[1]] = depth.get(ev[1], 0) + 1
                elif kind == RELEASE:
                    depth[ev[1]] = depth.get(ev[1], 0) - 1
                    if depth[ev[1]] < 0:
                        raise ValueError(f"release without acquire: lock {ev[1]}")
                elif kind == COMPUTE:
                    if ev[1] < 0 or ev[2] < 0 or ev[3] < 0:
                        raise ValueError(f"negative compute fields: {ev}")
                elif kind == WRITE:
                    if ev[2] < 1:
                        raise ValueError(f"write of zero words: {ev}")
            if any(v != 0 for v in depth.values()):
                raise ValueError("unbalanced acquire/release")


class AddressSpace:
    """Page-aligned bump allocator over the shared virtual address space."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._next = 0

    def alloc(self, nbytes: int, label: str = "") -> int:
        """Allocate a page-aligned region; returns its base address."""
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        base = self._next
        pages = -(-nbytes // self.page_size)
        self._next += pages * self.page_size
        return base

    @property
    def used_bytes(self) -> int:
        return self._next

    def page_of(self, addr: int) -> int:
        return addr // self.page_size

    def pages_of(self, addr: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(0)
        first = addr // self.page_size
        last = (addr + nbytes - 1) // self.page_size
        return range(first, last + 1)


class AppGenerator(abc.ABC):
    """Base class for the ten application generators."""

    #: registry key, e.g. "fft"
    name: str = ""
    #: one-line description
    description: str = ""

    @abc.abstractmethod
    def generate(self, params: GenParams) -> AppTrace:
        """Produce the workload trace for the given machine parameters."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def compute_block(
        cache: CacheModel,
        work_cycles: int,
        reads: int,
        writes: int,
        l1_mr: float,
        l2_mr: float,
    ) -> Event:
        """Build a COMPUTE event from an access profile via the cache model."""
        costs = cache.block_costs(
            BlockAccessProfile(
                reads=reads, writes=writes, l1_miss_rate=l1_mr, l2_miss_rate=l2_mr
            )
        )
        return (COMPUTE, int(work_cycles), costs.stall_cycles, costs.bus_bytes)

    @staticmethod
    def touch_events(space: AddressSpace, base: int, nbytes: int) -> List[Event]:
        """First-touch events for a region (placement initialization)."""
        return [(TOUCH, p) for p in space.pages_of(base, nbytes)]

    @staticmethod
    def read_region(space: AddressSpace, addr: int, nbytes: int) -> List[Event]:
        """READ events for every page of a byte region."""
        return [(READ, p) for p in space.pages_of(addr, nbytes)]

    @staticmethod
    def write_region(
        space: AddressSpace, addr: int, nbytes: int, words: int, runs: int = 1
    ) -> List[Event]:
        """WRITE events (same words/runs) for every page of a region."""
        return [(WRITE, p, words, runs) for p in space.pages_of(addr, nbytes)]

    @staticmethod
    def serial_from_blocks(events: List[List[Event]], serial_stall_factor: float = 1.0) -> int:
        """Uniprocessor time as the sum of all compute blocks, with the
        stall component scaled by ``serial_stall_factor`` (serial runs see
        worse cache behaviour when the full working set exceeds the cache
        — the paper's Ocean caveat).
        """
        return sum(
            ev[1] + int(ev[2] * serial_stall_factor)
            for evs in events
            for ev in evs
            if ev[0] == COMPUTE
        )

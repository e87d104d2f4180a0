"""Resource-occupancy metrics registry.

The observability layer mirrors the paper's measurement methodology:
every conclusion in Bilas & Singh rests on *attribution* — execution
time split by category, bottleneck shifts explained by which resource
(host CPU, NI occupancy, I/O bus, link) saturates as a parameter is
swept.  This module provides the collection side:

* :class:`Counter`-style event tallies (:meth:`MetricsRegistry.bump`),
* cycle accumulators for per-tag handler time
  (:meth:`MetricsRegistry.add_cycles` — the "protocol hotspot" data),
* :class:`BusyTracker` union-of-intervals busy/idle trackers (nested or
  simultaneous busy intervals are counted once),
* queue-depth samples (:meth:`MetricsRegistry.sample_queue`),
* phase marks — cumulative time-breakdown snapshots taken at barrier
  episodes, from which :meth:`repro.core.metrics.RunResult.phase_breakdown`
  derives the paper's per-epoch stacked-bar figures.

Cost discipline
---------------
Instrumented components hold a ``metrics`` attribute that is ``None`` by
default, so the disabled path is a single attribute check (usually hoisted
out of loops entirely).  Per-resource *busy cycles* are not collected here
at all — the :class:`~repro.sim.resources.FluidQueue` servers already
track them unconditionally, and :func:`repro.core.run.run_simulation`
harvests them in one end-of-run walk, which costs the DES hot loop
nothing.

A registry is *passive*: it never schedules events and never perturbs
simulated time, so enabling metrics cannot change simulation results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class BusyTracker:
    """Union-of-intervals busy-time bookkeeping.

    ``begin``/``end`` calls may nest (one handler interrupting another on
    the same resource) or coincide at the same timestamp (simultaneous
    events); overlapping busy intervals are counted **once**:

    >>> bt = BusyTracker()
    >>> bt.begin(10); bt.begin(10); bt.end(20); bt.end(30)
    >>> bt.busy_cycles
    20
    """

    __slots__ = ("busy_cycles", "intervals", "_depth", "_start")

    def __init__(self) -> None:
        self.busy_cycles: int = 0
        self.intervals: int = 0
        self._depth: int = 0
        self._start: int = 0

    @property
    def active(self) -> bool:
        return self._depth > 0

    def begin(self, now: int) -> None:
        if self._depth == 0:
            self._start = now
        self._depth += 1

    def end(self, now: int) -> None:
        if self._depth <= 0:
            raise RuntimeError("BusyTracker.end() without matching begin()")
        self._depth -= 1
        if self._depth == 0:
            if now < self._start:
                raise ValueError(f"interval ends at {now} before start {self._start}")
            self.busy_cycles += now - self._start
            self.intervals += 1

    def busy_as_of(self, now: int) -> int:
        """Busy cycles including any still-open interval up to ``now``."""
        busy = self.busy_cycles
        if self._depth > 0:
            busy += now - self._start
        return busy


class QueueDepthStat:
    """Running max/mean of a sampled queue depth."""

    __slots__ = ("samples", "total", "max")

    def __init__(self) -> None:
        self.samples: int = 0
        self.total: float = 0.0
        self.max: float = 0.0

    def sample(self, depth: float) -> None:
        self.samples += 1
        self.total += depth
        if depth > self.max:
            self.max = depth

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0


#: one phase mark: (simulated time, label, cumulative per-category cycles)
PhaseMark = Tuple[int, str, Dict[str, int]]


class MetricsRegistry:
    """Collects counters, cycle accumulators, busy trackers and phase marks.

    Components report into the registry only when one is installed (their
    ``metrics`` attribute is non-``None``); ``None`` is the off state.
    """

    __slots__ = ("counters", "cycles", "busy", "queue_depths", "phase_marks")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.cycles: Dict[str, int] = {}
        self.busy: Dict[str, BusyTracker] = {}
        self.queue_depths: Dict[str, QueueDepthStat] = {}
        self.phase_marks: List[PhaseMark] = []

    # ------------------------------------------------------------------ #
    # event counters and cycle accumulators
    # ------------------------------------------------------------------ #
    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_cycles(self, name: str, cycles: int) -> None:
        self.cycles[name] = self.cycles.get(name, 0) + int(cycles)

    # ------------------------------------------------------------------ #
    # busy intervals
    # ------------------------------------------------------------------ #
    def busy_tracker(self, name: str) -> BusyTracker:
        tracker = self.busy.get(name)
        if tracker is None:
            tracker = self.busy[name] = BusyTracker()
        return tracker

    def begin_busy(self, name: str, now: int) -> None:
        self.busy_tracker(name).begin(now)

    def end_busy(self, name: str, now: int) -> None:
        self.busy_tracker(name).end(now)

    # ------------------------------------------------------------------ #
    # queue depths
    # ------------------------------------------------------------------ #
    def sample_queue(self, name: str, depth: float) -> None:
        stat = self.queue_depths.get(name)
        if stat is None:
            stat = self.queue_depths[name] = QueueDepthStat()
        stat.sample(depth)

    # ------------------------------------------------------------------ #
    # phase (barrier-epoch) segmentation
    # ------------------------------------------------------------------ #
    def phase_mark(self, now: int, label: str, cumulative: Dict[str, int]) -> None:
        """Record a phase boundary at ``now``.

        ``cumulative`` is the cluster-wide per-category cycle breakdown
        *so far* (a snapshot, not a delta); consumers difference adjacent
        marks to recover per-phase costs.
        """
        self.phase_marks.append((int(now), label, dict(cumulative)))

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def busy_cycles(self, as_of: Optional[int] = None) -> Dict[str, int]:
        """Per-tracker busy cycles (closing open intervals at ``as_of``)."""
        if as_of is None:
            return {name: bt.busy_cycles for name, bt in self.busy.items()}
        return {name: bt.busy_as_of(as_of) for name, bt in self.busy.items()}

    def queue_summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"mean": stat.mean, "max": stat.max, "samples": float(stat.samples)}
            for name, stat in self.queue_depths.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, busy={len(self.busy)}, "
            f"phases={len(self.phase_marks)})"
        )

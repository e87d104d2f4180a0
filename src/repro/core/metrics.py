"""Run results: time breakdowns, speedups, normalized event rates.

Definitions follow the paper:

* **speedup** — uniprocessor execution time divided by parallel time;
* **ideal speedup** — uniprocessor time over the maximum per-processor
  (compute + local cache stall) time, i.e. all communication and
  synchronization costs zeroed (Figure 1's "ideal");
* event rates (Table 2, Figures 3-4) are reported *per processor per
  million compute cycles*, averaged over processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.arch.processor import TIME_CATEGORIES, ProcessorStats

#: time categories during which a processor is *busy* (occupying its
#: pipeline) as opposed to blocked waiting on a remote event
BUSY_CATEGORIES = ("compute", "local_stall", "handler", "overhead", "protocol")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.base import AppTrace
    from repro.core.config import ClusterConfig
    from repro.protocol.base import ProtocolCounters


@dataclass
class RunResult:
    """Everything measured by one simulation run."""

    app_name: str
    problem: str
    config: "ClusterConfig"
    #: wall-clock parallel execution time in cycles
    total_cycles: int
    #: uniprocessor execution time from the workload model
    serial_cycles: int
    #: per-processor stats (time categories + counters)
    proc_stats: List[ProcessorStats]
    #: cluster-wide protocol counters
    counters: "ProtocolCounters"
    #: maximum per-processor uncontended compute+stall cycles, straight
    #: from the workload model (used for the ideal speedup; the measured
    #: stats include bus-contention inflation, which ideal must not)
    uncontended_busy_max: int = 0
    #: extra run metadata (network bytes, NI stats, ...)
    meta: Dict[str, float] = field(default_factory=dict)
    #: per-resource busy cycles (memory buses, I/O buses, NI cores, links,
    #: CPUs), harvested in one end-of-run walk — always populated
    resource_busy: Dict[str, int] = field(default_factory=dict)
    #: phase marks from the metrics registry: (time, label, cumulative
    #: per-category cycles); empty unless the run was profiled
    phase_marks: List[Tuple[int, str, Dict[str, int]]] = field(default_factory=list)
    #: metrics-registry event counters (per-message-kind, per-tag, ...)
    metrics_counters: Dict[str, int] = field(default_factory=dict)
    #: metrics-registry cycle accumulators (per-handler-tag hotspots)
    metrics_cycles: Dict[str, int] = field(default_factory=dict)
    #: queue-depth summaries: name -> {mean, max, samples}
    queue_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: happens-before oracle findings (repro.verify.ConsistencyViolation);
    #: empty unless the run had verification enabled and an invariant broke
    violations: List[Any] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # speedups
    # ------------------------------------------------------------------ #
    @property
    def n_procs(self) -> int:
        return len(self.proc_stats)

    @property
    def speedup(self) -> float:
        return self.serial_cycles / max(1, self.total_cycles)

    @property
    def ideal_speedup(self) -> float:
        busiest = self.uncontended_busy_max
        if not busiest:  # fall back to measured busy time
            busiest = max(
                s.time["compute"] + s.time["local_stall"] for s in self.proc_stats
            )
        return self.serial_cycles / max(1, busiest)

    # ------------------------------------------------------------------ #
    # breakdowns
    # ------------------------------------------------------------------ #
    def time_breakdown(self) -> Dict[str, int]:
        """Aggregate cycles per category across processors."""
        total = {cat: 0 for cat in TIME_CATEGORIES}
        for s in self.proc_stats:
            for cat in TIME_CATEGORIES:
                total[cat] += s.time[cat]
        return total

    def breakdown_fractions(self) -> Dict[str, float]:
        """Category shares of total busy+wait time."""
        bd = self.time_breakdown()
        denom = max(1, sum(bd.values()))
        return {cat: cycles / denom for cat, cycles in bd.items()}

    # ------------------------------------------------------------------ #
    # resource occupancy / phase attribution (observability layer)
    # ------------------------------------------------------------------ #
    def utilization(self) -> Dict[str, float]:
        """Fraction of the run each resource spent busy, by resource name.

        Computed from :attr:`resource_busy` over the parallel execution
        time; a saturated resource reads ~1.0 (e.g. "NI 87% occupied,
        I/O bus 34%" — the paper's bottleneck-shift evidence).  Values
        are clamped to 1.0: an analytic server's backlog may drain past
        the last application event.
        """
        span = max(1, self.total_cycles)
        return {
            name: min(1.0, busy / span)
            for name, busy in self.resource_busy.items()
        }

    def phase_breakdown(self) -> List[Dict[str, object]]:
        """Per-phase (barrier-epoch) cost breakdown.

        Differences adjacent :attr:`phase_marks` into one record per
        epoch: ``{"label", "start", "end", "cycles", "fractions"}`` where
        ``fractions`` is normalized over the epoch's own total (summing
        to 1.0), matching the paper's stacked-bar figures.  Epochs in
        which no cycles were charged are dropped.  Empty unless the run
        was profiled with a metrics registry.
        """
        phases: List[Dict[str, object]] = []
        prev_time = 0
        prev_cum: Dict[str, int] = {cat: 0 for cat in TIME_CATEGORIES}
        for time, label, cum in self.phase_marks:
            delta = {
                cat: cum.get(cat, 0) - prev_cum.get(cat, 0) for cat in TIME_CATEGORIES
            }
            total = sum(delta.values())
            if total > 0:
                phases.append(
                    {
                        "label": label,
                        "start": prev_time,
                        "end": time,
                        "cycles": delta,
                        "fractions": {cat: c / total for cat, c in delta.items()},
                    }
                )
            prev_time, prev_cum = time, cum
        return phases

    def hotspots(self, top: int = 10) -> List[Tuple[str, int, int]]:
        """Top-``top`` protocol hotspots as ``(name, cycles, count)``.

        Ranks the metrics registry's cycle accumulators (handler tags,
        diff creation, update drains) by total cycles spent.
        """
        ranked = sorted(self.metrics_cycles.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            (name, cycles, self.metrics_counters.get(f"{name}.count", 0))
            for name, cycles in ranked[:top]
        ]

    # ------------------------------------------------------------------ #
    # normalized event rates (Table 2 / Figures 3-4 units)
    # ------------------------------------------------------------------ #
    @property
    def mean_compute_cycles(self) -> float:
        return sum(s.time["compute"] for s in self.proc_stats) / self.n_procs

    def per_proc_per_mcycle(self, counter: str) -> float:
        """Counter events per processor per million compute cycles."""
        total = sum(s.get_count(counter) for s in self.proc_stats)
        mcycles = max(1e-9, self.mean_compute_cycles / 1e6)
        return total / self.n_procs / mcycles

    @property
    def messages_per_proc_per_mcycle(self) -> float:
        return self.per_proc_per_mcycle("messages_sent")

    @property
    def mbytes_per_proc_per_mcycle(self) -> float:
        total = sum(s.get_count("bytes_sent") for s in self.proc_stats)
        mcycles = max(1e-9, self.mean_compute_cycles / 1e6)
        return total / (1 << 20) / self.n_procs / mcycles

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        bd = self.breakdown_fractions()
        parts = ", ".join(f"{k}={v:.0%}" for k, v in bd.items() if v >= 0.005)
        return (
            f"{self.app_name:>14}  speedup={self.speedup:5.2f} "
            f"(ideal {self.ideal_speedup:5.2f})  T={self.total_cycles:>12} cyc  "
            f"[{parts}]"
        )


def geometric_mean(values: List[float]) -> float:
    """Geometric mean (the paper's metric for combining msgs x bytes)."""
    if not values:
        raise ValueError("empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))

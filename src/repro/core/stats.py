"""Profile reduction: a probe's records folded into a run's profile fields.

Every conclusion in Bilas & Singh rests on *attribution*: execution time
split by category, bottleneck shifts explained by which resource (host
CPU, NI occupancy, I/O bus, link) saturates as a parameter is swept.
The instrumented components append timestamped events to one
:class:`~repro.verify.events.Probe`; :func:`reduce_profile` derives the
event tallies, the hotspot cycle accumulators, the node-level handler
busy unions, the queue-depth statistics and the barrier phase marks of a
profiled run from them in one pass (``docs/observability.md`` lists the
names).  Per-resource busy cycles are not derived here: the
:class:`~repro.sim.resources.FluidQueue` servers count them on every run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.verify.events import (
    EV_BUS,
    EV_DIFF_CREATE,
    EV_DMA,
    EV_HANDLER_ENTER,
    EV_HANDLER_EXIT,
    EV_HANDLER_TAG,
    EV_LINK,
    EV_NI_RECV,
    EV_NI_SEND,
    EV_NI_SENT,
    EV_PHASE,
    EV_UPDATE_DRAIN,
    TraceRecord,
)

#: one phase mark: (simulated time, label, cumulative per-category cycles)
PhaseMark = Tuple[int, str, Dict[str, int]]


def reduce_profile(
    records: Iterable[TraceRecord],
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, Dict[str, float]], List[PhaseMark]]:
    """Fold ``records`` into ``(counters, cycles, queue_stats, phase_marks)``.

    Records of other kinds (the oracle's) are skipped.  Each dict lists
    its keys in the order the run first touched them, and handler busy
    intervals still open at the end of the records are not counted.

    >>> from repro.verify.events import Probe
    >>> p = Probe()
    >>> p.record(10, EV_HANDLER_ENTER, ("n0.handler", "n0c0"))
    >>> p.record(12, EV_HANDLER_ENTER, ("n0.handler", "n0c1"))
    >>> p.record(20, EV_HANDLER_EXIT, "n0.handler")
    >>> p.record(30, EV_HANDLER_EXIT, "n0.handler")
    >>> counters, cycles, _, _ = reduce_profile(p.records)
    >>> counters, cycles
    ({'n0c0.handlers': 1, 'n0c1.handlers': 1}, {'busy.n0.handler': 20})
    """
    counters: Dict[str, int] = {}
    cycles: Dict[str, int] = {}
    #: queue name -> [samples, total, max]
    queues: Dict[str, List[Any]] = {}
    #: busy key -> [open brackets, interval start, busy cycles]
    busy: Dict[str, List[int]] = {}
    marks: List[PhaseMark] = []

    def bump(name: str, n: int = 1) -> None:
        counters[name] = counters.get(name, 0) + n

    def add_cycles(name: str, n: int) -> None:
        cycles[name] = cycles.get(name, 0) + int(n)

    def sample(name: str, depth: float) -> None:
        stat = queues.get(name)
        if stat is None:
            stat = queues[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += depth
        if depth > stat[2]:
            stat[2] = depth

    # a queue's backlog at ``now`` is the cycles until it drains
    # (FluidQueue.backlog), from the free-at time the record carries
    def bus(now: int, name: str, cls: str, nbytes: int, free_at: int) -> None:
        bump(f"{name}.{cls}.transfers")
        bump(f"{name}.{cls}.bytes", nbytes)
        sample(f"{name}.backlog", max(0, free_at - now))

    def dma(now: int, name: str, nbytes: int, free_at: int) -> None:
        bump(f"{name}.dmas")
        bump(f"{name}.dma_bytes", nbytes)
        sample(f"{name}.backlog", max(0, free_at - now))

    for now, kind, detail in records:
        if kind == EV_BUS:
            bus(now, *detail)
        elif kind == EV_NI_SEND:
            wire, membus, f0, iobus, f1, rx_iobus, f2, rx_membus, f3 = detail
            bus(now, membus, "ni_out", wire, f0)
            if wire:  # an empty DMA skips the I/O buses
                dma(now, iobus, wire, f1)
                dma(now, rx_iobus, wire, f2)
            bus(now, rx_membus, "ni_in", wire, f3)
        elif kind == EV_DMA:
            dma(now, *detail)
        elif kind == EV_NI_SENT:
            node, msg_kind, wire, iobus, backlog_bytes = detail
            name = msg_kind.name.lower()
            bump(f"ni{node}.sent.{name}")
            bump(f"ni{node}.sent_bytes.{name}", wire)
            sample(f"{iobus}.tx_backlog_bytes", backlog_bytes)
        elif kind == EV_NI_RECV:
            node, msg_kind, free_at = detail
            bump(f"ni{node}.recv.{msg_kind.name.lower()}")
            sample(f"ni{node}.rx_gate.backlog", max(0, free_at - now))
        elif kind == EV_LINK:
            msg_kind, wire = detail
            name = msg_kind.name.lower()
            bump(f"link.msgs.{name}")
            bump(f"link.bytes.{name}", wire)
        elif kind == EV_HANDLER_ENTER:
            key, cpu_name = detail
            tracker = busy.get(key)
            if tracker is None:
                tracker = busy[key] = [0, 0, 0]
            if tracker[0] == 0:
                tracker[1] = now
            tracker[0] += 1
            bump(f"{cpu_name}.handlers")
        elif kind == EV_HANDLER_EXIT:
            tracker = busy.setdefault(detail, [0, 0, 0])
            if tracker[0] <= 0:
                raise RuntimeError(f"handler exit on {detail!r} without an entry")
            tracker[0] -= 1
            if tracker[0] == 0:
                if now < tracker[1]:
                    raise ValueError(
                        f"interval ends at {now} before start {tracker[1]}"
                    )
                tracker[2] += now - tracker[1]
        elif kind == EV_HANDLER_TAG:
            tag, n = detail
            bump(f"handler.{tag}.count")
            add_cycles(f"handler.{tag}", n)
        elif kind == EV_DIFF_CREATE:
            diffs, n = detail
            bump("protocol.diff_create.count", diffs)
            add_cycles("protocol.diff_create", n)
        elif kind == EV_UPDATE_DRAIN:
            bump("protocol.update_drain.count")
            add_cycles("protocol.update_drain", detail)
        elif kind == EV_PHASE:
            label, cumulative = detail
            marks.append((int(now), label, dict(cumulative)))

    for key, tracker in busy.items():
        cycles.setdefault(f"busy.{key}", tracker[2])
    queue_stats = {
        name: {
            "mean": total / samples,
            "max": peak,
            "samples": float(samples),
        }
        for name, (samples, total, peak) in queues.items()
    }
    return counters, cycles, queue_stats, marks

"""Zero-cost "ideal" memory-model backend for differential testing.

Under LRC, the *set* of page versions a run produces — which (proc,
interval) pairs wrote each page — is determined entirely by each
processor's program order: a flush (release or barrier) closes the
current interval iff the processor dirtied anything since the last
flush.  It does not depend on timing, lock-grant order, home placement,
or the protocol variant.  That makes it computable directly from the
workload trace with no simulation at all, and therefore an independent
third opinion against both protocol engines:

    ideal_interval_sets(trace)
        == interval_sets_from_log(hlrc probe records)
        == interval_sets_from_log(aurc probe records)

Interval numbers also pin the *final contents* of every page: the last
write each processor contributed is its highest-numbered interval
touching the page, so equal interval sets imply equal final memory.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.apps.base import BARRIER, RELEASE, WRITE, AppTrace
from repro.verify.events import EV_INTERVAL, TraceRecord

#: page -> set of (proc, interval_number) versions
VersionSets = Dict[int, FrozenSet[Tuple[int, int]]]


def ideal_interval_sets(trace: AppTrace) -> VersionSets:
    """Per-page version sets under a zero-cost ideal execution."""
    versions: Dict[int, set] = {}
    for proc, events in enumerate(trace.events):
        dirty: set = set()
        interval = 0
        for ev in events:
            kind = ev[0]
            if kind == WRITE:
                dirty.add(ev[1])
            elif kind in (RELEASE, BARRIER):
                # mirrors HLRCProtocol.flush: an empty dirty set opens
                # no interval
                if dirty:
                    interval += 1
                    for page in dirty:
                        versions.setdefault(page, set()).add((proc, interval))
                    dirty.clear()
    return {page: frozenset(s) for page, s in versions.items()}


def interval_sets_from_log(records: Iterable[TraceRecord]) -> VersionSets:
    """Per-page version sets observed in a run's verify-event stream."""
    versions: Dict[int, set] = {}
    for rec in records:
        if rec.kind != EV_INTERVAL:
            continue
        proc, interval_no, pages, _snapshot = rec.detail
        for page in pages:
            versions.setdefault(page, set()).add((proc, interval_no))
    return {page: frozenset(s) for page, s in versions.items()}


def final_versions(sets: VersionSets) -> Dict[int, Dict[int, int]]:
    """page -> {proc: last interval writing it} (final-contents digest)."""
    out: Dict[int, Dict[int, int]] = {}
    for page, versions in sets.items():
        last: Dict[int, int] = {}
        for proc, interval in versions:
            if interval > last.get(proc, 0):
                last[proc] = interval
        out[page] = last
    return out
